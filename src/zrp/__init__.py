"""Interacting particle systems with site-wise departure rates: simulation
on integer lattices, invariant product measures, coupled runs through a
shared noise field, and the verification diagnostics built on them."""

from .configuration import (
    Configuration,
    Trajectory,
    config_from_json,
    config_to_json,
    enumerate_particles,
    events_csv_string,
    replay,
    snapshots,
    trajectory_summary,
    truncate,
)
from .diagnostics import (
    Report,
    engine_agreement_check,
    j_inequality_check,
    martingale_residual,
    mass_conservation_check,
    poisson_flux_check,
    stationarity_exact,
    stationarity_statistical,
)
from .engine import (
    OPEN,
    BoundaryPolicy,
    killed,
    periodic,
    simulate,
    simulate_gillespie,
    simulate_pq_family,
    simulate_truncation_schedule,
)
from .errors import (
    CertificationError,
    ConfigError,
    InvariantViolation,
    RateRangeError,
    ZRPError,
)
from .hitting import (
    HittingCurve,
    MbarReport,
    estimate_F,
    exact_F_small,
    exp_moment_check,
    mbar,
)
from .kernel import (
    Kernel,
    kernel_from_json,
    make_kernel,
    mean_drift,
    nn_kernel_1d,
    symmetric_nn_kernel,
)
from .localfn import (
    LocalFunction,
    capped_occupancy,
    occupancy_indicator,
    product_local,
)
from .measures import (
    CanonicalTorusMeasure,
    FugacityMeasure,
    canonical_torus_measure,
    fugacity_measure,
    sample_box_config,
)
from .noise import HarrisNoise
from .parallel import derived_rng, replica_map, resolve_threads
from .rates import (
    RateFn,
    check_corollary_conditions,
    exp_rate,
    power_rate,
    rate_from_json,
    table_rate,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
