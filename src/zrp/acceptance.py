"""The verification suite: thirteen numbered criteria with pinned parameters.

Each criterion is a function seed -> CriterionResult. Parameters (replica
counts, tolerances, configurations) are frozen here; the statistical ones use
4*SE bands or chi-square levels stated per criterion, and every random
quantity derives from the criterion seed, so a given seed always reproduces
the same verdict. Smoke mode shrinks replica counts (floors keep the
statistics meaningful) to finish in well under a minute.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import tempfile
import time
from dataclasses import dataclass, field
from itertools import product as iproduct
from pathlib import Path

from .configuration import Configuration
from .diagnostics import (engine_agreement_check, j_inequality_check,
                          martingale_residual, poisson_flux_check,
                          stationarity_exact, stationarity_statistical)
from .engine import (OPEN, killed, periodic, simulate_pq_family,
                     simulate_truncation_schedule)
from .errors import InvariantViolation
from .hitting import estimate_F, exact_F_small, exp_moment_check
from .kernel import nn_kernel_1d, symmetric_nn_kernel
from .localfn import capped_occupancy, occupancy_indicator, product_local
from .measures import fugacity_measure
from .noise import HarrisNoise
from .parallel import replica_map
from .rates import exp_rate, power_rate, table_rate
from .sites import box_sites

DEFAULT_SEED = 20260818


def _ge1(n: int) -> float:
    """Factor for product observables: 1 if the site is occupied."""
    return 1.0 if n >= 1 else 0.0


@dataclass
class CriterionResult:
    cid: str
    name: str
    passed: bool
    statistic: float
    details: dict = field(default_factory=dict)
    seconds: float = 0.0  # set by run_suite

    def to_json(self) -> dict:
        return {"cid": self.cid, "name": self.name, "pass": bool(self.passed),
                "statistic": float(self.statistic),
                "seconds": round(self.seconds, 3), "details": self.details}


def _n(full: int, smoke: bool, floor: int) -> int:
    return max(floor, full // 20) if smoke else full


# 1 ------------------------------------------------------------------------

def criterion_fugacity_identity(seed: int, threads: int = 1,
                                smoke: bool = False) -> CriterionResult:
    """Mean emission rate under the product marginal equals the fugacity."""
    tbl = table_rate([0.0] + [math.exp(0.5 * k) for k in range(1, 200)])
    worst = 0.0
    for rate, phi in iproduct((power_rate(1), power_rate(2), tbl),
                              (0.1, 1.0, 3.0, 10.0)):
        m = fugacity_measure(rate, phi, tol=1e-14)
        worst = max(worst, abs(m.mean_rate() - phi) / phi)
    return CriterionResult("AC1", "fugacity identity", worst <= 1e-10, worst,
                           {"tolerance": 1e-10,
                            "rates": ["k", "k^2", "exp-table"],
                            "phis": [0.1, 1.0, 3.0, 10.0]})


# 2 ------------------------------------------------------------------------

def criterion_poisson_marginal(seed: int, threads: int = 1,
                               smoke: bool = False) -> CriterionResult:
    """Linear rate: marginal is Poisson(phi), normalizer is e^phi."""
    worst_z = worst_pmf = 0.0
    for phi in (0.5, 1.0, 3.0):
        m = fugacity_measure(power_rate(1), phi, tol=1e-30)
        worst_z = max(worst_z, abs(math.exp(m.log_z - phi) - 1.0))
        for k in range(21):
            p_true = math.exp(-phi) * phi ** k / math.factorial(k)
            worst_pmf = max(worst_pmf, abs(float(m.pmf[k]) - p_true))
    worst = max(worst_z, worst_pmf)
    return CriterionResult("AC2", "Poisson special case", worst <= 1e-12,
                           worst, {"z_rel_err": worst_z,
                                   "pmf_abs_err": worst_pmf,
                                   "k_range": 20})


# 3 ------------------------------------------------------------------------

def criterion_exact_balance(seed: int, threads: int = 1,
                            smoke: bool = False) -> CriterionResult:
    """Global balance of the conditioned product measure on small tori."""
    worst = 0.0
    combos = 0
    for L, N, rate, pq in iproduct((2, 3), (1, 2, 3),
                                   (power_rate(1), power_rate(2)),
                                   ((1.0, 0.0), (0.7, 0.3), (0.5, 0.5))):
        rep = stationarity_exact(rate, nn_kernel_1d(*pq), L, 1, N)
        worst = max(worst, rep.statistic)
        combos += 1
    return CriterionResult("AC3", "exact canonical balance", worst <= 1e-12,
                           worst, {"combinations": combos,
                                   "tolerance": 1e-12})


# 4 ------------------------------------------------------------------------

def criterion_statistical_stationarity(seed: int, threads: int = 1,
                                       smoke: bool = False) -> CriterionResult:
    """Invariant start stays invariant (chi-square at 1%); a point start at
    the same total mass is detected as non-invariant."""
    R = _n(100_000, smoke, 5_000)
    Rc = _n(10_000, smoke, 2_000)
    rep = stationarity_statistical(power_rate(2), nn_kernel_1d(0.5), 1.0,
                                   torus_n=5, T=2.0, replicas=R, seed=seed,
                                   threads=threads)
    ctrl = stationarity_statistical(power_rate(2), nn_kernel_1d(0.5), 1.0,
                                    torus_n=5, T=2.0, replicas=Rc,
                                    seed=seed + 1, start="point",
                                    threads=threads)
    passed = rep.passed and not ctrl.passed
    return CriterionResult("AC4", "statistical stationarity", passed,
                           rep.extras["p_value"],
                           {"p_value": rep.extras["p_value"], "alpha": 0.01,
                            "replicas": R,
                            "control_p": ctrl.extras["p_value"],
                            "control_replicas": Rc,
                            "control_detected": not ctrl.passed})


# 5 ------------------------------------------------------------------------

def criterion_truncation_monotone(seed: int, threads: int = 1,
                                  smoke: bool = False) -> CriterionResult:
    """Growing the box never lowers any occupancy under shared noise."""
    R = _n(1_000, smoke, 50)
    rates = (power_rate(1), power_rate(2), exp_rate(1.0, 0.4))
    schedule = (5, 10, 20, 40)
    base = Configuration(1, {x: 1 for x in box_sites(schedule[-1], 1)})

    def replica(i):
        """Whether the origin stabilized, or None for a monotonicity violation."""
        ri, r = divmod(i, R)  # replica r of rates[ri]
        try:
            return simulate_truncation_schedule(
                base, schedule, rates[ri], nn_kernel_1d(0.5), 1.0,
                HarrisNoise(seed, (ri, r))).origin_stabilized
        except InvariantViolation:
            return None

    rows = replica_map(replica, len(rates) * R, threads=threads)
    violations = rows.count(None)
    return CriterionResult("AC5", "truncation monotonicity",
                           violations == 0, float(violations),
                           {"replicas_per_rate": R, "schedule": list(schedule),
                            "violations": violations,
                            "origin_stabilized_fraction":
                                rows.count(True) / len(rows)})


# 6 ------------------------------------------------------------------------

def criterion_martingale(seed: int, threads: int = 1,
                         smoke: bool = False) -> CriterionResult:
    """Mean-zero compensated increments for six (f, g, kernel) choices plus
    the single-particle closed form."""
    R = _n(10_000, smoke, 1_000)
    T = 1.0
    d2_origin = (0, 0)
    combos = [
        (capped_occupancy(0, 10), power_rate(2), nn_kernel_1d(0.5),
         Configuration(1, {-1: 2, 0: 1, 1: 2})),
        (capped_occupancy(0, 10), power_rate(1), nn_kernel_1d(0.8),
         Configuration(1, {-1: 2, 0: 1, 1: 2})),
        (occupancy_indicator(0, 2), power_rate(2), nn_kernel_1d(0.7),
         Configuration(1, {0: 2, 1: 1})),
        (capped_occupancy(0, 5), exp_rate(1.0, 0.4), nn_kernel_1d(0.5),
         Configuration(1, {-1: 1, 0: 2, 1: 1})),
        (product_local({0: (_ge1, 1.0), 1: (_ge1, 1.0)}, label="both occupied"),
         power_rate(2), nn_kernel_1d(0.5),
         Configuration(1, {-1: 1, 0: 1, 1: 1, 2: 1})),
        (capped_occupancy(d2_origin, 10), power_rate(2),
         symmetric_nn_kernel(2),
         Configuration(2, {(0, 0): 2, (1, 0): 1, (0, -1): 1})),
    ]
    zs = []
    qv_ok = True
    for i, (f, rate, kernel, eta0) in enumerate(combos):
        rep = martingale_residual(f, eta0, rate, kernel, OPEN, T, R,
                                  seed=seed + i, threads=threads)
        zs.append(rep.statistic)
        qv_ok = qv_ok and rep.extras["qv_ok"]
    zmax = max(zs)

    # one particle, total asymmetry, unit rate: occupancy of the origin
    # survives with probability exactly e^{-T}
    rep = martingale_residual(occupancy_indicator(0, 1),
                              Configuration(1, {0: 1}), power_rate(1),
                              nn_kernel_1d(1.0), OPEN, T, R,
                              seed=seed + 99, threads=threads)
    mean_f = rep.extras["final_mean_f"]
    se_f = math.sqrt(max(mean_f * (1 - mean_f), 1e-12) / R)
    closed_ok = abs(mean_f - math.exp(-T)) <= 4 * se_f and rep.statistic <= 4
    passed = zmax <= 4.0 and qv_ok and closed_ok
    return CriterionResult("AC6", "martingale residual", passed,
                           max(zmax, rep.statistic),
                           {"z_scores": zs, "replicas": R, "qv_ok": qv_ok,
                            "closed_form_mean": mean_f,
                            "closed_form_target": math.exp(-T),
                            "closed_form_ok": closed_ok})


# 7 ------------------------------------------------------------------------

def criterion_engine_agreement(seed: int, threads: int = 1,
                               smoke: bool = False) -> CriterionResult:
    """Thinning construction vs total-rate clock sampler, three settings."""
    R = _n(10_000, smoke, 2_000)
    sets = [
        (power_rate(2), nn_kernel_1d(0.7), OPEN, 1.0,
         Configuration(1, {-1: 1, 0: 2, 1: 1})),
        (power_rate(1), nn_kernel_1d(0.5), periodic(3), 1.5,
         Configuration(1, {0: 3, 1: 1})),
        (exp_rate(1.0, 0.4), nn_kernel_1d(0.5), killed(2), 1.0,
         Configuration(1, {-1: 1, 0: 2, 1: 1, 2: 1})),
    ]
    ps = []
    for i, (rate, kernel, policy, T, eta0) in enumerate(sets):
        rep = engine_agreement_check(eta0, rate, kernel, policy, T, R,
                                     seed=seed + i, threads=threads)
        ps.append(rep.extras["p_value"])
    pmin = min(ps)
    return CriterionResult("AC7", "engine cross-validation", pmin >= 0.001,
                           pmin, {"p_values": ps, "alpha": 0.001, "replicas": R})


# 8 ------------------------------------------------------------------------

def criterion_j_inequality(seed: int, threads: int = 1,
                           smoke: bool = False) -> CriterionResult:
    """Discrepancy growth bounded by departures from the origin."""
    R = _n(10_000, smoke, 1_000)
    zeta0 = Configuration(1, {-1: 1, 0: 2, 2: 1})
    psi0 = Configuration(1, {0: 1, 1: 1})
    total = 0
    for i, p in enumerate((0.5, 0.8)):
        rep = j_inequality_check(zeta0, psi0, power_rate(2), nn_kernel_1d(p),
                                 T=2.0, replicas=R, seed=seed + i,
                                 threads=threads)
        total += rep.extras["violations"]
    return CriterionResult("AC8", "discrepancy inequality", total == 0,
                           float(total),
                           {"replicas_per_kernel": R, "kernels": [0.5, 0.8],
                            "violations": total})


# 9 ------------------------------------------------------------------------

def criterion_pq_sandwich(seed: int, threads: int = 1,
                          smoke: bool = False) -> CriterionResult:
    """Labelled positions stay between the two extreme drifts."""
    R = _n(1_000, smoke, 100)
    eta0 = Configuration(1, {-2: 1, 0: 1, 1: 1})
    pq = [(1.0, 0.0), (0.7, 0.3), (0.5, 0.5), (0.0, 1.0)]

    def replica(r):
        """Whether replica r breaks the sandwich."""
        try:
            simulate_pq_family(eta0, power_rate(2), 1.5, HarrisNoise(seed, (r,)), pq)
        except InvariantViolation:
            return True
        return False

    total = sum(replica_map(replica, R, threads=threads))
    return CriterionResult("AC9", "drift family sandwich", total == 0,
                           float(total),
                           {"replicas": R, "pq": pq, "violations": total})


# 10 -----------------------------------------------------------------------

def criterion_hitting_curve(seed: int, threads: int = 1,
                            smoke: bool = False) -> CriterionResult:
    """Totally asymmetric walk from -1: first passage is exponential."""
    n_walks = _n(100_000, smoke, 5_000)
    kernel = nn_kernel_1d(1.0)
    times = (0.5, 1.0, 2.0)
    worst_exact = 0.0
    exact_ok = True
    for t in times:
        lo, hi = exact_F_small(-1, t, kernel, tol=1e-14)
        truth = 1.0 - math.exp(-t)
        worst_exact = max(worst_exact, abs(0.5 * (lo + hi) - truth), hi - lo)
        exact_ok = exact_ok and lo - 1e-10 <= truth <= hi + 1e-10
    curve = estimate_F(-1, times, kernel, n_walks, seed)
    mc_ok = all(lo <= 1.0 - math.exp(-t) <= hi
                for t, lo, hi in zip(curve.times, curve.lower, curve.upper))
    passed = exact_ok and worst_exact <= 1e-10 and mc_ok
    return CriterionResult("AC10", "hitting curve closed form", passed,
                           worst_exact,
                           {"times": list(times), "n_walks": n_walks,
                            "exact_within": 1e-10, "mc_bands_contain": mc_ok})


# 11 -----------------------------------------------------------------------

def criterion_moment_bound(seed: int, threads: int = 1,
                           smoke: bool = False) -> CriterionResult:
    """Exponential moments dominated by the hitting-sum bound."""
    R = _n(10_000, smoke, 1_000)
    configs = [
        Configuration(1, {-2: 1, -1: 1, 1: 2, 3: 1}),
        Configuration(1, {0: 3}),
        Configuration(1, {-1: 1, 0: 1, 1: 1, 2: 1, 4: 1}),
    ]
    worst = -math.inf
    all_ok = True
    margins = []
    for i, (eta0, theta) in enumerate(iproduct(configs, (0.25, 0.5))):
        rep = exp_moment_check(eta0, power_rate(2), nn_kernel_1d(0.5), 0,
                               theta, T=2.0, replicas=R, seed=seed + i,
                               threads=threads)
        margins.append(rep.statistic)
        worst = max(worst, rep.statistic)
        all_ok = all_ok and rep.passed
    return CriterionResult("AC11", "occupancy moment bound", all_ok, worst,
                           {"replicas": R, "thetas": [0.25, 0.5],
                            "configs": 3, "max_margin": worst,
                            "margins": margins})


# 12 -----------------------------------------------------------------------

def criterion_poisson_flux(seed: int, threads: int = 1,
                           smoke: bool = False) -> CriterionResult:
    """Stationary rightward flux through the origin is Poisson."""
    R = _n(10_000, smoke, 1_000)
    sets = [
        (power_rate(2), 1.0, 3.0),
        (power_rate(1), 2.0, 1.5),
    ]
    zmax = 0.0
    details = []
    for i, (rate, phi, T) in enumerate(sets):
        rep = poisson_flux_check(rate, phi, torus_n=10, T=T, replicas=R,
                                 seed=seed + i, threads=threads)
        zmax = max(zmax, rep.statistic)
        details.append({"phi": phi, "T": T, "mean": rep.extras["mean"],
                        "target": rep.extras["target_mean"],
                        "dispersion": rep.extras["dispersion"]})
    return CriterionResult("AC12", "Poisson flux law", zmax <= 4.0, zmax,
                           {"replicas": R, "sets": details})


# 13 -----------------------------------------------------------------------

def criterion_determinism(seed: int, threads: int = 1,
                          smoke: bool = False) -> CriterionResult:
    """Byte-identical event logs for the same seed at any thread count.
    The manifest is excluded: it records wall time."""
    from .cli import main as cli_main
    cfg = {
        "kernel": {"d": 1, "support": [{"z": [1], "p": 0.7},
                                       {"z": [-1], "p": 0.3}]},
        "rate": {"family": "power", "a": 2},
        "initial": {"mode": "product", "phi": 1.0, "n": 4},
        "policy": {"kind": "periodic", "n": 4},
        "T": 1.0,
        "replicas": 3,
        "seed": seed,
        "diagnostics": ["replay"],
    }
    diffs = []
    with tempfile.TemporaryDirectory() as td:
        base = Path(td)
        cfg_path = base / "exp.json"
        cfg_path.write_text(json.dumps(cfg))
        outs = []
        for label, nthreads in (("a", 1), ("b", 2), ("c", 1)):
            out = base / label
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = cli_main(["run", "--config", str(cfg_path),
                                 "--out", str(out), "--threads",
                                 str(nthreads)])
            if code != 0:
                return CriterionResult("AC13", "seeded determinism", False,
                                       float(code), {"error": f"run exited {code}"})
            outs.append(out)
        names = sorted(p.name for p in outs[0].iterdir()
                       if p.name != "manifest.json")
        for name in names:
            blobs = [(out / name).read_bytes() for out in outs]
            if not (blobs[0] == blobs[1] == blobs[2]):
                diffs.append(name)
    return CriterionResult("AC13", "seeded determinism", not diffs,
                           float(len(diffs)),
                           {"files_compared": len(names), "differing": diffs})


CRITERIA = (
    criterion_fugacity_identity,
    criterion_poisson_marginal,
    criterion_exact_balance,
    criterion_statistical_stationarity,
    criterion_truncation_monotone,
    criterion_martingale,
    criterion_engine_agreement,
    criterion_j_inequality,
    criterion_pq_sandwich,
    criterion_hitting_curve,
    criterion_moment_bound,
    criterion_poisson_flux,
    criterion_determinism,
)


def run_suite(which: str = "acceptance", seed: int | None = None,
              threads: int = 1) -> list[CriterionResult]:
    smoke = which == "smoke"
    master = DEFAULT_SEED if seed is None else seed
    results = []
    for i, fn in enumerate(CRITERIA):
        t0 = time.monotonic()
        res = fn(master + 101 * (i + 1), threads=threads, smoke=smoke)
        res.seconds = time.monotonic() - t0
        results.append(res)
    return results
