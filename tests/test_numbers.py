"""One rule for each kind of number a caller passes: a box radius is a whole
number >= 0 (sites.box_radius); a replica or walk count, a seed or a worker
count a whole number >= its least (errors.json_count); a horizon, a rate or
fugacity parameter or a sup bound a positive finite number
(errors.json_positive); and a time a finite number >= 0 (errors.json_time).
Each is a JSON-style number: True, nan, inf and integers past float range
are refused, and so is 2.0 where a whole number is asked."""
import json
import math

import numpy as np
import pytest

from zrp import cli, diagnostics, hitting
from zrp.configuration import Configuration, snapshots, truncate
from zrp.diagnostics import (engine_agreement_check, j_inequality_check,
                             martingale_residual, mass_conservation_check,
                             poisson_flux_check, stationarity_statistical)
from zrp.engine import (OPEN, killed, periodic, simulate, simulate_gillespie,
                        simulate_pq_family, simulate_truncation_schedule)
from zrp.errors import ConfigError
from zrp.hitting import estimate_F, exact_F_small, exp_moment_check, mbar
from zrp.kernel import nn_kernel_1d
from zrp.localfn import LocalFunction, capped_occupancy, product_local
from zrp.measures import fugacity_measure, sample_box_config
from zrp.noise import HarrisNoise
from zrp.parallel import resolve_threads
from zrp.rates import exp_rate, power_rate
from zrp.sites import box_radius, box_sites

SQ, NN = power_rate(2.0), nn_kernel_1d(0.5)
ONE = Configuration(1, {0: 1})
CFG = {"kernel": {"d": 1, "support": [{"z": [1], "p": 0.5}, {"z": [-1], "p": 0.5}]},
       "rate": {"family": "power", "a": 2.0}, "policy": {"kind": "open"},
       "T": 0.5, "initial": {"mode": "point", "n_particles": 2}}

RADII = {
    "periodic": periodic,
    "killed": killed,
    "truncate": lambda n: truncate(Configuration(1, {0: 1, 3: 2}), n),
    "box_sites": lambda n: box_sites(n, 1),
    "sample_box_config": lambda n: sample_box_config(
        fugacity_measure(SQ, 1.0), n, 1, np.random.default_rng(0)),
    "schedule": lambda n: simulate_truncation_schedule(
        ONE, (n, 5), SQ, NN, 1.0, HarrisNoise(0)),
}
COUNTS = {
    "martingale": lambda r: martingale_residual(
        capped_occupancy(0, 10), ONE, SQ, NN, OPEN, 1.0, r, 1),
    "stationarity": lambda r: stationarity_statistical(SQ, NN, 1.0, 2, 1.0, r, 1),
    "engine-agreement": lambda r: engine_agreement_check(ONE, SQ, NN, OPEN, 1.0, r, 1),
    "j-inequality": lambda r: j_inequality_check(ONE, ONE, SQ, NN, 1.0, r, 1),
    "flux": lambda r: poisson_flux_check(SQ, 1.0, 2, 1.0, r, 1),
    "mass": lambda r: mass_conservation_check(SQ, NN, 1.0, 2, 1.0, r, 1),
    "exp-moment": lambda r: exp_moment_check(ONE, SQ, NN, 0, 0.5, 1.0, r, 1),
    "estimate_F": lambda r: estimate_F(-1, [1.0], NN, r, 1),
    "seed": lambda seed: cli.Experiment(dict(CFG, seed=seed)),
    "resolve_threads": resolve_threads,
}
POSITIVES = {
    "simulate": lambda T: simulate(ONE, SQ, NN, OPEN, T, HarrisNoise(0)),
    "simulate_gillespie": lambda T: simulate_gillespie(
        ONE, SQ, NN, OPEN, T, np.random.default_rng(0)),
    "Experiment": lambda T: cli.Experiment(dict(CFG, T=T)),
    "power_rate": power_rate,
    "exp_rate-c": lambda c: exp_rate(c, 0.5),
    "exp_rate-theta": lambda theta: exp_rate(1.0, theta),
    "fugacity_measure": lambda phi: fugacity_measure(SQ, phi),
    "initial.phi": lambda phi: cli.Experiment(
        dict(CFG, initial={"mode": "product", "phi": phi, "n": 2})),
    "exp_moment_check": lambda theta: exp_moment_check(
        ONE, SQ, NN, 0, theta, 1.0, 3, 1),
    "LocalFunction": lambda b: LocalFunction((0,), b, lambda occ: 1.0),
    "product_local": lambda b: product_local({0: (lambda k: 1.0, b)}),
}
TIMES = {
    "mbar": lambda t: mbar(Configuration(1, {0: 1, 3: 1}), 0, t, SQ, NN),
    "exact_F_small": lambda s: exact_F_small(-1, s, NN),
    "estimate_F-times": lambda t: estimate_F(-1, [0.5, t], NN, 10, 1),
    "snapshots": lambda t: snapshots(simulate(ONE, SQ, NN, OPEN, 2.0,
                                              HarrisNoise(0)), [t, 2]),
    "schedule-snapshots": lambda t: simulate_truncation_schedule(
        ONE, (1, 3), SQ, NN, 1.0, HarrisNoise(0), snapshot_times=[t]),
    "pq-snapshots": lambda t: simulate_pq_family(
        ONE, SQ, 1.0, HarrisNoise(0), [(0.5, 0.5)], snapshot_times=[t]),
}
# the start of each entry point's error, which names its argument (after
# the field, in a config error)
NAMES = {
    **dict.fromkeys(RADII, "box radius"), **dict.fromkeys(COUNTS, "replicas"),
    "estimate_F": "n_walks", "seed": "'seed': (need )?seed ",
    "resolve_threads": "^(need )?threads ",
    **dict.fromkeys(["simulate", "simulate_gillespie", "Experiment"], "horizon T"),
    "power_rate": "^a ", "exp_rate-c": "^c ", "exp_rate-theta": "^theta ",
    "fugacity_measure": "^phi ", "initial.phi": "'initial.phi': phi ",
    "exp_moment_check": "^theta ", "LocalFunction": "^bound ",
    "product_local": "^factor bound at 0 ",
    "mbar": "^(need 0 <= )?t ", "exact_F_small": "^(need 0 <= )?s ",
    "estimate_F-times": r"^(need 0 <= )?times\[1\] ",
    "snapshots": r"^(need 0 <= )?times\[0\] ",
    "schedule-snapshots": r"^(need 0 <= )?snapshot_times\[0\] ",
    "pq-snapshots": r"^(need 0 <= )?snapshot_times\[0\] ",
}
BAD = {"True": True, "2.5": 2.5, "2.0": 2.0, "nan": math.nan, "inf": math.inf,
       "-1": -1, "10**400": 10 ** 400, "0": 0}
# the names in BAD that each rule refuses: a radius, a seed and a time may
# be 0, and a horizon, a parameter or a time may be 2.5 or 2.0
WHOLE = ["True", "2.5", "2.0", "nan", "inf", "-1", "10**400"]
REAL = ["True", "nan", "inf", "-1", "10**400"]
CASES = [(name, v) for table, values in [
    (RADII, WHOLE), (COUNTS, WHOLE), (POSITIVES, REAL + ["0"]), (TIMES, REAL),
] for name in table for v in values]


def _no_run(*args, **kwargs):
    raise AssertionError("a bad number reached a run")


@pytest.mark.parametrize("name, value", CASES,
                         ids=[f"{name}-{v}" for name, v in CASES])
def test_a_bad_number_is_refused_naming_its_argument(monkeypatch, name, value):
    # the silent cases of earlier versions are rows of this table:
    # truncate(cfg, nan) returned {}, truncate(cfg, True) and
    # sample_box_config(m, True, ...) took radius 1, a schedule (True, 3) ran
    # as (1, 3), estimate_F(n_walks=True) and simulate(T=True) ran, and so
    # did fugacity_measure(rate, True), exp_moment_check(theta=True),
    # estimate_F(-1, [True], ...) and snapshots(traj, [True, 2]), each at 1
    for module in (diagnostics, hitting):
        monkeypatch.setattr(module, "replica_map", _no_run)
    monkeypatch.setattr(hitting, "_walk_batch", _no_run)
    call = {**RADII, **COUNTS, **POSITIVES, **TIMES}[name]
    with pytest.raises(ConfigError, match=NAMES[name]):
        call(BAD[value])


@pytest.mark.parametrize("name", [*POSITIVES, *TIMES])
def test_a_numpy_float_is_a_number(name):
    call = {**POSITIVES, **TIMES}[name]
    assert call(np.float64(0.5)) is not None


def test_a_numpy_integer_comes_back_as_an_int():
    three = np.int64(3)
    assert type(box_radius(three, "test")) is int
    assert type(periodic(three).n) is int and periodic(three) == periodic(3)
    cfg = Configuration(1, {0: 1, 3: 2, 4: 1})
    assert truncate(cfg, three) == truncate(cfg, 3)
    assert box_sites(three, 1) == box_sites(3, 1)
    assert {type(x) for x in box_sites(three, 1)} == {int}
    # a report carries the count as an int, so its JSON can be written
    rep = j_inequality_check(ONE, ONE, SQ, NN, 0.5, three, 3)
    assert type(rep.n_replicas) is int
    assert json.loads(json.dumps(rep.to_json()))["n_replicas"] == 3
    assert estimate_F(-1, [1.0], NN, three, 1).n_walks == 3
    assert type(cli.Experiment(dict(CFG, T=1, replicas=three)).replicas) is int
