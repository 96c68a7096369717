"""One rule for each kind of number a caller passes: a box radius is a whole
number >= 0 (sites.box_radius), a replica or walk count a whole number >= its
least (errors.json_count), and a horizon a positive finite number
(engine.horizon). Each is a JSON-style number: True, nan, inf and integers
past float range are refused, and so is 2.0 where a whole number is asked."""
import json
import math

import numpy as np
import pytest

from zrp import cli, diagnostics, hitting
from zrp.configuration import Configuration, truncate
from zrp.diagnostics import (engine_agreement_check, j_inequality_check,
                             martingale_residual, mass_conservation_check,
                             poisson_flux_check, stationarity_statistical)
from zrp.engine import (OPEN, killed, periodic, simulate, simulate_gillespie,
                        simulate_truncation_schedule)
from zrp.errors import ConfigError
from zrp.hitting import estimate_F, exp_moment_check
from zrp.kernel import nn_kernel_1d
from zrp.localfn import capped_occupancy
from zrp.measures import fugacity_measure, sample_box_config
from zrp.noise import HarrisNoise
from zrp.rates import power_rate
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
}
HORIZONS = {
    "simulate": lambda T: simulate(ONE, SQ, NN, OPEN, T, HarrisNoise(0)),
    "simulate_gillespie": lambda T: simulate_gillespie(
        ONE, SQ, NN, OPEN, T, np.random.default_rng(0)),
    "Experiment": lambda T: cli.Experiment(dict(CFG, T=T)),
}
BAD = {"True": True, "2.5": 2.5, "2.0": 2.0, "nan": math.nan, "inf": math.inf,
       "-1": -1, "10**400": 10 ** 400}
# (what the error names, entry point, name of the value in BAD): 2.0 and
# 2.5 are horizons, so they stay out of that rule
CASES = [(names, name, v) for names, table, values in [
    ("box radius", RADII, BAD),
    ("replicas|n_walks", COUNTS, BAD),
    ("horizon T", HORIZONS, {k: v for k, v in BAD.items() if k not in ("2.5", "2.0")}),
] for name in table for v in values]


def _no_run(*args, **kwargs):
    raise AssertionError("a bad number reached a run")


@pytest.mark.parametrize("names, name, value", CASES,
                         ids=[f"{name}-{v}" for _, name, v in CASES])
def test_a_bad_number_is_refused_naming_its_argument(monkeypatch, names, name, value):
    # the silent cases of earlier versions are rows of this table:
    # truncate(cfg, nan) returned {}, truncate(cfg, True) and
    # sample_box_config(m, True, ...) took radius 1, a schedule (True, 3) ran
    # as (1, 3), and estimate_F(n_walks=True) and simulate(T=True) ran
    for module in (diagnostics, hitting):
        monkeypatch.setattr(module, "replica_map", _no_run)
    monkeypatch.setattr(hitting, "_walk_batch", _no_run)
    call = {**RADII, **COUNTS, **HORIZONS}[name]
    with pytest.raises(ConfigError, match=names):
        call(BAD[value])


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
