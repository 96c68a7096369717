"""Verification-layer checks.

Statistical tests here run at reduced replica counts with fixed seeds; the
heavyweight versions live in the acceptance suite. Hand-computed generator
values are derived in the comments next to each assertion.
"""
import math

import numpy as np
import pytest
from scipy.stats import chi2, norm

from zrp import diagnostics
from zrp.configuration import Configuration
from zrp.diagnostics import (
    _chi2_two_sided_z,
    chi2_joint_two_sample,
    chi2_replicas,
    engine_agreement_check,
    forward_equation_check,
    generator_apply,
    j_discrepancy,
    j_inequality_check,
    martingale_residual,
    mass_conservation_check,
    poisson_flux_check,
    stationarity_exact,
    stationarity_statistical,
)
from zrp.engine import OPEN, periodic, simulate
from zrp.errors import ConfigError
from zrp.kernel import make_kernel, nn_kernel_1d, symmetric_nn_kernel
from zrp.localfn import capped_occupancy, occupancy_indicator
from zrp.measures import fugacity_measure
from zrp.noise import HarrisNoise
from zrp.rates import power_rate

SQ = power_rate(2.0)


def test_generator_single_particle():
    # eta = {0:1}, right-only kernel, f = min(eta(0), 10):
    # only move is 0 -> 1 at rate g(1) = 1, changing f by -1
    f = capped_occupancy(0, 10)
    val = generator_apply(f, Configuration(1, {0: 1}), SQ, nn_kernel_1d(1.0))
    assert val == pytest.approx(-1.0, abs=1e-14)


def test_generator_two_sites_hand_value():
    # eta = {0:2, 1:1}, symmetric nn, f = 1{eta(1) = 1} (currently 1):
    #   0 -> 1 at rate 4 * 0.5: eta(1) = 2, df = -1  -> -2
    #   0 -> -1 at rate 4 * 0.5: df = 0
    #   1 -> 2 at rate 1 * 0.5: eta(1) = 0, df = -1  -> -0.5
    #   1 -> 0 at rate 1 * 0.5: df = -1              -> -0.5
    f = occupancy_indicator(1, 1)
    val = generator_apply(f, Configuration(1, {0: 2, 1: 1}), SQ, nn_kernel_1d(0.5))
    assert val == pytest.approx(-3.0, abs=1e-14)


def test_generator_periodic_wrap():
    # on the 3-site ring {-1,0,1}, a right jump from 1 lands on -1
    f = occupancy_indicator(-1, 1)
    val = generator_apply(f, Configuration(1, {1: 1}), SQ, nn_kernel_1d(1.0),
                          periodic(1))
    assert val == pytest.approx(1.0, abs=1e-14)


def test_generator_empty_config_is_zero():
    f = capped_occupancy(0, 10)
    assert generator_apply(f, Configuration(1, {}), SQ, nn_kernel_1d(0.5)) == 0.0


def test_j_discrepancy_hand_values():
    def j(za, pb):
        return j_discrepancy(Configuration(1, za), Configuration(1, pb))

    assert j({0: 2, 1: 1}, {0: 2, 1: 1}) == 0
    # two extra zeta particles on the right block [0, 1]
    assert j({0: 2, 1: 1}, {0: 1}) == 2
    # psi surplus ahead cancels the excess on wider windows, not on [0, 0]
    assert j({0: 1}, {1: 3}) == 1
    # left block: excess at -2 minus partner at -1
    assert j({-2: 2}, {-1: 1, 5: 1}) == 1
    # partners across the origin do not pair up
    assert j({3: 5}, {-3: 5}) == 5
    # mixed blocks: left surplus +1, right deficit -1 on every window
    assert j({-1: 1, 2: 1}, {0: 2}) == 0
    # empty psi counts everything, empty zeta counts nothing
    assert j({-4: 1, 6: 2}, {}) == 3
    assert j({}, {0: 9}) == 0
    with pytest.raises(ConfigError):
        j_discrepancy(Configuration(2, {(0, 0): 1}), Configuration(2, {}))


def test_j_inequality_small_run():
    rep = j_inequality_check(Configuration(1, {-1: 1, 0: 2, 2: 1}),
                             Configuration(1, {0: 1, 1: 1}),
                             SQ, nn_kernel_1d(0.6), 1.0, 400, 13)
    assert rep.passed
    assert rep.statistic == 0
    assert rep.extras["violations"] == 0
    assert rep.n_replicas == 400


def test_stationarity_exact_small_tori():
    for L, d, N in ((2, 1, 2), (3, 1, 3), (2, 2, 2)):
        kern = nn_kernel_1d(0.7) if d == 1 else symmetric_nn_kernel(2)
        rep = stationarity_exact(SQ, kern, L, d, N)
        assert rep.passed, (L, d, N, rep.statistic)
        assert rep.statistic <= rep.threshold


def test_stationarity_statistical_grand_start_passes():
    rep = stationarity_statistical(SQ, nn_kernel_1d(0.5), 1.0, 5, 1.0, 2500, 7)
    assert rep.passed
    assert rep.extras["p_value"] >= 0.01


def test_stationarity_statistical_detects_point_start():
    # negative control: all mass on one site is nowhere near equilibrium
    rep = stationarity_statistical(SQ, nn_kernel_1d(0.5), 1.0, 5, 1.0, 1500, 8,
                                   start="point")
    assert not rep.passed


def test_engine_agreement_small_run():
    rep = engine_agreement_check(Configuration(1, {0: 2, 1: 1}), SQ,
                                 nn_kernel_1d(0.7), OPEN, 0.75, 1500, 11)
    assert rep.passed
    assert rep.extras["p_value"] >= rep.threshold


def _least_kept_cell(exp):
    """The one-sample chi-square's right-tail merge, written out."""
    hi = len(exp)
    while hi > 2 and exp[hi - 1:].sum() < 5.0:
        hi -= 1
    return min(list(exp[:hi - 1]) + [exp[hi - 1:].sum()])


@pytest.mark.parametrize("a,phi", [(2.0, 1.0), (2.0, 0.3), (1.0, 1.0),
                                   (1.0, 5.0), (2.0, 0.01), (3.0, 20.0)])
def test_chi2_replicas_is_the_first_count_with_every_cell_at_five(a, phi):
    pmf = fugacity_measure(power_rate(a), phi).pmf
    for start in (1, 7, 200):
        n = chi2_replicas(pmf, start)
        assert n >= start and _least_kept_cell(pmf * n) >= 5.0
        assert all(_least_kept_cell(pmf * r) < 5.0 for r in range(start, n))
    # the pinned CLI torus (a=2, phi=1) needs 12: 0.4387 * 11 < 5 <= 0.4387 * 12
    assert chi2_replicas(fugacity_measure(SQ, 1.0).pmf, 1) == 12


def test_chi2_two_sample_helper():
    rng = np.random.default_rng(0)
    a = rng.poisson(2.0, 4000)
    b = rng.poisson(2.0, 4000)
    c = rng.poisson(2.6, 4000)
    def cells(draws):
        out = {}
        for v in draws:
            out[int(v)] = out.get(int(v), 0) + 1
        return out
    stat, dof, p = chi2_joint_two_sample(cells(a), cells(b))
    assert p > 1e-4
    assert dof >= 1
    stat, dof, p = chi2_joint_two_sample(cells(a), cells(c))
    assert p < 1e-6


def test_different_dynamics_are_distinguishable():
    """Power of the comparison statistic: final-state histograms of g = k^2
    versus g = k runs from one start must split decisively."""
    eta0 = Configuration(1, {0: 2, 1: 1})
    def hist(rate, seed):
        cells = {}
        for r in range(800):
            t = simulate(eta0, rate, nn_kernel_1d(0.5), OPEN, 0.75,
                         HarrisNoise(seed, (r,)))
            key = tuple(sorted(t.final.occ.items()))
            cells[key] = cells.get(key, 0) + 1
        return cells
    _, _, p_same = chi2_joint_two_sample(hist(SQ, 50), hist(SQ, 51))
    _, _, p_diff = chi2_joint_two_sample(hist(SQ, 50), hist(power_rate(1.0), 52))
    assert p_same > 1e-3
    assert p_diff < 1e-8


def test_martingale_residual_small_run():
    rep = martingale_residual(capped_occupancy(0, 10),
                              Configuration(1, {-1: 1, 0: 2}),
                              SQ, nn_kernel_1d(0.5), OPEN, 1.0, 500, 101)
    assert rep.passed
    assert abs(rep.statistic) <= 4.0
    assert rep.extras["qv_ok"]
    assert rep.extras["var_MT"] <= rep.extras["qv_bound"] * 1.5


def test_forward_equation_small_run():
    rep = forward_equation_check(capped_occupancy(0, 10), Configuration(1, {0: 2}),
                                 SQ, nn_kernel_1d(0.5), OPEN, 1.0, 600, 23)
    assert rep.passed


def test_poisson_flux_small_run():
    rep = poisson_flux_check(SQ, 1.0, 7, 1.5, 1200, 17)
    assert rep.passed
    assert rep.extras["target_mean"] == pytest.approx(1.5)  # phi * T
    assert abs(rep.extras["z_mean"]) <= 4.0


def _no_replicas(*args, **kwargs):
    raise AssertionError("a bad argument must be rejected before any replica")


def test_flux_needs_positive_torus_radius(monkeypatch):
    monkeypatch.setattr(diagnostics, "replica_map", _no_replicas)
    with pytest.raises(ConfigError):
        poisson_flux_check(SQ, 1.0, 0, 1.0, 100, 1)


def test_stationarity_rejects_canonical_start(monkeypatch):
    # only product ("grand") and point starts exist; AC3 checks the
    # canonical measure exactly
    monkeypatch.setattr(diagnostics, "replica_map", _no_replicas)
    with pytest.raises(ConfigError, match="canonical"):
        stationarity_statistical(SQ, nn_kernel_1d(0.5), 1.0, 5, 1.0, 100, 1,
                                 start="canonical")


def test_stationarity_rejects_a_one_cell_marginal(monkeypatch):
    # phi=1e-300 certifies the support {0}: a chi-square has nothing to test
    monkeypatch.setattr(diagnostics, "replica_map", _no_replicas)
    with pytest.raises(ConfigError, match="one cell"):
        stationarity_statistical(SQ, nn_kernel_1d(0.5), 1e-300, 2, 1.0, 100, 1)


def test_dispersion_z_at_the_4se_tail():
    # a 4 SE normal band fails with two-sided probability 6.3e-5; the
    # dispersion test's quantiles at that probability map back to z = 4
    p = 2 * norm.sf(4.0)
    assert p == pytest.approx(6.334e-5, rel=1e-3)
    for q in (chi2.isf(p / 2, 99), chi2.ppf(p / 2, 99)):
        assert _chi2_two_sided_z(q, 99) == pytest.approx(4.0, rel=1e-9)
    assert _chi2_two_sided_z(99.0, 99) < 0.1
    assert _chi2_two_sided_z(math.inf, 99) == math.inf


def test_mass_conservation_equal_counts_have_finite_z(monkeypatch):
    # every replica ends with 4 at the origin; g(k) = k at phi = 3 makes the
    # marginal Poisson(3), so the exact SE is sqrt(3 / 5). A torus replica
    # returns (origin at 0, origin at T, crossings).
    monkeypatch.setattr(diagnostics, "replica_map",
                        lambda fn, n, threads, args: [(4, 4, 0)] * n)
    rep = mass_conservation_check(power_rate(1.0), nn_kernel_1d(0.5), 3.0, 5,
                                  1.0, 5, 19)
    assert rep.statistic == pytest.approx(1.0 / math.sqrt(0.6), rel=1e-9)
    assert rep.passed


def test_mass_conservation_small_run():
    rep = mass_conservation_check(SQ, nn_kernel_1d(0.5), 1.0, 5, 1.0, 400, 19)
    assert rep.passed
    assert rep.extras["torus_mean"] == pytest.approx(rep.extras["density"],
                                                     abs=4 * 0.06)


def test_mass_conservation_with_self_wrapping_kernel():
    # offset +3 folds back onto its own source on the 3-site ring
    kernel = make_kernel([(3, 0.5), (-1, 0.5)])
    rep = mass_conservation_check(power_rate(1.0), kernel, 1.0, 1, 2.0, 200, 23)
    assert rep.passed


def test_generator_self_wrap_is_no_op():
    # on the 3-site ring, +3 out of 0 lands on 0: only the -1 move counts,
    # at rate g(1) * 0.5, and it empties the origin
    f = occupancy_indicator(0, 1)
    kernel = make_kernel([(3, 0.5), (-1, 0.5)])
    val = generator_apply(f, Configuration(1, {0: 1}), SQ, kernel, periodic(1))
    assert val == pytest.approx(-0.5, abs=1e-14)


def test_report_json_shape():
    rep = j_inequality_check(Configuration(1, {0: 1}), Configuration(1, {0: 1}),
                             SQ, nn_kernel_1d(0.5), 0.5, 50, 3)
    obj = rep.to_json()
    assert obj["pass"] is True
    assert set(obj) >= {"test", "pass", "statistic", "threshold", "seed",
                       "n_replicas"}
