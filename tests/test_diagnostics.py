"""Verification-layer checks.

Statistical tests here run at reduced replica counts with fixed seeds; the
heavyweight versions live in the acceptance suite. Hand-computed generator
values are derived in the comments next to each assertion.
"""
import math

import numpy as np
import pytest
from scipy.stats import chi2, norm

from zrp import diagnostics, hitting
from zrp.configuration import Configuration, Trajectory
from zrp.diagnostics import (
    _candidate_sources,
    _chi2_sf,
    _chi2_two_sided_z,
    _generator_apply_dict,
    _j_dicts,
    chi2_joint_two_sample,
    chi2_replicas,
    engine_agreement_check,
    j_inequality_check,
    martingale_residual,
    martingale_walk,
    mass_conservation_check,
    poisson_flux_check,
    stationarity_exact,
    stationarity_statistical,
)
from zrp.engine import OPEN, killed, periodic, simulate
from zrp.errors import ConfigError
from zrp.kernel import make_kernel, nn_kernel_1d, symmetric_nn_kernel
from zrp.localfn import capped_occupancy, occupancy_indicator
from zrp.measures import fugacity_measure
from zrp.noise import HarrisNoise
from zrp.rates import power_rate
from zrp.sites import origin

SQ = power_rate(2.0)


def _lf(f, occ, kernel, policy):
    """(Lf)(occ) under SQ, summed over every site that can change f."""
    return _generator_apply_dict(f, occ, SQ, kernel, policy,
                                 _candidate_sources(f, kernel, policy))


def test_generator_single_particle():
    # eta = {0:1}, right-only kernel, f = min(eta(0), 10):
    # only move is 0 -> 1 at rate g(1) = 1, changing f by -1
    f = capped_occupancy(0, 10)
    val = _lf(f, {0: 1}, nn_kernel_1d(1.0), OPEN)
    assert val == pytest.approx(-1.0, abs=1e-14)


def test_generator_two_sites_hand_value():
    # eta = {0:2, 1:1}, symmetric nn, f = 1{eta(1) = 1} (currently 1):
    #   0 -> 1 at rate 4 * 0.5: eta(1) = 2, df = -1  -> -2
    #   0 -> -1 at rate 4 * 0.5: df = 0
    #   1 -> 2 at rate 1 * 0.5: eta(1) = 0, df = -1  -> -0.5
    #   1 -> 0 at rate 1 * 0.5: df = -1              -> -0.5
    f = occupancy_indicator(1, 1)
    val = _lf(f, {0: 2, 1: 1}, nn_kernel_1d(0.5), OPEN)
    assert val == pytest.approx(-3.0, abs=1e-14)


def test_generator_periodic_wrap():
    # on the 3-site ring {-1,0,1}, a right jump from 1 lands on -1
    f = occupancy_indicator(-1, 1)
    val = _lf(f, {1: 1}, nn_kernel_1d(1.0), periodic(1))
    assert val == pytest.approx(1.0, abs=1e-14)


def test_generator_empty_config_is_zero():
    f = capped_occupancy(0, 10)
    assert _lf(f, {}, nn_kernel_1d(0.5), OPEN) == 0.0


def test_j_discrepancy_hand_values():
    j = _j_dicts
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


def test_j_inequality_small_run():
    rep = j_inequality_check(Configuration(1, {-1: 1, 0: 2, 2: 1}),
                             Configuration(1, {0: 1, 1: 1}),
                             SQ, nn_kernel_1d(0.6), 1.0, 400, 13)
    assert rep.passed
    assert rep.statistic == 0
    assert rep.extras["violations"] == 0
    assert rep.n_replicas == 400


@pytest.mark.parametrize("psi_events, psi_final, expected", [
    ([], {-1: 1, 0: 1}, 1),
    ([(0.5, 0, 1, "jump", "psi")], {-1: 1, 1: 1}, 0),
    ([(0.6, 0, 1, "jump", "psi")], {-1: 1, 1: 1}, 1),
])
def test_j_inequality_counts_a_planted_violation(monkeypatch, psi_events,
                                                 psi_final, expected):
    # zeta's -1 -> 0 at t=0.5 raises J from 0 to 1; only a psi departure
    # from the origin at that same instant or earlier pays for it
    zeta0 = Configuration(1, {-1: 1, 1: 1})
    psi0 = Configuration(1, {-1: 1, 0: 1})
    logs = {"zeta": ([(0.5, -1, 0, "jump", "zeta")], {0: 1, 1: 1}),
            "psi": (psi_events, psi_final)}

    def hand_built(eta0, rate, kernel, policy, T, noise, tag):
        events, final = logs[tag]
        return Trajectory(1, eta0, events, Configuration(1, final), T)

    monkeypatch.setattr(diagnostics, "simulate", hand_built)
    rep = j_inequality_check(zeta0, psi0, SQ, nn_kernel_1d(0.5), 1.0, 1, 0)
    assert rep.extras["violations"] == expected
    assert rep.passed == (expected == 0)


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


def _cells_at_five(exp):
    """The sparse-cell merge, written out as a scan: keep the cells >= 5;
    while the pool is short and two cells are kept, pool the least kept
    (the last of equals). True if every cell left expects >= 5."""
    kept = [k for k in range(len(exp)) if exp[k] >= 5.0]
    pooled = [k for k in range(len(exp)) if exp[k] < 5.0]
    while pooled and sum(exp[k] for k in pooled) < 5.0 and len(kept) >= 2:
        least = min(exp[k] for k in kept)
        last = [k for k in kept if exp[k] == least][-1]
        kept.remove(last)
        pooled.append(last)
    return bool(kept) and (not pooled or sum(exp[k] for k in pooled) >= 5.0)


@pytest.mark.parametrize("a,phi", [(2.0, 1.0), (2.0, 0.3), (1.0, 1.0),
                                   (1.0, 5.0), (2.0, 0.01), (3.0, 20.0),
                                   (1.0, 50.0)])
def test_chi2_replicas_is_the_first_count_with_every_cell_at_five(a, phi):
    pmf = fugacity_measure(power_rate(a), phi).pmf
    for start in (1, 7, 200):
        n = chi2_replicas(pmf, start)
        assert n >= start and _cells_at_five(pmf * n)
        assert not any(_cells_at_five(pmf * r) for r in range(start, n))
    # the pinned CLI torus (a=2, phi=1) needs 12: 0.4387 * 11 < 5 <= 0.4387 * 12
    assert chi2_replicas(fugacity_measure(SQ, 1.0).pmf, 1) == 12
    # g(k) = k is Poisson(phi): at phi=50 the cells near 0 and far out pool,
    # and the largest cell, 0.0563 of the mass, reaches 5 at 89
    assert chi2_replicas(fugacity_measure(power_rate(1.0), 5.0).pmf, 1) == 29
    assert chi2_replicas(fugacity_measure(power_rate(1.0), 50.0).pmf, 1) == 89


def test_sparse_merge_pools_both_tails_and_the_last_least_cell():
    w = np.array([1.0, 6.0, 20.0, 6.0, 1.0])
    # the pool {0, 4} holds 2 < 5, so the later of the two 6s joins it
    assert diagnostics._sparse_merge(w, 5.0).tolist() == [False, True, True,
                                                          False, False]
    # a pool that reaches the floor, or an empty one, takes nothing more
    assert diagnostics._sparse_merge(w, 1.0).all()
    assert diagnostics._sparse_merge(np.array([3.0, 9.0, 3.0]), 5.0).tolist() \
        == [False, True, False]


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


@pytest.mark.parametrize("check", [
    lambda: poisson_flux_check(SQ, 1.0, 7, 1.0, 1, 1),
    lambda: martingale_residual(capped_occupancy(0, 10), Configuration(1, {0: 2}),
                                SQ, nn_kernel_1d(0.5), OPEN, 1.0, 1, 1),
], ids=["flux", "martingale"])
def test_one_replica_has_no_sample_variance(monkeypatch, check):
    monkeypatch.setattr(diagnostics, "replica_map", _no_replicas)
    with pytest.raises(ConfigError, match="replicas >= 2"):
        check()


@pytest.mark.parametrize("site, kernel", [
    ((0, 0), nn_kernel_1d(0.5)),
    (0, symmetric_nn_kernel(2)),
], ids=["pair-in-d1", "int-in-d2"])
def test_martingale_f_must_live_in_the_kernel_dimension(monkeypatch, site,
                                                        kernel):
    monkeypatch.setattr(diagnostics, "replica_map", _no_replicas)
    f = capped_occupancy(site, 10)
    with pytest.raises(ConfigError, match=f"d={kernel.d} sites"):
        martingale_walk(f, SQ, kernel, OPEN, 1.0)
    eta0 = Configuration(kernel.d, {origin(kernel.d): 1})
    with pytest.raises(ConfigError, match=f"d={kernel.d} sites"):
        martingale_residual(f, eta0, SQ, kernel, OPEN, 1.0, 10, 1)


@pytest.mark.parametrize("z, theta, message", [
    ((0,), 0.5, "d=1 sites"),
    (0, math.nan, "theta"),
    (0, math.inf, "theta"),
    (0, 0.0, "theta"),
    (0, -0.5, "theta"),
])
def test_moment_check_rejects_a_bad_site_or_theta_before_any_replica(
        monkeypatch, z, theta, message):
    monkeypatch.setattr(hitting, "replica_map", _no_replicas)
    with pytest.raises(ConfigError, match=message):
        hitting.exp_moment_check(Configuration(1, {-1: 1, 0: 1, 1: 1}), SQ,
                                 nn_kernel_1d(0.5), z, theta, 1.0, 2000, 1)


def test_estimate_F_needs_a_walk(monkeypatch):
    monkeypatch.setattr(hitting, "_walk_batch", _no_replicas)
    with pytest.raises(ConfigError, match="n_walks"):
        hitting.estimate_F(-1, [1.0], nn_kernel_1d(1.0), 0, 1)


@pytest.mark.parametrize("check", [
    lambda: j_inequality_check(Configuration(1, {0: 1}), Configuration(1, {0: 1}),
                               SQ, nn_kernel_1d(0.5), 1.0, 0, 1),
    lambda: engine_agreement_check(Configuration(1, {0: 1}), SQ, nn_kernel_1d(0.5),
                                   OPEN, 1.0, 0, 1),
    lambda: hitting.exp_moment_check(Configuration(1, {0: 1}), SQ, nn_kernel_1d(0.5),
                                     0, 0.5, 1.0, 0, 1),
    lambda: mass_conservation_check(SQ, nn_kernel_1d(0.5), 1.0, 5, 1.0, 0, 1),
], ids=["j-inequality", "engine-agreement", "exp-moment", "mass"])
def test_no_replicas_is_rejected(monkeypatch, check):
    monkeypatch.setattr(diagnostics, "replica_map", _no_replicas)
    monkeypatch.setattr(hitting, "replica_map", _no_replicas)
    with pytest.raises(ConfigError, match="replicas >= 1"):
        check()


@pytest.mark.parametrize("times", [[math.nan], [math.inf], [0.5, math.inf]])
def test_estimate_F_needs_finite_times(monkeypatch, times):
    # an infinite horizon would walk forever
    monkeypatch.setattr(hitting, "_walk_batch", _no_replicas)
    with pytest.raises(ConfigError, match=r"^need 0 <= times\[\d\] < inf"):
        hitting.estimate_F(-1, times, nn_kernel_1d(0.0), 10, 1)


@pytest.mark.parametrize("eta0, policy, T, replicas", [
    # 2 replicas give 4 window counts, all pooled under _MIN_POOLED
    (Configuration(1, {-1: 1, 0: 2, 1: 1}), OPEN, 1.0, 2),
    # every particle leaves the one-site box: every window ends empty
    (Configuration(1, {0: 1}), killed(0), 20.0, 200),
], ids=["all-pooled", "one-outcome"])
def test_engine_agreement_rejects_a_one_cell_chi_square(eta0, policy, T, replicas):
    with pytest.raises(ConfigError, match="one cell"):
        engine_agreement_check(eta0, SQ, nn_kernel_1d(0.7), policy, T,
                               replicas, 20260818)


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


def test_stationarity_rejects_a_sparse_chi_square(monkeypatch):
    # at 11 replicas the largest cell of the phi=1 marginal expects 4.8
    monkeypatch.setattr(diagnostics, "replica_map", _no_replicas)
    with pytest.raises(ConfigError, match="replicas >= 12"):
        stationarity_statistical(SQ, nn_kernel_1d(0.5), 1.0, 2, 1.0, 11, 1)


def test_dispersion_z_at_the_4se_tail():
    # a 4 SE normal band fails with two-sided probability 6.3e-5; the
    # dispersion test's quantiles at that probability map back to z = 4
    p = 2 * norm.sf(4.0)
    assert p == pytest.approx(6.334e-5, rel=1e-3)
    for q in (chi2.isf(p / 2, 99), chi2.ppf(p / 2, 99)):
        assert _chi2_two_sided_z(q, 99) == pytest.approx(4.0, rel=1e-9)
    assert _chi2_two_sided_z(99.0, 99) < 0.1
    assert _chi2_two_sided_z(math.inf, 99) == math.inf


def _same_bits(a, b):
    return (math.isnan(a) and math.isnan(b)) or (
        a == b and math.copysign(1.0, a) == math.copysign(1.0, b))


# the statistics a chi-square can produce: none negative, inf and nan included
CHI2_STATS = (0.0, 1e-300, 1e-12, 1e-3, 0.5, 1.0, 2.0, 3.5, 7.0, 10.0, 30.0,
              99.0, 150.0, 400.0, 1e3, 1e4, math.inf, math.nan)


def test_chi2_kernels_equal_scipy_stats_bit_for_bit():
    # the p-values and the dispersion z come from scipy.special; scipy.stats
    # is the reference, at every dof the checks can reach up to 200 and at
    # statistics around each dof's median too
    for dof in range(1, 201):
        median = float(chi2.median(dof))
        for stat in CHI2_STATS + (median, math.nextafter(median, 0.0),
                                  max(0.0, dof - math.sqrt(2 * dof)), float(dof)):
            assert _same_bits(_chi2_sf(stat, dof), float(chi2.sf(stat, dof))), (dof, stat)
            ref = float(norm.isf(min(chi2.cdf(stat, dof), chi2.sf(stat, dof))))
            assert _same_bits(_chi2_two_sided_z(stat, dof), ref), (dof, stat)


def test_chi2_at_zero_dof_is_nan():
    # scipy.stats answers nan at dof = 0, where chdtrc gives 0.0 and the z
    # inf; the kernels keep nan, so a one-cell test can never read as a pass
    for stat in CHI2_STATS:
        assert math.isnan(chi2.sf(stat, 0))
        assert math.isnan(_chi2_sf(stat, 0))
        assert math.isnan(_chi2_two_sided_z(stat, 0))


def test_mass_conservation_equal_counts_have_finite_z(monkeypatch):
    # every replica ends with 4 at the origin; g(k) = k at phi = 3 makes the
    # marginal Poisson(3), so the exact SE is sqrt(3 / 5). A torus replica
    # returns (origin at 0, origin at T, crossings).
    monkeypatch.setattr(diagnostics, "replica_map",
                        lambda fn, n, threads: [(4, 4, 0)] * n)
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
    val = _lf(f, {0: 1}, kernel, periodic(1))
    assert val == pytest.approx(-0.5, abs=1e-14)


def test_report_json_shape():
    rep = j_inequality_check(Configuration(1, {0: 1}), Configuration(1, {0: 1}),
                             SQ, nn_kernel_1d(0.5), 0.5, 50, 3)
    obj = rep.to_json()
    assert obj["pass"] is True
    assert set(obj) >= {"test", "pass", "statistic", "threshold", "seed",
                       "n_replicas"}
