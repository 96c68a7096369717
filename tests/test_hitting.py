"""First-passage brackets and the worst-case hit-count bound.

The totally asymmetric walk gives a closed form to test against: with all
jumps to +1 at rate 1, the time to first reach site -1... never happens, and
site +1 is reached at the first jump, so F_{-1 -> 0}(t) viewed from the target
is 1 - e^{-t}. The tests below phrase that as: starting at -1, hitting 0.
"""
import math

import numpy as np
import pytest
from scipy.special import gammainc
from scipy.stats import poisson

from zrp import hitting
from zrp.configuration import Configuration
from zrp.errors import ConfigError
from zrp.hitting import (
    _exact_radius,
    _poisson_weights,
    estimate_F,
    exact_F_small,
    exp_moment_check,
    mbar,
)
from zrp.kernel import make_kernel, nn_kernel_1d, symmetric_nn_kernel
from zrp.rates import exp_rate, power_rate
from zrp.sites import box_sites, max_norm, origin, site_add


def test_exact_bracket_tasep_closed_form():
    for t in (0.25, 0.5, 1.0, 2.0, 4.0):
        lo, hi = exact_F_small(-1, t, nn_kernel_1d(1.0), tol=1e-14)
        truth = 1.0 - math.exp(-t)
        assert lo <= truth <= hi
        assert hi - lo < 1e-10


def test_poisson_weights_equal_scipy_stats_bit_for_bit():
    # the exact bracket's jump-count law, against scipy.stats' poisson.isf
    # and poisson.pmf on means up to _MAX_EXACT_TIME, integers included
    rng = np.random.default_rng(20)
    grid = np.concatenate([np.arange(1, 601), np.arange(1, 1200) / 2,
                           np.geomspace(1e-9, 600.0, 300),
                           rng.uniform(0.0, 600.0, 300)])
    for tol in (1e-12, 1e-14):
        for s in grid:
            w = _poisson_weights(s, tol)
            n = int(poisson.isf(tol / 2.0, s)) + 1
            assert len(w) == n + 1, (s, tol)
            assert w.tobytes() == poisson.pmf(np.arange(n + 1), s).tobytes(), (s, tol)
    assert _poisson_weights(0.0, 1e-12).tolist() == [1.0]


def test_exact_bracket_two_steps():
    # two right jumps needed: F(t) = 1 - e^-t - t e^-t (Gamma(2) cdf)
    for t in (0.5, 1.0, 3.0):
        lo, hi = exact_F_small(-2, t, nn_kernel_1d(1.0), tol=1e-14)
        truth = 1.0 - math.exp(-t) * (1.0 + t)
        # the reference value itself rounds, so containment gets an ulp cushion
        assert lo - 1e-12 <= truth <= hi + 1e-12
        assert hi - lo < 1e-10


def test_exact_bracket_origin_is_one():
    assert exact_F_small(0, 3.0, nn_kernel_1d(0.5)) == (1.0, 1.0)
    assert exact_F_small((0, 0), 1.0, symmetric_nn_kernel(2)) == (1.0, 1.0)


def test_exact_bracket_unreachable_site():
    # right-only walk never reaches a negative offset target
    lo, hi = exact_F_small(3, 5.0, nn_kernel_1d(1.0), tol=1e-12)
    assert hi < 1e-9


def test_exact_bracket_monotone_in_time():
    prev = 0.0
    for t in (0.5, 1.0, 2.0, 4.0):
        lo, hi = exact_F_small(2, t, nn_kernel_1d(0.5))
        assert lo >= prev - 1e-12
        assert 0.0 <= lo <= hi <= 1.0
        prev = lo


def test_exact_bracket_rejects_huge_time():
    with pytest.raises(ConfigError):
        exact_F_small(-1, 1e3, nn_kernel_1d(0.5))


@pytest.mark.parametrize("tol", [0.0, -1e-3, 1.0, 2.0, math.nan])
def test_exact_bracket_rejects_a_tolerance_outside_0_1(tol):
    with pytest.raises(ConfigError, match="tolerance"):
        exact_F_small(1, 1.0, nn_kernel_1d(0.5), tol=tol)


@pytest.mark.parametrize("z, kernel", [((1, 0), nn_kernel_1d(0.5)),
                                       (1, symmetric_nn_kernel(2))])
def test_exact_bracket_rejects_a_start_of_the_wrong_dimension(z, kernel):
    with pytest.raises(ConfigError):
        exact_F_small(z, 1.0, kernel)


def _csr_bracket(z, s, kernel, tol):
    """The exact bracket with its jump step as the sparse product P.T @ v,
    P the jump matrix on the box minus the origin: the reference for the
    scatter step of exact_F_small."""
    from scipy import sparse
    o = origin(kernel.d)
    radius = max(_exact_radius(kernel.d), max_norm(z) + 2)
    idx = {x: i for i, x in enumerate(x for x in box_sites(radius, kernel.d) if x != o)}
    rows, cols, data = [], [], []
    hvec = np.zeros(len(idx))
    for x, i in idx.items():
        for off, p in kernel.support():
            y = site_add(x, off)
            if y == o:
                hvec[i] += p
            elif y in idx:
                rows.append(i)
                cols.append(idx[y])
                data.append(p)
    PT = sparse.csr_matrix((data, (rows, cols)), shape=(len(idx), len(idx))).T
    w = _poisson_weights(s, tol)
    v = np.zeros(len(idx))
    v[idx[z]] = 1.0
    hit_cum = lower = survive_mass = 0.0
    for k in range(len(w)):
        lower += w[k] * hit_cum
        survive_mass += w[k] * float(v.sum())
        if k < len(w) - 1:
            hit_cum += float(v @ hvec)
            v = PT @ v
    return lower, min(1.0, max(1.0 - survive_mass, lower))


_RANGE_3 = make_kernel([(-3, 0.1), (-1, 0.25), (1, 0.3), (2, 0.2), (3, 0.15)])
_NON_NN_2D = make_kernel([((-1, 0), 0.2), ((0, -2), 0.25), ((1, 1), 0.3),
                          ((2, -1), 0.25)])


@pytest.mark.parametrize("kernel, starts", [
    (nn_kernel_1d(0.5), (1, -2, 17, -28, 41)),
    (nn_kernel_1d(0.7), (1, -2, 17, -28, 41)),
    (_RANGE_3, (1, -2, 17, -28, 41)),
    (symmetric_nn_kernel(2), ((1, 0), (-3, 2), (6, -6), (0, 9))),
    (_NON_NN_2D, ((1, 0), (-3, 2), (6, -6), (0, 9))),
])
def test_exact_bracket_equals_the_sparse_product_bit_for_bit(kernel, starts):
    # starts out to the default box's edge and past it, where the box grows
    for z in starts:
        for s, tol in ((0.5, 1e-12), (3.0, 1e-14), (7.25, 1e-6), (12.0, 1e-12)):
            got = [x.hex() for x in exact_F_small(z, s, kernel, tol)]
            assert got == [x.hex() for x in _csr_bracket(z, s, kernel, tol)], (z, s, tol)


@pytest.mark.parametrize("z, kernel", [(10**12, nn_kernel_1d(0.5)),
                                       (12_499, nn_kernel_1d(0.5)),
                                       ((77, 0), symmetric_nn_kernel(2))])
def test_a_start_past_the_state_budget_is_refused_before_any_site_list(
        monkeypatch, z, kernel):
    # a site list of a far start's box would exhaust memory before the
    # budget check could refuse it
    def no_box(*args):
        raise AssertionError("built the box's sites before checking the budget")

    monkeypatch.setattr(hitting, "box_sites", no_box)
    with pytest.raises(ConfigError, match="exceeds the exact-bracket budget"):
        exact_F_small(z, 1.0, kernel)


def test_a_start_at_the_state_budget_gets_a_bracket():
    # (2 * 78 + 1)**2 - 1 = 24_648 states, the widest d=2 box in budget; the
    # upper end is the chance of leaving the box in 3 jumps
    lo, hi = exact_F_small((76, 0), 0.25, symmetric_nn_kernel(2))
    assert lo == 0.0 < hi < 1e-4


def test_estimate_F_rejects_a_start_of_the_wrong_dimension():
    # a d=2 start used to broadcast against the d=1 offsets
    with pytest.raises(ConfigError):
        estimate_F((1, 0), [1.0], nn_kernel_1d(0.5), 10, 1)


def test_estimate_F_covers_truth_and_is_deterministic():
    times = [0.5, 1.0]
    c1 = estimate_F(-1, times, nn_kernel_1d(1.0), 20_000, 5)
    c2 = estimate_F(-1, times, nn_kernel_1d(1.0), 20_000, 5)
    assert np.array_equal(c1.lower, c2.lower)
    for i, t in enumerate(times):
        truth = 1.0 - math.exp(-t)
        assert c1.lower[i] <= truth <= c1.upper[i]
        assert c1.upper[i] - c1.lower[i] < 0.05


def test_estimate_F_d2_smoke():
    c = estimate_F((1, 0), [1.0], symmetric_nn_kernel(2), 4000, 9)
    assert 0.0 < c.lower[0] < c.upper[0] < 1.0


def test_curve_csv_is_plain_numbers():
    c = estimate_F(-1, [0.5], nn_kernel_1d(1.0), 500, 5)
    assert c.times.tolist() == [0.5]
    assert 0.0 <= c.lower[0] <= c.upper[0] <= 1.0


def test_mbar_counts_particles_at_target():
    rep = mbar(Configuration(1, {0: 2}), 0, 1.0, power_rate(2.0),
               nn_kernel_1d(0.5), K=2)
    assert rep.lower == rep.upper == 2.0
    assert rep.tail_method == "none"
    assert rep.flags == ()


def test_mbar_brackets_and_tail():
    eta = Configuration(1, {0: 2, 3: 1, -40: 1})
    rep = mbar(eta, 0, 1.0, power_rate(2.0), nn_kernel_1d(0.5))
    assert rep.n_particles == 4
    assert rep.K == 3                  # the -40 particle is tail material
    assert 2.0 <= rep.lower <= rep.upper <= 4.0
    assert rep.tail > 0.0
    assert rep.upper - rep.lower < 1e-6
    # more time can only mean more expected hits
    rep2 = mbar(eta, 0, 2.0, power_rate(2.0), nn_kernel_1d(0.5))
    assert rep2.lower >= rep.lower - 1e-12


def test_mbar_degrades_on_unrepresentable_rates():
    # clocks beyond float range surrender to the trivial bracket, flagged
    rep = mbar(Configuration(1, {0: 3, 2: 1}), 5, 1.0, exp_rate(1.0, 350.0),
               nn_kernel_1d(0.5))
    assert rep.lower == 0.0
    assert rep.upper == 4.0
    assert "rate-overflow-term" in rep.flags
    assert "time-beyond-exact-bracket" in rep.flags


def test_mbar_tail_counts_a_particle_at_z_in_full():
    # K=0 leaves the particle at z to the tail, where F = 1 at any t; the
    # second particle is 3 steps out, on the clock h(2) t
    rate = power_rate(2.0)
    rep = mbar(Configuration(1, {0: 1, 3: 1}), 0, 0.1, rate,
               nn_kernel_1d(0.5), K=0)
    assert rep.tail == pytest.approx(1.0 + float(gammainc(3, rate.h(2) * 0.1)))
    assert rep.upper >= 1.0


def test_mbar_rejects_negative_k():
    with pytest.raises(ConfigError, match="K must be >= 0, got -1"):
        mbar(Configuration(1, {0: 1, 3: 1}), 0, 1.0, power_rate(2),
             nn_kernel_1d(0.5), K=-1)
    # not a whole count either: nan and inf used to escape as ValueError and
    # OverflowError, 2.5 and True to run as K=2 and K=1
    for K in (math.nan, math.inf, 2.5, True):
        with pytest.raises(ConfigError, match=r"^K .* is not an integer$"):
            mbar(Configuration(1, {0: 1, 3: 1}), 0, 1.0, power_rate(2),
                 nn_kernel_1d(0.5), K=K)


def test_mbar_rejects_a_time_that_is_not_finite_and_non_negative():
    for t, match in ((-1, r"^need 0 <= t < inf, got t = -1$"),
                     (math.nan, r"^need 0 <= t < inf, got t = nan$"),
                     (math.inf, r"^need 0 <= t < inf, got t = inf$"),
                     (True, r"^t True is not a number$")):
        with pytest.raises(ConfigError, match=match):
            mbar(Configuration(1, {0: 1, 3: 1}), 0, t, power_rate(2),
                 nn_kernel_1d(0.5))
    assert mbar(Configuration(1, {0: 1, 3: 1}), 0, 0, power_rate(2),
                nn_kernel_1d(0.5)).t == 0.0


def test_exp_moment_small_run():
    rep = exp_moment_check(Configuration(1, {-1: 1, 0: 1, 1: 1}), power_rate(2.0),
                           nn_kernel_1d(0.5), 0, 0.25, 1.0, 800, 31)
    assert rep.passed
    assert rep.statistic <= 0.0   # log-mgf upper CI sits below the bound
    assert rep.extras["mean_within_band"]
    assert "mbar_upper" in rep.extras
