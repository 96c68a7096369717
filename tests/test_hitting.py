"""First-passage brackets and the worst-case hit-count bound.

The totally asymmetric walk gives a closed form to test against: with all
jumps to +1 at rate 1, the time to first reach site -1... never happens, and
site +1 is reached at the first jump, so F_{-1 -> 0}(t) viewed from the target
is 1 - e^{-t}. The tests below phrase that as: starting at -1, hitting 0.
"""
import math

import numpy as np
import pytest

from zrp.configuration import Configuration
from zrp.errors import ConfigError
from zrp.hitting import (
    calibrate_doob_constant,
    estimate_F,
    exact_F_curve,
    exact_F_small,
    exp_moment_check,
    mbar,
)
from zrp.kernel import nn_kernel_1d, symmetric_nn_kernel
from zrp.rates import exp_rate, power_rate


def test_exact_bracket_tasep_closed_form():
    for t in (0.25, 0.5, 1.0, 2.0, 4.0):
        lo, hi = exact_F_small(-1, t, nn_kernel_1d(1.0), tol=1e-14)
        truth = 1.0 - math.exp(-t)
        assert lo <= truth <= hi
        assert hi - lo < 1e-10


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


def test_exact_curve_matches_pointwise():
    times = [0.5, 1.5]
    curve = exact_F_curve(-1, times, nn_kernel_1d(0.7))
    for i, t in enumerate(times):
        lo, hi = exact_F_small(-1, t, nn_kernel_1d(0.7))
        assert curve.lower[i] == pytest.approx(lo)
        assert curve.upper[i] == pytest.approx(hi)
    assert curve.method == "uniformized-bracket"


def test_estimate_F_covers_truth_and_is_deterministic():
    times = [0.5, 1.0]
    c1 = estimate_F(-1, times, nn_kernel_1d(1.0), 20_000, 5)
    c2 = estimate_F(-1, times, nn_kernel_1d(1.0), 20_000, 5)
    assert np.array_equal(c1.lower, c2.lower)
    for i, t in enumerate(times):
        truth = 1.0 - math.exp(-t)
        assert c1.lower[i] <= truth <= c1.upper[i]
        assert c1.upper[i] - c1.lower[i] < 0.05
    assert c1.method == "mc-wilson"


def test_estimate_F_d2_smoke():
    c = estimate_F((1, 0), [1.0], symmetric_nn_kernel(2), 4000, 9)
    assert 0.0 < c.lower[0] < c.upper[0] < 1.0


def test_curve_csv_is_plain_numbers():
    c = estimate_F(-1, [0.5], nn_kernel_1d(1.0), 500, 5)
    assert c.times.tolist() == [0.5]
    assert 0.0 <= c.lower[0] <= c.upper[0] <= 1.0


def test_mbar_counts_particles_at_target():
    rep = mbar(Configuration(1, {0: 2}), 0, 1.0, power_rate(2.0),
               nn_kernel_1d(0.5), tail_method="none")
    assert rep.lower == rep.upper == 2.0
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


def test_mbar_tail_method_none_requires_full_cover():
    eta = Configuration(1, {0: 1, 50: 1})
    with pytest.raises(ConfigError):
        mbar(eta, 0, 1.0, power_rate(2.0), nn_kernel_1d(0.5), K=1,
             tail_method="none")
    with pytest.raises(ConfigError):
        mbar(eta, 0, 1.0, power_rate(2.0), nn_kernel_1d(0.5),
             tail_method="fancy")


def test_mbar_degrades_on_unrepresentable_rates():
    # clocks beyond float range surrender to the trivial bracket, flagged
    rep = mbar(Configuration(1, {0: 3, 2: 1}), 5, 1.0, exp_rate(1.0, 350.0),
               nn_kernel_1d(0.5))
    assert rep.lower == 0.0
    assert rep.upper == 4.0
    assert "rate-overflow-term" in rep.flags
    assert "time-beyond-exact-bracket" in rep.flags


def test_mbar_doob_tail_flagged_as_empirical():
    rep = mbar(Configuration(1, {2: 1, 35: 1}), 0, 1.0, power_rate(2.0),
               nn_kernel_1d(0.5), tail_method="doob", seed=3)
    assert "doob-constant-empirical" in rep.flags
    assert rep.tail >= 0.0
    obj = rep.to_json()
    assert obj["tail_method"] == "doob"
    assert obj["upper"] >= obj["lower"]


def test_calibrate_doob_constant_deterministic():
    a = calibrate_doob_constant(nn_kernel_1d(0.5), 4.0, 7, n_walks=1500)
    b = calibrate_doob_constant(nn_kernel_1d(0.5), 4.0, 7, n_walks=1500)
    assert a == b
    assert a > 0


def test_exp_moment_small_run():
    rep = exp_moment_check(Configuration(1, {-1: 1, 0: 1, 1: 1}), power_rate(2.0),
                           nn_kernel_1d(0.5), 0, 0.25, 1.0, 800, 31)
    assert rep.passed
    assert rep.statistic <= 0.0   # log-mgf upper CI sits below the bound
    assert rep.extras["mean_within_band"]
    assert "mbar_upper" in rep.extras
