import json
import math

import pytest

from zrp.errors import ConfigError, RateRangeError
from zrp.kernel import nn_kernel_1d, symmetric_nn_kernel
from zrp.rates import (
    check_corollary_conditions,
    check_exponential_bound,
    custom_rate,
    exp_rate,
    power_rate,
    rate_from_json,
    rate_to_json,
    table_rate,
)


def test_g_zero_is_zero_everywhere():
    for r in (power_rate(2.0), exp_rate(1.0, 0.4),
              table_rate([0, 1, 4, 9]), custom_rate(lambda k: float(k))):
        assert r.g(0) == 0.0


def test_power_values():
    r = power_rate(2.0)
    assert r.g(3) == 9.0
    assert r.g(10) == 100.0
    assert power_rate(1.0).g(7) == 7.0


def test_exp_family_applies_above_zero_only():
    r = exp_rate(2.0, 0.5)
    assert r.g(0) == 0.0
    assert r.g(1) == pytest.approx(2.0 * math.exp(0.5))
    assert r.g(4) == pytest.approx(2.0 * math.exp(2.0))


def test_table_lookup_and_domain():
    r = table_rate([0, 2, 2.5, 10])
    assert r.g(2) == 2.5
    assert r.max_k() == 3
    with pytest.raises(RateRangeError):
        r.g(4)


def test_table_validation_names_offending_index():
    with pytest.raises(ConfigError, match="k=2"):
        table_rate([0, 3, 1])
    with pytest.raises(ConfigError):
        table_rate([1, 2])   # g(0) != 0
    with pytest.raises(ConfigError):
        table_rate([0])      # nothing above zero


def test_negative_occupancy_rejected():
    with pytest.raises(ConfigError):
        power_rate(2.0).g(-1)


def test_rate_overflow_is_a_typed_error():
    r = exp_rate(1.0, 2.0)
    with pytest.raises(RateRangeError):
        r.g(400)
    # memo stays intact below the failure point
    assert r.g(3) == pytest.approx(math.exp(6.0))


def test_custom_rate_monotonicity_enforced_lazily():
    r = custom_rate(lambda k: float(k % 5), label="sawtooth")
    with pytest.raises(ConfigError):
        r.g(6)


def test_increment_bound_h():
    # table [0, 2, 2.5, 10]: increments 2, 0.5, 7.5 -> running max 7.5
    assert table_rate([0, 2, 2.5, 10]).h(3) == 7.5
    # squares: increments 1, 3, 5, 7 -> h(4) = 7
    assert power_rate(2.0).h(4) == 7.0
    assert power_rate(2.0).h(0) == 0.0
    # concave growth: largest increment is the first one
    assert custom_rate(lambda k: math.sqrt(k)).h(9) == 1.0


def test_h_is_nondecreasing_in_n():
    r = exp_rate(1.0, 0.3)
    vals = [r.h(n) for n in range(1, 30)]
    assert all(b >= a for a, b in zip(vals, vals[1:]))


def test_exponential_bound_check():
    # g(k) = e^{2k} - 1 sits below e^{2k} but not below e^{k}
    r = custom_rate(lambda k: math.exp(2 * k) - 1 if k else 0.0)
    assert check_exponential_bound(r, c=1.0, theta=2.0, n_max=50)
    assert not check_exponential_bound(r, c=1.0, theta=1.0, n_max=50)
    with pytest.raises(ConfigError):
        check_exponential_bound(r, c=0.0, theta=1.0, n_max=10)


def test_json_roundtrip():
    for r in (power_rate(1.5), exp_rate(2.0, 0.3), table_rate([0, 1, 3, 3, 8])):
        r2 = rate_from_json(rate_to_json(r))
        assert [r2.g(k) for k in range(4)] == [r.g(k) for k in range(4)]


def test_json_rejects_custom_and_garbage():
    with pytest.raises(ConfigError):
        rate_to_json(custom_rate(lambda k: float(k)))
    with pytest.raises(ConfigError):
        rate_from_json({"a": 2.0})
    with pytest.raises(ConfigError):
        rate_from_json({"family": "spline"})
    with pytest.raises(ConfigError):
        rate_from_json({"family": "power"})


@pytest.mark.parametrize("obj", [
    {"family": "power", "a": "2"},
    {"family": "power", "a": True},
    {"family": "power", "a": float("inf")},
    {"family": "exp", "c": 1.0, "theta": "0.5"},
    {"family": "exp", "c": float("nan"), "theta": 0.5},
    {"family": "exp", "c": 1.0, "theta": float("inf")},
    {"family": "table", "values": "0123"},
    {"family": "table", "values": [0, True, 2]},
])
def test_json_takes_numbers_as_they_are(obj):
    with pytest.raises(ConfigError):
        rate_from_json(obj)


def test_growth_conditions_quadratic_depends_on_dimension():
    # h(n) ~ 2n for g = n^2: slope ~ 1 clears the d=1 threshold 2/1 but not
    # the d=2 threshold 2/2; h(n)/n^(1/d) never decreases in either case
    rep1 = check_corollary_conditions(power_rate(2.0), nn_kernel_1d(0.5), n_max=2000)
    assert rep1.condition_a
    assert not rep1.condition_b
    assert rep1.a_estimate == pytest.approx(1.0, abs=0.05)
    assert rep1.heuristic
    rep2 = check_corollary_conditions(power_rate(2.0), symmetric_nn_kernel(2), n_max=2000)
    assert not rep2.condition_a


def test_growth_conditions_without_two_points_report_no_slope():
    # a 3-entry table leaves one positive increment to fit: no slope, not NaN
    rep = check_corollary_conditions(table_rate([0.0, 1.0, 3.0]), nn_kernel_1d(0.5))
    assert rep.a_estimate is None
    assert not rep.condition_a
    assert "NaN" not in json.dumps(rep.to_json())


def test_growth_conditions_flag_exponential_growth():
    rep = check_corollary_conditions(exp_rate(1.0, 0.5), nn_kernel_1d(0.5), n_max=2000)
    assert not rep.condition_a
    assert not rep.condition_b


def test_growth_conditions_pass_mild_growth_d2():
    # g = n^1.2 has h slope ~ 0.2 < 2/d - margin in d=2, zero drift
    rep = check_corollary_conditions(power_rate(1.2), symmetric_nn_kernel(2), n_max=5000)
    assert rep.condition_a
    assert rep.condition_b
    assert rep.a_estimate == pytest.approx(0.2, abs=0.05)
    assert rep.drift == pytest.approx((0.0, 0.0))


def test_growth_conditions_need_zero_drift():
    rep = check_corollary_conditions(power_rate(1.2), nn_kernel_1d(0.7), n_max=2000)
    assert not rep.condition_a


def test_growth_conditions_clip_to_table_domain():
    vals = [0.0] + [float(k) for k in range(1, 120)]
    rep = check_corollary_conditions(table_rate(vals), nn_kernel_1d(0.5),
                                     n_max=10_000, fit_window=20)
    assert rep.n_max_used <= 119
