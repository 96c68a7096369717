import math

import numpy as np
import pytest

from zrp.errors import ConfigError
from zrp.kernel import (
    Kernel,
    is_nearest_neighbour_1d,
    kernel_from_json,
    make_kernel,
    mean_drift,
    nn_kernel_1d,
    sample_jump,
    symmetric_nn_kernel,
)


def test_nn_kernel_basic():
    k = nn_kernel_1d(0.7)
    assert k.d == 1
    assert k.range == 1
    assert dict(k.support()) == {1: pytest.approx(0.7), -1: pytest.approx(0.3)}


def test_nn_kernel_is_built_once_per_p():
    assert nn_kernel_1d(0.7) is nn_kernel_1d(0.7)


def test_nn_kernel_degenerate_drops_zero_weight():
    k = nn_kernel_1d(1.0)
    assert dict(k.support()) == {1: 1.0}
    assert is_nearest_neighbour_1d(k) == (1.0, 0.0)


def test_is_nearest_neighbour_detection():
    assert is_nearest_neighbour_1d(nn_kernel_1d(0.7)) == pytest.approx((0.7, 0.3))
    assert is_nearest_neighbour_1d(symmetric_nn_kernel(2)) is None
    # range-2 support is not nearest neighbour even in d=1
    k = make_kernel([(-1, 0.5), (2, 0.5)])
    assert is_nearest_neighbour_1d(k) is None


def test_symmetric_kernel_d2():
    k = symmetric_nn_kernel(2)
    assert k.d == 2
    assert len(k.offsets) == 4
    assert all(p == pytest.approx(0.25) for p in k.probs)
    assert mean_drift(k) == pytest.approx((0.0, 0.0))


def test_mean_drift_hand_value():
    # 0.5*(1,0) + 0.25*(0,1) + 0.25*(-1,0) = (0.25, 0.25), by hand
    k = make_kernel([((1, 0), 0.5), ((0, 1), 0.25), ((-1, 0), 0.25)])
    assert mean_drift(k) == pytest.approx((0.25, 0.25))


def test_make_kernel_validation():
    with pytest.raises(ConfigError):
        make_kernel([])
    with pytest.raises(ConfigError):
        make_kernel([(0, 1.0)])            # self jump
    with pytest.raises(ConfigError):
        make_kernel([(1, 0.5), (-1, 0.6)])  # does not sum to 1
    with pytest.raises(ConfigError):
        make_kernel([(1, -0.5), (-1, 1.5)])
    with pytest.raises(ConfigError):
        make_kernel([((1, 0), 0.5), (1, 0.5)])  # mixed dimension
    with pytest.raises(ConfigError):
        nn_kernel_1d(0.7, 0.7)


def test_kernel_range_is_max_norm():
    assert make_kernel([((2, 1), 0.5), ((0, -1), 0.5)]).range == 2
    assert make_kernel([(-2, 0.25), (1, 0.5), (3, 0.25)]).range == 3


@pytest.mark.parametrize("derived", [{"cum": (1.0,)}, {"range": 5}])
def test_derived_fields_are_not_constructor_arguments(derived):
    with pytest.raises(TypeError):
        Kernel(d=1, offsets=((1,),), probs=(1.0,), **derived)


def test_sample_jump_is_cdf_inversion():
    k = nn_kernel_1d(0.75)
    # offsets sorted: (-1, 1), cum = (0.25, 1.0); exact dyadic break
    assert k.cum == (0.25, 1.0)
    assert sample_jump(k, 0.0) == -1
    assert sample_jump(k, 0.249) == -1
    assert sample_jump(k, 0.25) == 1
    assert sample_jump(k, 0.999) == 1


def test_sample_jump_matches_probs():
    k = make_kernel([(-2, 0.2), (1, 0.5), (3, 0.3)])
    rng = np.random.default_rng(7)
    draws = np.array([sample_jump(k, float(x)) for x in rng.random(20_000)])
    for z, p in k.support():
        frac = float(np.mean(draws == z))
        assert abs(frac - p) < 4 * math.sqrt(p * (1 - p) / draws.size)


def test_json_roundtrip():
    # the support may come in any order
    for obj, k in (
            ({"d": 1, "support": [{"z": [1], "p": 0.25}, {"z": [-1], "p": 0.75}]},
             nn_kernel_1d(0.25)),
            ({"d": 2, "support": [{"z": list(z), "p": 0.25}
                                  for z in ((0, 1), (1, 0), (0, -1), (-1, 0))]},
             symmetric_nn_kernel(2)),
            ({"d": 1, "support": [{"z": [3], "p": 0.3}, {"z": [-2], "p": 0.2},
                                  {"z": [1], "p": 0.5}]},
             make_kernel([(-2, 0.2), (1, 0.5), (3, 0.3)]))):
        assert kernel_from_json(obj) == k


@pytest.mark.parametrize("obj", [
    {"d": "1", "support": [{"z": [1], "p": 1.0}]},
    {"d": True, "support": [{"z": [1], "p": 1.0}]},
    {"d": 1.0, "support": [{"z": [1], "p": 1.0}]},
    {"d": 1, "support": [{"z": [1], "p": True}]},
    {"d": 1, "support": [{"z": [1], "p": "1"}]},
    {"d": 1, "support": [{"z": [1], "p": float("nan")}]},
    {"d": 1, "support": [{"z": [0.7], "p": 1.0}]},
    {"d": 1, "support": [{"z": [True], "p": 1.0}]},
    {"d": 1, "support": [{"z": ["a"], "p": 1.0}]},
    {"d": 1, "support": 1},
])
def test_json_takes_numbers_as_they_are(obj):
    # a string, a boolean or a float coordinate is not converted
    with pytest.raises(ConfigError):
        kernel_from_json(obj)


def test_json_accepts_numpy_integers():
    obj = {"d": np.int64(1), "support": [{"z": [np.int32(1)], "p": 1.0}]}
    assert kernel_from_json(obj) == nn_kernel_1d(1.0)


def test_json_rejects_garbage():
    with pytest.raises(ConfigError):
        kernel_from_json({"support": [{"z": [1], "p": 1.0}]})
    with pytest.raises(ConfigError):
        kernel_from_json({"d": 1})
