import pytest

from zrp.errors import ConfigError
from zrp.localfn import LocalFunction, capped_occupancy, occupancy_indicator, product_local


def _ge1(n):
    return 1.0 if n >= 1 else 0.0


def test_indicator_is_equality():
    f = occupancy_indicator(0, 2)
    assert f.value({0: 2}) == 1.0
    assert f.value({0: 3}) == 0.0
    assert f.value({}) == 0.0
    assert occupancy_indicator(5, 0).value({}) == 1.0


def test_capped_occupancy():
    f = capped_occupancy(1, 3)
    assert f.value({}) == 0.0
    assert f.value({1: 2}) == 2.0
    assert f.value({1: 7}) == 3.0
    assert f.bound == 3.0
    assert f.support == (1,)


def test_product_local():
    f = product_local({0: (_ge1, 1.0), 1: (_ge1, 1.0)}, label="both occupied")
    assert f.value({0: 1, 1: 2}) == 1.0
    assert f.value({0: 1}) == 0.0
    assert set(f.support) == {0, 1}
    assert f.bound == 1.0


def test_validation():
    with pytest.raises(ConfigError):
        occupancy_indicator(0, -1)
    with pytest.raises(ConfigError):
        capped_occupancy(0, 0)
    with pytest.raises(ConfigError):
        product_local({})
    with pytest.raises(ConfigError):
        LocalFunction(support=(), bound=1.0, fn=lambda occ: 0.0)
    with pytest.raises(ConfigError):
        LocalFunction(support=(0,), bound=float("inf"), fn=lambda occ: 0.0)
