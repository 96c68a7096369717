"""Product and canonical measures against independently computed values.

The frozen constants below were produced by a standalone script using 40-digit
mpmath arithmetic (series summation, exact Fraction enumeration for the small
canonical cases) before this module existed; they are pasted verbatim.
"""
import math

import numpy as np
import pytest

from zrp.configuration import Configuration
from zrp.errors import CertificationError
from zrp.measures import (
    canonical_torus_measure,
    compositions,
    fugacity_measure,
    partition_function,
    sample_box_config,
    torus_sites,
)
from zrp.rates import exp_rate, power_rate, rate_to_json, table_rate

# frozen: z(1) for g(k) = k^2 equals I_0(2); series and besseli agree to 20 digits
Z_SQUARES_PHI1 = 2.2795853023360672674
LOG_Z_SQUARES_PHI1 = 0.82399354148295628293
# frozen: density R(1) = I_1(2)/I_0(2)
R_SQUARES_PHI1 = 0.69777465796400798201
# frozen: E[min(N, 10)] for N ~ Poisson(1)
E_MIN_POIS1_10 = 0.99999998905218541819


def test_partition_function_squares():
    log_z, K, tail = partition_function(power_rate(2.0), 1.0)
    assert log_z == pytest.approx(LOG_Z_SQUARES_PHI1, abs=1e-12)
    assert tail <= 1e-12
    assert K >= 5


def test_measure_normalization_squares():
    m = fugacity_measure(power_rate(2.0), 1.0)
    assert math.exp(m.log_z) == pytest.approx(Z_SQUARES_PHI1, rel=1e-12)
    assert m.pmf.sum() == pytest.approx(1.0, abs=1e-12)
    assert m.density() == pytest.approx(R_SQUARES_PHI1, abs=1e-12)


def test_fugacity_identity_is_phi():
    for rate, phi in ((power_rate(2.0), 1.0), (power_rate(1.0), 3.0),
                      (exp_rate(1.0, 0.4), 2.0)):
        m = fugacity_measure(rate, phi)
        assert m.mean_rate() == pytest.approx(phi, rel=1e-10)


def test_linear_rate_is_poisson():
    phi = 1.0
    m = fugacity_measure(power_rate(1.0), phi, tol=1e-30)
    for k in range(15):
        assert m.pmf[k] == pytest.approx(math.exp(-phi) * phi ** k / math.factorial(k),
                                         rel=1e-12)
    # frozen: Poisson(1) cdf at 0..3
    assert m.cdf[:4] == pytest.approx(
        [0.367879441171, 0.735758882343, 0.919698602929, 0.981011843124], abs=1e-12)
    assert m.density() == pytest.approx(phi, rel=1e-12)


def test_linear_rate_density_equals_phi():
    m = fugacity_measure(power_rate(1.0), 2.0, tol=1e-30)
    assert m.density() == pytest.approx(2.0, rel=1e-12)


def test_capped_mean_against_frozen_value():
    m = fugacity_measure(power_rate(1.0), 1.0, tol=1e-30)
    capped = float(np.dot(np.minimum(np.arange(m.K + 1), 10), m.pmf))
    assert capped == pytest.approx(E_MIN_POIS1_10, abs=1e-14)


class _Uniforms:
    """An rng whose random(n) returns the first n of the given uniforms."""

    def __init__(self, us):
        self.us = np.asarray(us, dtype=float)

    def random(self, n):
        return self.us[:n]


def _marginal_draws(m, us):
    """sample_box_config on d=1 boxes, one site per uniform, in site order."""
    n = (len(us) - 1) // 2
    cfg = sample_box_config(m, n, 1, _Uniforms(us))
    return [cfg.count(x) for x in range(-n, n + 1)]


def test_sample_marginal_is_quantile_transform():
    m = fugacity_measure(power_rate(1.0), 1.0)
    # cdf(0) = e^-1 < 0.5 < cdf(1); 0.9 lands on the frozen quantile 2
    draws = _marginal_draws(m, [0.0, 0.5, 0.9, 1.0 - 1e-15, float(m.cdf[0])])
    assert draws[:3] == [0, 1, 2]
    assert draws[3] <= m.K
    assert draws[4] == 1                  # side="right": u = cdf(k) gives k + 1


def test_sample_marginal_statistics():
    m = fugacity_measure(power_rate(2.0), 1.0)
    rng = np.random.default_rng(11)
    draws = np.array(_marginal_draws(m, rng.random(40_001)))
    sd = math.sqrt(float(np.dot((np.arange(m.K + 1) - m.density()) ** 2, m.pmf)))
    assert abs(draws.mean() - m.density()) < 4 * sd / math.sqrt(draws.size)


def test_divergent_fugacity_rejected():
    # bounded rate, phi above the ceiling: the weight series cannot converge
    from zrp.rates import custom_rate
    bounded = custom_rate(lambda k: 1.0 if k else 0.0, "bounded")
    with pytest.raises(CertificationError):
        fugacity_measure(bounded, 1.5)
    # finite table: the tail is undefined rather than divergent, same verdict
    with pytest.raises(CertificationError):
        fugacity_measure(table_rate([0, 1, 1, 1]), 1.5)


def test_zero_rate_above_zero_rejected():
    with pytest.raises(CertificationError):
        fugacity_measure(table_rate([0, 0, 1]), 0.5)


def test_sample_box_config_shape_and_determinism():
    m = fugacity_measure(power_rate(2.0), 1.0)
    c1 = sample_box_config(m, 2, 1, 123)
    c2 = sample_box_config(m, 2, 1, 123)
    assert c1 == c2
    assert all(-2 <= x <= 2 for x in c1.occ)
    c3 = sample_box_config(m, 1, 2, 7)
    assert c3.d == 2
    assert all(max(abs(u) for u in x) <= 1 for x in c3.occ)


def test_compositions_enumerates_simplex():
    combos = list(compositions(3, 2))
    assert sorted(combos) == [(0, 3), (1, 2), (2, 1), (3, 0)]
    assert len(list(compositions(5, 3))) == 21  # C(7, 2)


def test_torus_sites_shapes():
    assert set(torus_sites(3, 1)) == {-1, 0, 1}
    assert len(torus_sites(4, 1)) == 4
    assert len(torus_sites(3, 2)) == 9


def test_canonical_two_sites_exact():
    # frozen: exact Fractions for 2 sites, N=2, g = k^2:
    # weights w(2,0) = w(0,2) = 1/4, w(1,1) = 1 -> probs 1/6, 2/3, 1/6
    m = canonical_torus_measure(power_rate(2.0), 2, 1, 2)
    probs = {s: p for s, p in zip(m.states, m.probs)}
    assert probs[(2, 0)] == pytest.approx(1.0 / 6.0, abs=1e-15)
    assert probs[(1, 1)] == pytest.approx(2.0 / 3.0, abs=1e-15)
    assert probs[(0, 2)] == pytest.approx(1.0 / 6.0, abs=1e-15)


def test_canonical_marginal_sums_to_one_and_counts_particles():
    m = canonical_torus_measure(power_rate(2.0), 3, 1, 4)
    for s in m.states:
        assert sum(s) == 4
    assert m.probs.sum() == pytest.approx(1.0, abs=1e-12)


def test_canonical_sample_respects_count():
    m = canonical_torus_measure(power_rate(2.0), 3, 1, 5)
    assert all(sum(s) == 5 for s in m.states)
    assert m.sites == [-1, 0, 1]


def test_measure_json_form():
    m = fugacity_measure(power_rate(2.0), 1.0)
    assert m.phi == 1.0
    assert rate_to_json(m.rate)["family"] == "power"
