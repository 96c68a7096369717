"""Product invariant measures: fugacity family, density curve, exact balance.

Run:  python demos/invariant_measures.py
"""

import numpy as np
from scipy import stats

from zrp import (
    fugacity_measure,
    nn_kernel_1d,
    power_rate,
    stationarity_exact,
)

# The one-site weights w(k) = prod_{j<=k} 1/g(j) define, for each fugacity
# phi, a product measure that the dynamics leaves invariant. Two structural
# facts are checkable without any simulation at all.

rate = power_rate(2.0)  # g(k) = k^2

print("fugacity phi -> mean departure rate (must equal phi) and density")
print(f"{'phi':>6} {'E[g]':>12} {'R(phi)':>10}")
for phi in (0.25, 0.5, 1.0, 2.0, 4.0):
    mu = fugacity_measure(rate, phi)
    print(f"{phi:>6.2f} {mu.mean_rate():>12.8f} {mu.density():>10.6f}")

# g(k) = k makes the marginal exactly Poisson(phi)
lin = fugacity_measure(power_rate(1.0), 1.3)
ks = np.arange(8)
ours = lin.pmf[:8]
ref = stats.poisson.pmf(ks, 1.3)
print(f"\nlinear rate vs Poisson(1.3): max pmf gap = {np.abs(ours - ref).max():.3e}")

# On a torus with a fixed particle number the conditioned product measure
# is stationary exactly; the global-balance residual is pure rounding.
rep = stationarity_exact(rate, nn_kernel_1d(0.5), sites_per_dim=3, d=1, N=3)
print(f"exact balance on the 3-site ring, N=3: residual = {rep.statistic:.3e} "
      f"({'pass' if rep.passed else 'FAIL'})")
