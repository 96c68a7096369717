"""First-passage brackets and the occupancy moment bound built on them.

F_z(t) is the probability a single continuous-time walk reaches the
origin from z by time t. We compute it two ways: certified lower/upper
brackets from the uniformized jump chain, and plain Monte Carlo with
4-sigma confidence bands. The brackets then power m-bar, a closed-form
upper bound on the mean (and exponential moments) of the occupancy the
interacting system can pile onto a site.

Run:  python demos/hitting_bounds.py
"""

from zrp import (
    Configuration,
    estimate_F,
    exact_F_small,
    exp_moment_check,
    mbar,
    nn_kernel_1d,
    power_rate,
)

kernel = nn_kernel_1d(0.7)
times = (0.25, 0.5, 1.0, 2.0, 4.0)

exact = [exact_F_small(2, t, kernel) for t in times]
mc = estimate_F(2, times, kernel, n_walks=40_000, seed=99)

print("reaching 0 from z=2, drift-0.4 nearest-neighbour walk:")
print(f"{'t':>5} {'bracket lo':>12} {'bracket hi':>12} {'mc lo':>9} {'mc hi':>9}")
for j, (t, (lo, hi)) in enumerate(zip(times, exact)):
    print(f"{t:>5.2f} {lo:>12.9f} {hi:>12.9f} "
          f"{mc.lower[j]:>9.5f} {mc.upper[j]:>9.5f}")
ok = all(mc.lower[j] <= hi and lo <= mc.upper[j]
         for j, (lo, hi) in enumerate(exact))
print(f"brackets and Monte Carlo bands overlap everywhere: {ok}")

# m-bar: each particle contributes its own hitting probability, sped up
# by the rate floor h; exact terms for the nearest K, certified tail after
# (named "exp-sum"; "none" when K covers every particle)
eta0 = Configuration(1, {1: 2, 2: 1, -3: 1, 8: 1})
rep = mbar(eta0, 0, 2.0, power_rate(2.0), nn_kernel_1d(0.5), K=4)
print(f"\noccupancy bound at the origin, t = 2: "
      f"m-bar in [{rep.lower:.6f}, {rep.upper:.6f}] "
      f"(K = {rep.K} exact terms + {rep.tail_method} tail {rep.tail:.2e})")

# the bound it certifies: log E[exp(theta eta_t(0))] <= (e^theta - 1) m-bar
rep2 = exp_moment_check(eta0, power_rate(2.0), nn_kernel_1d(0.5), z=0,
                        theta=0.5, T=2.0, replicas=3000, seed=5)
print(f"exponential moment vs bound over 3000 replicas: "
      f"{'pass' if rep2.passed else 'FAIL'} "
      f"(first moment within its band: {rep2.extras['mean_within_band']})")
print(f"{'s':>5} {'log-MGF (boot hi)':>18} {'bound':>9}")
for s, hi, b in zip(rep2.extras["grid"], rep2.extras["logmgf_boot_hi"],
                    rep2.extras["bound"]):
    print(f"{s:>5.2f} {hi:>18.4f} {b:>9.4f}")
