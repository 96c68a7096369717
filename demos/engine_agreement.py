"""Two independent samplers of the same law, cross-checked.

The event-driven engine thins per-site Poisson atoms against the rate
bands; the reference engine draws the next event from the total-rate
clock. They share only the model, so a chi-square on the joint time-T
occupancy is a real test of both.

Run:  python demos/engine_agreement.py
"""

from zrp import (
    Configuration,
    HarrisNoise,
    OPEN,
    derived_rng,
    engine_agreement_check,
    nn_kernel_1d,
    power_rate,
    simulate,
    simulate_gillespie,
)
from zrp.diagnostics import chi2_joint_two_sample
from zrp.parallel import TAG_GILLESPIE

rate = power_rate(2.0)
kernel = nn_kernel_1d(0.7)
eta0 = Configuration(1, {-1: 1, 0: 2, 1: 1})

# one path from each engine, same model, independent randomness
tr_h = simulate(eta0, rate, kernel, OPEN, 2.0, HarrisNoise(42, (0,)))
tr_g = simulate_gillespie(eta0, rate, kernel, OPEN, 2.0,
                          derived_rng(42, TAG_GILLESPIE))
print(f"thinning engine:   {len(tr_h.events):3d} events, final mass "
      f"{sum(tr_h.final.occ.values())}")
print(f"total-rate engine: {len(tr_g.events):3d} events, final mass "
      f"{sum(tr_g.final.occ.values())}")

# distributional agreement over many replicas
rep = engine_agreement_check(eta0, rate, kernel, OPEN, T=1.0,
                             replicas=4000, seed=7)
print(f"\njoint occupancy chi-square over 4000 replicas per engine:")
print(f"  statistic = {rep.statistic:.3f}, p = {rep.extras['p_value']:.4f} "
      f"-> {'pass' if rep.passed else 'FAIL'}")

# the same statistic pointed at genuinely different dynamics must reject:
# quadratic vs linear rates from one start, 800 replicas each
def hist(r, seed):
    cells = {}
    for rr in range(800):
        t = simulate(eta0, r, kernel, OPEN, 0.75, HarrisNoise(seed, (rr,)))
        key = tuple(sorted(t.final.occ.items()))
        cells[key] = cells.get(key, 0) + 1
    return cells

_, _, p_diff = chi2_joint_two_sample(hist(rate, 50), hist(power_rate(1.0), 52))
print(f"negative control (quadratic vs linear rates): p = {p_diff:.2e} -> "
      f"{'rejected as expected' if p_diff < 1e-6 else 'NOT rejected'}")
