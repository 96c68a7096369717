"""A family of drifts driven by one noise field, particle by particle.

Nearest-neighbour d=1 runs indexed by (p, q) with p + q = 1 share every
atom of randomness. Each is a plain simulate() run with the kernel
nn_kernel_1d(p), which sends a particle right iff its atom's mark u is at
least 1 - p, so only that threshold differs. Label i is the i-th leftmost
particle: under drift p it never sits left of label i under any smaller p.
The fully-left and fully-right members bracket everything in between.

Run:  python demos/drift_family.py
"""

import numpy as np

from zrp import Configuration, HarrisNoise, power_rate, simulate_pq_family

eta0 = Configuration(1, {-2: 1, 0: 2, 3: 1})
pq = [(0.25, 0.75), (0.5, 0.5), (0.75, 0.25)]  # extremes are added for us

res = simulate_pq_family(eta0, power_rate(2.0), T=2.0,
                         noise=HarrisNoise(314, ()), pq_list=pq,
                         snapshot_times=(2.0,))

members = sorted(res.pq_values)  # extremes arrive appended, not sorted
print(f"members (by drift): {members}")
print(f"labels start at {res.labels} (left to right)\n")

print("final position of every label, one column per drift p:")
header = "label | " + "  ".join(f"p={p:<5}" for p, _ in members)
print(header)
print("-" * len(header))
n = len(res.labels)
for i in range(n):
    row = [int(res.positions[pq][-1, i]) for pq in members]
    print(f"{i:>5} | " + "  ".join(f"{x:<7}" for x in row))

# each row must be non-decreasing left to right across the drift values;
# simulate_pq_family has already raised if any label left the sandwich
mat = np.array([[res.positions[pq][-1, i] for pq in members]
                for i in range(n)])
assert (np.diff(mat, axis=1) >= 0).all()
print(f"\nper-label monotonicity in p: holds ({n} labels, "
      f"{len(res.pq_values)} members)")
