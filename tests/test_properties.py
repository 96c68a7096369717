"""Property-based checks over randomized inputs.

Each property re-derives the expected answer by an independent route
(brute force or a defining identity), so these never just replay the
implementation.  Derandomized: a given hypothesis version replays the
same example sequence every run.
"""

import math
from collections import Counter
from fractions import Fraction
from itertools import combinations

import numpy as np
from hypothesis import given, settings, strategies as st

from zrp.configuration import Configuration, snapshots, truncate
from zrp.diagnostics import _j_dicts
from zrp.engine import (OPEN, BoundaryPolicy, simulate, simulate_gillespie,
                        simulate_pq_family)
from zrp.kernel import make_kernel, nn_kernel_1d, sample_jump, symmetric_nn_kernel
from zrp.measures import fugacity_measure, sample_box_config
from zrp.noise import HarrisNoise, bands_for
from zrp.parallel import TAG_GILLESPIE, TAG_SAMPLE, derived_rng
from zrp.rates import exp_rate, power_rate
from zrp.sites import box_sites

SETTINGS = settings(derandomize=True, deadline=None, max_examples=60)

occ_dicts = st.dictionaries(st.integers(-4, 4), st.integers(0, 4), max_size=7)


def _j_brute(a, b):
    # direct maximization over every window [n, m] with n <= 0 <= m
    sites = set(a) | set(b) | {0}
    lo, hi = min(sites), max(sites)
    best = -(1 << 62)
    for n in range(lo, 1):
        for m in range(0, hi + 1):
            s = sum(a.get(x, 0) - b.get(x, 0) for x in range(n, m + 1))
            best = max(best, s)
    return max(0, best)


@SETTINGS
@given(occ_dicts, occ_dicts)
def test_discrepancy_matches_window_brute_force(a, b):
    j = _j_dicts(a, b)
    assert j == _j_brute(a, b)


@SETTINGS
@given(occ_dicts)
def test_discrepancy_of_config_with_itself_is_zero(a):
    assert _j_dicts(a, a) == 0


@SETTINGS
@given(occ_dicts, occ_dicts, st.integers(-4, 4))
def test_discrepancy_monotone_in_upper_argument(a, b, x):
    # one extra particle in the upper config can only raise j, by at most 1
    j0 = _j_dicts(a, b)
    a2 = dict(a)
    a2[x] = a2.get(x, 0) + 1
    j1 = _j_dicts(a2, b)
    assert j0 <= j1 <= j0 + 1


@SETTINGS
@given(st.lists(st.integers(1, 50), min_size=1, max_size=6),
       st.floats(0.0, 1.0, exclude_max=True))
def test_jump_sampling_inverts_the_cdf(weights, u):
    # offsets 1..k so support stays sorted and collision-free
    total = sum(weights)
    probs = [w / total for w in weights]
    kernel = make_kernel([((i + 1,), p) for i, p in enumerate(probs)])
    z = sample_jump(kernel, u)
    i = z - 1
    left = sum(probs[:i])
    assert left <= u + 1e-12
    assert u < left + probs[i] + 1e-12


@SETTINGS
@given(st.lists(st.integers(1, 50), min_size=1, max_size=6))
def test_kernel_mean_matches_fraction_arithmetic(weights):
    total = sum(weights)
    kernel = make_kernel([((i + 1,), w / total) for i, w in enumerate(weights)])
    want = sum(Fraction(w, total) * (i + 1) for i, w in enumerate(weights))
    got = sum(p * z for z, p in kernel.support())
    assert abs(got - float(want)) < 1e-12


@SETTINGS
@given(st.floats(1.0, 2.5), st.floats(0.2, 1.5))
def test_fugacity_identity_holds_for_power_rates(a, phi):
    # E[g] = phi is the defining identity of the one-site weights
    mu = fugacity_measure(power_rate(a), phi)
    assert abs(mu.mean_rate() - phi) < 1e-9


@SETTINGS
@given(st.dictionaries(st.integers(-4, 4), st.integers(1, 3), max_size=5),
       st.floats(0.1, 2.5), st.lists(st.floats(0.0, 1.0), max_size=4),
       st.integers(0, 2 ** 32 - 1))
def test_pq_members_are_ordered_in_p_at_every_snapshot(occ, T, ps, seed):
    # not just between the extremes: the i-th leftmost particle moves right
    # (weakly) as p grows, for every pair of members
    res = simulate_pq_family(Configuration(1, occ), power_rate(2.0), T,
                             HarrisNoise(seed), [(p, 1.0 - p) for p in ps])
    for a, b in combinations(sorted(res.pq_values), 2):
        assert np.all(res.positions[a] <= res.positions[b])


@SETTINGS
@given(st.sampled_from([1, 2]), st.sampled_from(["open", "killed", "periodic"]),
       st.integers(0, 2), st.floats(0.1, 3.0), st.integers(0, 2 ** 32 - 1),
       st.data())
def test_configurations_built_unchecked_are_valid(d, kind, n, T, seed, data):
    # the engines' finals, snapshots, truncate and sample_box_config skip the
    # public constructor's checks; each result must pass them unchanged
    occ = data.draw(st.dictionaries(st.sampled_from(box_sites(n, d)),
                                    st.integers(1, 3), min_size=1, max_size=5))
    eta0 = Configuration(d, occ)
    rate = power_rate(2.0)
    kernel = nn_kernel_1d(0.7) if d == 1 else symmetric_nn_kernel(2)
    policy = OPEN if kind == "open" else BoundaryPolicy(kind, n)
    trajs = [simulate(eta0, rate, kernel, policy, T, HarrisNoise(seed)),
             simulate_gillespie(eta0, rate, kernel, policy, T,
                                derived_rng(seed, TAG_GILLESPIE))]
    built = [traj.final for traj in trajs]
    for traj in trajs:
        built += snapshots(traj, [0.0, T / 3, T])
    built += [truncate(c, m) for c in list(built) for m in (0, 1)]
    built.append(sample_box_config(fugacity_measure(rate, 1.0), n, d,
                                   derived_rng(seed, TAG_SAMPLE)))
    for c in built:
        assert Configuration(c.d, dict(c.occ)) == c
        assert all(type(k) is int and k > 0 for k in c.occ.values())


def _eager(eta0, rate, kernel, kind, n, T, noise):
    """The construction written out, with no caps, rises, time ranges or
    batches: every band any occupancy can need at every site of the box, in
    every slab that starts before T, sorted once; an atom fires when its
    height is at most g of its site's occupancy. Its own jump and box rules."""
    d, side = eta0.d, 2 * n + 1
    top = bands_for(rate.g(eta0.total()))
    atoms = sorted((t, x, y, u) for s in range(math.ceil(T)) for x in box_sites(n, d)
                   for b in range(top) for t, y, u in zip(*noise.window(x, b, s)) if t <= T)
    occ, events = dict(eta0.occ), []
    for t, x, y, u in atoms:
        k = occ.get(x, 0)
        if k == 0 or y > rate.g(k):
            continue
        j = next((j for j, c in enumerate(kernel.cum) if u < c), len(kernel.cum) - 1)
        xs = (x,) if d == 1 else x
        raw = tuple(a + b for a, b in zip(xs, kernel.offsets[j]))
        if kind == "killed":
            dst, what = raw, "kill" if max(map(abs, raw)) > n else "jump"
        else:
            dst = tuple((c + n) % side - n for c in raw)
            if dst == xs:  # wrapped onto itself: no event
                continue
            what = "jump" if dst == raw else "periodic-wrap"
        dst = dst[0] if d == 1 else dst
        events.append((t, x, dst, what, ""))
        occ[x] -= 1
        if occ[x] == 0:
            del occ[x]
        if what != "kill":
            occ[dst] = occ.get(dst, 0) + 1
    return events, occ


EAGER_KERNELS = {1: [nn_kernel_1d(0.7), make_kernel([(3, 0.5), (-1, 0.5)])],
                 2: [symmetric_nn_kernel(2),
                     make_kernel([((2, 0), 0.3), ((-1, 1), 0.3), ((0, -2), 0.4)])]}


@settings(derandomize=True, deadline=None, max_examples=300)
@given(st.sampled_from([1, 2]), st.sampled_from(["killed", "periodic"]),
       st.sampled_from([power_rate(1.0), power_rate(2.0), power_rate(3.0),
                        exp_rate(1.0, 0.4)]),
       st.one_of(st.integers(1, 3).map(float), st.floats(0.1, 3.0)),
       st.integers(0, 2 ** 32 - 1), st.data())
def test_simulate_equals_the_eager_construction(d, kind, rate, T, seed, data):
    # the lazy caps, rises, time ranges and batches change no event: the
    # log and final state equal the construction's, written out eagerly
    n = data.draw(st.integers(0, 3 if d == 1 else 2))
    kernel = data.draw(st.sampled_from(EAGER_KERNELS[d]))
    placed = data.draw(st.lists(st.sampled_from(box_sites(n, d)), min_size=1, max_size=8))
    eta0 = Configuration(d, dict(Counter(placed)))
    traj = simulate(eta0, rate, kernel, BoundaryPolicy(kind, n), T, HarrisNoise(seed))
    events, occ = _eager(eta0, rate, kernel, kind, n, T, HarrisNoise(seed))
    assert traj.events == events
    assert traj.final.occ == occ
