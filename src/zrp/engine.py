"""Event-driven simulators for the zero-range process.

simulate() runs the thinning construction on the lazy Poisson field: pop the
earliest pending atom (t, y, u) at site x, fire iff the current occupancy k
satisfies y <= g(k), route the displaced particle through the jump kernel and
the boundary policy. Atoms above g(k) are discarded. Height caps follow the
occupancy one time slab at a time: at each slab start a site holding k
particles draws bands_for(g(k)) bands, whose ceiling is 1 for g(k) <= 1 and
lies in [g(k), 2 g(k)) above that, all sites in one HarrisNoise.slab_atoms
batch; a rise within the slab draws the missing bands one window at a time,
and a fall keeps what was drawn until the slab ends. Draws ask only for atoms
in (t_now, T], and only the ceil(T) slabs that start before T are drawn: at an
integer T that leaves out an atom at t = T, whose time word is exactly 0 in
slab T (probability 2^-53 per atom).

simulate_gillespie() is the independent distributional cross-check: identical
law, completely different use of randomness (global exponential clocks).

simulate_truncation_schedule() and simulate_pq_family() run several coupled
copies off one shared noise field. The first runs the truncations of one
start on the largest box to each smaller box and checks that occupancies are
monotone in the box; the second checks the labelled-particle ordering across
drift parameters.
"""
from __future__ import annotations

import math
from bisect import insort
from dataclasses import dataclass
from functools import lru_cache
from heapq import heappop, heappush

import numpy as np

from .configuration import (Configuration, Trajectory, enumerate_particles,
                            snapshots, truncate)
from .errors import ConfigError, InvariantViolation
from .kernel import Kernel, sample_jump
from .noise import HarrisNoise, TIME_SLAB, bands_for
from .parallel import TAG_GILLESPIE, derived_rng
from .rates import RateFn
from .sites import Site, box_sites, fold_into_box, in_box, site_add


@dataclass(frozen=True)
class BoundaryPolicy:
    kind: str            # "open" | "killed" | "periodic"
    n: int | None = None  # box radius for killed/periodic: [-n, n]^d

    def __post_init__(self):
        if self.kind == "open":
            if self.n is not None:
                raise ConfigError("open boundary takes no box")
        elif self.kind in ("killed", "periodic"):
            if self.n is None or self.n < 0:
                raise ConfigError(f"{self.kind} boundary needs a box radius n >= 0")
        else:
            raise ConfigError(f"unknown boundary policy {self.kind!r}")

    def describe(self) -> str:
        return self.kind if self.kind == "open" else f"{self.kind}({self.n})"


OPEN = BoundaryPolicy("open")


def killed(n: int) -> BoundaryPolicy:
    return BoundaryPolicy("killed", n)


def periodic(n: int) -> BoundaryPolicy:
    return BoundaryPolicy("periodic", n)


def route(policy: BoundaryPolicy, x: Site, z: Site) -> tuple[Site, str | None]:
    """(dst, kind) for a displacement z out of x: kind is "jump", "kill" or
    "periodic-wrap", or None for a wrap onto x itself, which changes nothing
    and is no event. Both engines and the generator route through here."""
    raw = site_add(x, z)
    if policy.kind == "open":
        return raw, "jump"
    if policy.kind == "killed":
        return raw, "jump" if in_box(raw, policy.n) else "kill"
    dst = fold_into_box(raw, policy.n)
    if dst == x:
        return dst, None
    return dst, "jump" if dst == raw else "periodic-wrap"


def _validate_run(eta0: Configuration, rate: RateFn, kernel: Kernel,
                  policy: BoundaryPolicy, T: float) -> None:
    if kernel.d != eta0.d:
        raise ConfigError(f"kernel d={kernel.d} vs configuration d={eta0.d}")
    if not (T > 0) or not math.isfinite(T):
        raise ConfigError(f"horizon T must be positive and finite, got {T!r}")
    if policy.kind != "open":
        for x in eta0.sites():
            if not in_box(x, policy.n):
                raise ConfigError(
                    f"initial site {x!r} outside the {policy.describe()} box")


def _run_thinning(occ: dict, g, T: float, noise: HarrisNoise, step) -> None:
    """The lazy-window event loop of every Harris-noise run: calls
    step(t, x, u, k) for each atom (t, y, u) at site x that fires (k = occ[x]
    > 0 and y <= g(k)), in time order. step applies the move to occ and
    returns the site it added a particle to, or None. At a slab start each
    occupied site draws bands 0 .. bands_for(g(k)) - 1 of that slab, in one
    sorted batch that becomes the (then empty) heap; a rise draws the missing
    bands for the rest of the slab. So every atom that can fire is in the
    heap before its time comes."""
    t_now = 0.0
    cap = lru_cache(maxsize=None)(lambda k: bands_for(g(k)))

    def draw(site, b0: int, b1: int, slab: int) -> None:
        for b in range(b0, b1):
            for t, y, u in zip(*noise.window(site, b, slab, t_now, T)):
                heappush(heap, (t, site, y, u))

    for slab in range(math.ceil(T / TIME_SLAB)):
        bands = {x: cap(k) for x, k in occ.items()}
        heap = noise.slab_atoms(list(bands), list(bands.values()), slab, t_now, T)
        while heap:
            t, x, y, u = heappop(heap)
            k = occ.get(x, 0)
            if k == 0 or y > g(k):
                continue
            t_now = t
            dst = step(t, x, u, k)
            if dst is not None:
                m = cap(occ[dst])
                have = bands.get(dst, 0)
                if m > have:
                    bands[dst] = m
                    draw(dst, have, m, slab)


def simulate(eta0: Configuration, rate: RateFn, kernel: Kernel,
             policy: BoundaryPolicy, T: float, noise: HarrisNoise,
             tag: str = "") -> Trajectory:
    """One path of the process under the shared-noise construction."""
    _validate_run(eta0, rate, kernel, policy, T)
    d = eta0.d
    g = rate.g
    occ: dict[Site, int] = dict(eta0.occ)
    events = []

    def step(t, x, u, k):
        dst, kind = route(policy, x, sample_jump(kernel, u))
        if kind is None:
            return None
        if k == 1:
            del occ[x]
        else:
            occ[x] = k - 1
        events.append((t, x, dst, kind, tag))
        if kind == "kill":
            return None
        occ[dst] = occ.get(dst, 0) + 1
        return dst

    _run_thinning(occ, g, T, noise, step)

    return Trajectory(d=d, initial=eta0, events=events,
                      final=Configuration(d, occ), T=T,
                      policy=policy.describe(),
                      seed_desc=f"harris:{noise.master}:{noise.path}")


def simulate_gillespie(eta0: Configuration, rate: RateFn, kernel: Kernel,
                       policy: BoundaryPolicy, T: float, rng_or_seed,
                       tag: str = "") -> Trajectory:
    """Same law as simulate(), via total-rate exponential clocks. Serves as
    the distributional oracle against the thinning construction."""
    _validate_run(eta0, rate, kernel, policy, T)
    d = eta0.d
    g = rate.g
    rng = (derived_rng(rng_or_seed, TAG_GILLESPIE)
           if isinstance(rng_or_seed, (int, np.integer)) else rng_or_seed)
    occ: dict[Site, int] = dict(eta0.occ)
    events = []
    t = 0.0
    while True:
        total = 0.0
        for k in occ.values():
            total += g(k)
        if total <= 0.0:
            break
        t += rng.exponential(1.0 / total)
        if t > T:
            break
        r = rng.random() * total
        acc = 0.0
        x = None
        for site, k in occ.items():
            acc += g(k)
            if r < acc:
                x = site
                break
        if x is None:  # float edge: r landed on the top boundary
            x = site
        dst, kind = route(policy, x, sample_jump(kernel, rng.random()))
        if kind is None:
            continue
        k = occ[x]
        if k == 1:
            del occ[x]
        else:
            occ[x] = k - 1
        if kind != "kill":
            occ[dst] = occ.get(dst, 0) + 1
        events.append((t, x, dst, kind, tag))

    return Trajectory(d=d, initial=eta0, events=events,
                      final=Configuration(d, occ), T=T,
                      policy=policy.describe(), seed_desc="gillespie")


# ---------------------------------------------- coupled runs: box truncations

def check_domination(snaps_small: list[Configuration],
                     snaps_big: list[Configuration]) -> list[tuple[int, Site]]:
    """Sites/times where the smaller run exceeds the bigger one (should be none)."""
    bad = []
    for i, (a, b) in enumerate(zip(snaps_small, snaps_big)):
        for x, k in a.occ.items():
            if k > b.count(x):
                bad.append((i, x))
    return bad


@dataclass
class TruncationScheduleResult:
    schedule: tuple[int, ...]
    trajectories: list[Trajectory]
    snapshots: list[list[Configuration]]   # per level, at snapshot_times
    snapshot_times: tuple[float, ...]
    stabilized_fraction: float   # sites of the smallest box where the last two
    origin_stabilized: bool      # levels agree at every snapshot time


def simulate_truncation_schedule(base: Configuration, schedule, rate: RateFn,
                                 kernel: Kernel, T: float, noise: HarrisNoise,
                                 snapshot_times=None) -> TruncationScheduleResult:
    """Run the open process from the truncations of base to each box
    [-n, n]^d of the schedule, all levels reading the same noise field; base
    is the start on the largest box. The levels must be pathwise
    non-decreasing in the box; any violation is a hard failure."""
    schedule = tuple(int(n) for n in schedule)
    if len(schedule) < 2 or any(b <= a for a, b in zip(schedule, schedule[1:])):
        raise ConfigError("schedule must be strictly increasing with >= 2 levels")
    d = kernel.d
    if snapshot_times is None:
        snapshot_times = tuple((i + 1) * T / 10.0 for i in range(10))
    snapshot_times = tuple(float(t) for t in snapshot_times)

    trajs = []
    snaps = []
    for n in schedule:
        eta_n = truncate(base, n)
        traj = simulate(eta_n, rate, kernel, OPEN, T, noise, tag=f"n={n}")
        trajs.append(traj)
        snaps.append(snapshots(traj, snapshot_times))
    for lo in range(len(schedule) - 1):
        bad = check_domination(snaps[lo], snaps[lo + 1])
        if bad:
            i, x = bad[0]
            raise InvariantViolation(
                f"box monotonicity violated: level n={schedule[lo]} exceeds "
                f"n={schedule[lo + 1]} at t={snapshot_times[i]}, site {x!r}")

    window = box_sites(schedule[0], d)
    a, b = snaps[-2], snaps[-1]
    stable = sum(1 for x in window
                 if all(sa.count(x) == sb.count(x) for sa, sb in zip(a, b)))
    origin: Site = 0 if d == 1 else (0,) * d
    origin_ok = all(sa.count(origin) == sb.count(origin) for sa, sb in zip(a, b))
    return TruncationScheduleResult(
        schedule=schedule, trajectories=trajs, snapshots=snaps,
        snapshot_times=snapshot_times,
        stabilized_fraction=stable / len(window), origin_stabilized=origin_ok)


# --------------------------------------------- coupled runs: the (p,q) family

@dataclass
class PQFamilyResult:
    pq_values: tuple[tuple[float, float], ...]
    labels: list[Site]                   # initial position per label index
    snapshot_times: tuple[float, ...]
    positions: dict                      # (p,q) -> int array [n_snaps, n_particles]
    trajectories: dict                   # (p,q) -> Trajectory
    violations: list                     # (pq, snap_idx, label) order breaches


def _simulate_labeled_pq(eta0: Configuration, rate: RateFn, p: float, T: float,
                         noise: HarrisNoise, snapshot_times, labels0,
                         tag: str) -> tuple[Trajectory, np.ndarray]:
    """d=1 nearest-neighbour run tracking labelled particles.

    Direction convention: the atom mark u sends the particle right iff u <= p.
    On a right jump the highest label present leaves the site; on a left jump
    the lowest. This is the convention that makes the family order-preserving.
    """
    g = rate.g
    site_labels: dict[int, list[int]] = {}
    pos = np.empty(len(labels0), dtype=np.int64)
    for lab, x in enumerate(labels0):
        site_labels.setdefault(x, []).append(lab)
        pos[lab] = x
    for labs in site_labels.values():
        labs.sort()

    occ = {x: len(labs) for x, labs in site_labels.items()}
    out = np.empty((len(snapshot_times), len(labels0)), dtype=np.int64)
    snap_i = 0
    events = []

    def step(t, x, u, k):
        nonlocal snap_i
        while snap_i < len(snapshot_times) and t > snapshot_times[snap_i]:
            out[snap_i] = pos
            snap_i += 1
        labs = site_labels[x]
        if u <= p:
            dst, lab = x + 1, labs.pop()      # rightward: highest label leaves
        else:
            dst, lab = x - 1, labs.pop(0)     # leftward: lowest label leaves
        if k == 1:
            del occ[x]
        else:
            occ[x] = k - 1
        insort(site_labels.setdefault(dst, []), lab)
        occ[dst] = occ.get(dst, 0) + 1
        pos[lab] = dst
        events.append((t, x, dst, "jump", tag))
        return dst

    _run_thinning(occ, g, T, noise, step)
    while snap_i < len(snapshot_times):
        out[snap_i] = pos
        snap_i += 1

    traj = Trajectory(d=1, initial=eta0, events=events,
                      final=Configuration(1, occ), T=T, policy="open",
                      seed_desc=f"harris:{noise.master}:{noise.path}")
    return traj, out


def simulate_pq_family(eta0: Configuration, rate: RateFn, T: float,
                       noise: HarrisNoise, pq_list, snapshot_times=None,
                       strict: bool = True) -> PQFamilyResult:
    """Simultaneous d=1 nearest-neighbour runs for several drift parameters
    off one noise field, with labelled particles. Checks the sandwich

        X_i^{(0,1)}(t) <= X_i^{(p,q)}(t) <= X_i^{(1,0)}(t)

    for every label at every snapshot; violations are a hard failure when
    strict (they falsify the coupling, not the statistics).

    Labels are assigned left to right in eta0. Together with the removal
    convention (highest label leaves on a right jump, lowest on a left jump)
    this keeps each run's label positions sorted for all time, so label i is
    always the i-th leftmost particle and the inequality above is a pathwise
    consequence of shared noise plus monotone rates. Any other initial
    enumeration breaks the sorted invariant and with it the per-label bound."""
    if eta0.d != 1:
        raise ConfigError("the (p,q) family construction is d=1 only")
    pqs = []
    for p, q in pq_list:
        if p < 0 or q < 0 or abs(p + q - 1.0) > 1e-12:
            raise ConfigError(f"(p, q) = {(p, q)} must be non-negative with p + q = 1")
        pqs.append((float(p), float(q)))
    for ext in ((1.0, 0.0), (0.0, 1.0)):
        if ext not in pqs:
            pqs.append(ext)
    if snapshot_times is None:
        snapshot_times = tuple((i + 1) * T / 8.0 for i in range(8))
    snapshot_times = tuple(float(t) for t in snapshot_times)

    labels0 = sorted(enumerate_particles(eta0, 0))
    positions = {}
    trajectories = {}
    for p, q in pqs:
        traj, posarr = _simulate_labeled_pq(eta0, rate, p, T, noise,
                                            snapshot_times, labels0,
                                            tag=f"p={p:g},q={q:g}")
        positions[(p, q)] = posarr
        trajectories[(p, q)] = traj

    lo = positions[(0.0, 1.0)]
    hi = positions[(1.0, 0.0)]
    violations = []
    for pq in pqs:
        arr = positions[pq]
        bad = np.argwhere((arr < lo) | (arr > hi))
        for si, lab in bad:
            violations.append((pq, int(si), int(lab)))
    if violations and strict:
        pq, si, lab = violations[0]
        raise InvariantViolation(
            f"(p,q) family order violated for pq={pq} at snapshot {si}, label {lab}")
    return PQFamilyResult(pq_values=tuple(pqs), labels=labels0,
                          snapshot_times=snapshot_times, positions=positions,
                          trajectories=trajectories, violations=violations)
