"""Event-driven simulators for the zero-range process.

simulate() runs the thinning construction on the lazy Poisson field: take the
earliest pending atom (t, y, u) at site x, fire iff the current occupancy k
satisfies y <= g(k), route the displaced particle through the jump kernel and
the boundary policy. Atoms above g(k) are discarded. Height caps follow the
occupancy one time slab at a time: at each slab start a site holding k
particles draws bands_for(g(k)) bands, whose ceiling is 1 for g(k) <= 1 and
lies in [g(k), 2 g(k)) above that, all sites in one HarrisNoise.slab_atoms
call, which a numpy batch makes with the bands of g(k + 1) as spares if the
run has met k + 1. The slab's atoms go on one heap, popped in (t, site, y, u)
order, onto which a landing that raises a site's cap pushes the site's missing
bands: spares still ahead, then the rest in one band_atoms call. A fall keeps
what was drawn until the slab ends. A slab start draws atoms up to T, a rise
those after it, and only the ceil(T) slabs that start before T are drawn: at
an integer T that leaves out an atom at t = T, whose time word is exactly 0 in
slab T (probability 2^-53 per atom). Both simulators move a fired particle
through _fire, the one place a run draws a jump, routes, moves and logs.

A run reads g(k) and its band count from lists grown through rate.g, so its
monotonicity check runs once per new k. A route is a pure function of the
policy, the site and the jump, so _fire takes it from _ROUTES, one table per
(policy, kernel) that every run in the process shares (runs, replicas,
coupled copies and criteria alike): it maps (site, kernel support index) to
route()'s (dst, kind). It holds one entry per distinct (site, index) pair
that the runs of each model reach, about 170 bytes an entry in d=1 and 240
in d=2, and it is never emptied.

simulate_gillespie() is the independent distributional cross-check: identical
law, completely different use of randomness (global exponential clocks).

simulate_truncation_schedule() and simulate_pq_family() run several coupled
copies off one shared noise field, each copy a plain simulate() run. The
first runs the truncations of one start on the largest box to each smaller
box and checks that occupancies are monotone in the box; the second runs the
d=1 nearest-neighbour kernel for several drifts p and checks that the sorted
particle positions at each snapshot are ordered in p.
"""
from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from heapq import heapify, heappop, heappush

import numpy as np

from .configuration import (Configuration, Trajectory, _trusted, move,
                            snapshots, truncate)
from .errors import ConfigError, InvariantViolation, json_number
from .kernel import Kernel, nn_kernel_1d, sample_jump
from .noise import HarrisNoise, TIME_SLAB, bands_for
from .rates import RateFn
from .sites import Site, box_radius, box_sites, in_box, origin, site_add, wrap


@dataclass(frozen=True)
class BoundaryPolicy:
    kind: str            # "open" | "killed" | "periodic"
    n: int | None = None  # box radius for killed/periodic: [-n, n]^d

    def __post_init__(self):
        if self.kind == "open":
            if self.n is not None:
                raise ConfigError("open boundary takes no box")
        elif self.kind in ("killed", "periodic"):
            n = box_radius(self.n, f"{self.kind} boundary")
            object.__setattr__(self, "n", n)  # a plain int: equal policies share _ROUTES
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
    dst = wrap(raw, 2 * policy.n + 1)
    if dst == x:
        return dst, None
    return dst, "jump" if dst == raw else "periodic-wrap"


def horizon(T) -> float:
    """T, a positive finite number, as a float."""
    T = json_number(T, "horizon T")
    if not 0 < T < math.inf:
        raise ConfigError(f"horizon T must be positive and finite, got {T!r}")
    return T


def _validate_run(eta0: Configuration, rate: RateFn, kernel: Kernel,
                  policy: BoundaryPolicy, T: float) -> None:
    if kernel.d != eta0.d:
        raise ConfigError(f"kernel d={kernel.d} vs configuration d={eta0.d}")
    horizon(T)  # the run keeps T as given, so its log records it unchanged
    if policy.kind != "open":
        for x in eta0.sites():
            if not in_box(x, policy.n):
                raise ConfigError(
                    f"initial site {x!r} outside the {policy.describe()} box")


# (policy, kernel) -> {(site, kernel support index): route()'s (dst, kind)}
_ROUTES: dict[tuple[BoundaryPolicy, Kernel], dict] = {}


def _fire(occ: dict, events: list, moves: dict, policy: BoundaryPolicy,
          kernel: Kernel, t: float, x: Site, u: float, tag: str) -> Site | None:
    """Fire the particle at x with mark u: route the displacement
    sample_jump(kernel, u), move it, log the event and return the site it
    landed on (None for a kill or for a wrap onto x, which is no event);
    moves is _ROUTES[policy, kernel]."""
    key = (x, bisect_right(kernel.cum, u))
    # kept for speed: a miss costs a sample_jump and a route(); shared by all
    # runs of a model, the table misses once per (site, index) pair they reach
    hit = moves.get(key)
    if hit is None:
        hit = moves[key] = route(policy, x, sample_jump(kernel, u))
    dst, kind = hit
    if kind is None:
        return None
    events.append((t, x, dst, kind, tag))
    if kind == "kill":
        dst = None
    move(occ, x, dst)
    return dst


def simulate(eta0: Configuration, rate: RateFn, kernel: Kernel,
             policy: BoundaryPolicy, T: float, noise: HarrisNoise,
             tag: str = "") -> Trajectory:
    """One path under the shared-noise construction. Each slab's atoms go on one
    heap, popped in (t, site, y, u) order, onto which a landing that raises a
    site's cap pushes the missing bands: each atom that can fire is due in turn."""
    _validate_run(eta0, rate, kernel, policy, T)
    occ: dict[Site, int] = dict(eta0.occ)
    events = []
    moves = _ROUTES.setdefault((policy, kernel), {})
    gs = [rate.g(k) for k in range(max(occ.values(), default=0) + 1)]
    caps = [bands_for(v) for v in gs]  # gs[k] = g(k), caps[k] its band count
    for slab in range(math.ceil(T / TIME_SLAB)):
        bands = {x: caps[k] for x, k in occ.items()}
        ahead = [caps[k + 1] if k + 1 < len(caps) else caps[k] for k in occ.values()]
        atoms, (ts, ys, us, spans) = noise.slab_atoms(list(bands), list(bands.values()),
                                                      ahead, slab, T)
        heapify(atoms)
        while atoms:
            t, x, y, u = heappop(atoms)
            k = occ.get(x, 0)
            if k == 0 or y > gs[k]:
                continue
            dst = _fire(occ, events, moves, policy, kernel, t, x, u, tag)
            if dst is not None:
                k = occ[dst]
                if k == len(gs):  # a landing raises an occupancy by one
                    gs.append(rate.g(k))
                    caps.append(bands_for(gs[k]))
                m, have = caps[k], bands.get(dst, 0)
                if m > have:
                    bands[dst] = m
                    a, b, have = spans.pop(dst, (0, 0, have))
                    for j in range(a, b):
                        if ts[j] > t:
                            heappush(atoms, (ts[j], dst, ys[j], us[j]))
                    if m > have:
                        for atom in noise.band_atoms(dst, have, m, slab, t, T):
                            heappush(atoms, atom)

    return Trajectory(d=eta0.d, initial=eta0, events=events,
                      final=_trusted(eta0.d, occ), T=T,
                      policy=policy.describe(),
                      seed_desc=f"harris:{noise.master}:{noise.path}")


def simulate_gillespie(eta0: Configuration, rate: RateFn, kernel: Kernel,
                       policy: BoundaryPolicy, T: float,
                       rng: np.random.Generator) -> Trajectory:
    """Same law as simulate(), via total-rate exponential clocks. Serves as
    the distributional oracle against the thinning construction."""
    _validate_run(eta0, rate, kernel, policy, T)
    g = rate.g
    occ: dict[Site, int] = dict(eta0.occ)
    events = []
    moves = _ROUTES.setdefault((policy, kernel), {})
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
        _fire(occ, events, moves, policy, kernel, t, x, rng.random(), "")

    return Trajectory(d=eta0.d, initial=eta0, events=events,
                      final=_trusted(eta0.d, occ), T=T,
                      policy=policy.describe(), seed_desc="gillespie")


# ---------------------------------------------- coupled runs: box truncations

def check_domination(snaps_small: list[Configuration],
                     snaps_big: list[Configuration]) -> list[tuple[int, Site]]:
    """Sites/times where the smaller run exceeds the bigger one (should be none)."""
    bad = []
    for i, (a, b) in enumerate(zip(snaps_small, snaps_big)):
        if a.d != b.d:
            raise ConfigError("configurations live in different dimensions")
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
    [-n, n]^d of the schedule (whole radii), all levels reading one noise
    field; base is the start on the largest box and lies inside it. The levels
    must be pathwise non-decreasing in the box; any violation is a hard failure."""
    schedule = tuple(box_radius(n, "truncation schedule") for n in schedule)
    if len(schedule) < 2 or any(b <= a for a, b in zip(schedule, schedule[1:])):
        raise ConfigError("schedule must be strictly increasing with >= 2 levels")
    for x in base.sites():
        if not in_box(x, schedule[-1]):
            raise ConfigError(f"base site {x!r} lies outside the largest box, "
                              f"n={schedule[-1]}")
    d = kernel.d
    if snapshot_times is None:
        snapshot_times = tuple((i + 1) / 10 * T for i in range(10))  # the last is T
    snapshot_times = tuple(float(t) for t in snapshot_times)

    trajs = [simulate(truncate(base, n), rate, kernel, OPEN, T, noise, tag=f"n={n}")
             for n in schedule]
    snaps = [snapshots(traj, snapshot_times) for traj in trajs]
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
    o = origin(d)
    origin_ok = all(sa.count(o) == sb.count(o) for sa, sb in zip(a, b))
    return TruncationScheduleResult(
        schedule=schedule, trajectories=trajs, snapshots=snaps,
        snapshot_times=snapshot_times,
        stabilized_fraction=stable / len(window), origin_stabilized=origin_ok)


# --------------------------------------------- coupled runs: the (p,q) family

@dataclass
class PQFamilyResult:
    pq_values: tuple[tuple[float, float], ...]
    labels: list[Site]                   # sorted start positions
    snapshot_times: tuple[float, ...]
    positions: dict                      # (p,q) -> int array [n_snaps, n_particles]
    trajectories: dict                   # (p,q) -> Trajectory


def simulate_pq_family(eta0: Configuration, rate: RateFn, T: float,
                       noise: HarrisNoise, pq_list,
                       snapshot_times=None) -> PQFamilyResult:
    """Simultaneous d=1 nearest-neighbour runs for several drift parameters
    off one noise field. Member (p, q) is simulate() with nn_kernel_1d(p) on
    the open line, and X_i(t) is its i-th leftmost particle at a snapshot.
    Checks the sandwich

        X_i^{(0,1)}(t) <= X_i^{(p,q)}(t) <= X_i^{(1,0)}(t)

    for every i at every snapshot; a violation is a hard failure
    (InvariantViolation), since it falsifies the coupling, not the
    statistics. A mark u sends a particle right iff u >= 1 - p, and these
    right-jump sets grow with p, so the order is a pathwise consequence of
    shared noise plus monotone rates. The kernel is built from p alone, so
    this nesting does not depend on how the caller rounded q."""
    if eta0.d != 1:
        raise ConfigError("the (p,q) family construction is d=1 only")
    pqs = []
    for p, q in pq_list:
        if not (0.0 <= p <= 1.0 and q >= 0.0 and abs(p + q - 1.0) <= 1e-12):
            raise ConfigError(f"(p, q) = {(p, q)} must lie in [0, 1] with p + q = 1")
        pqs.append((float(p), float(q)))
    pqs += [ext for ext in ((1.0, 0.0), (0.0, 1.0)) if ext not in pqs]
    if snapshot_times is None:
        snapshot_times = tuple((i + 1) * T / 8.0 for i in range(8))
    snapshot_times = tuple(float(t) for t in snapshot_times)

    labels = sorted(x for x, k in eta0.occ.items() for _ in range(k))
    trajectories = {(p, q): simulate(eta0, rate, nn_kernel_1d(p), OPEN, T, noise,
                                     f"p={p:g},q={q:g}") for p, q in pqs}
    positions = {pq: np.array([sorted(x for x, k in snap.occ.items() for _ in range(k))
                               for snap in snapshots(traj, snapshot_times)],
                              dtype=np.int64).reshape(len(snapshot_times), len(labels))
                 for pq, traj in trajectories.items()}

    lo, hi = positions[(0.0, 1.0)], positions[(1.0, 0.0)]
    for pq in pqs:
        bad = np.argwhere((positions[pq] < lo) | (positions[pq] > hi))
        if len(bad):
            si, i = bad[0]
            raise InvariantViolation(
                f"(p,q) family order violated for pq={pq} at snapshot {si}, label {i}")
    return PQFamilyResult(pq_values=tuple(pqs), labels=labels,
                          snapshot_times=snapshot_times, positions=positions,
                          trajectories=trajectories)
