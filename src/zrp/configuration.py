"""Finite particle configurations and event-log trajectories.

A configuration is a sparse map site -> occupancy (>= 1 entries only). All
operations are pure: they return new configurations.

A trajectory is the initial configuration plus the ordered event list; the
final state is redundant by design so that replay() can audit every run.
Event kinds: "jump" (mass moved src -> dst), "kill" (mass left the system at
src; dst records where it would have landed), "periodic-wrap" (a jump whose
target was folded back onto the torus).
"""
from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field
from numbers import Integral

import numpy as np

from .errors import ConfigError, InvariantViolation, json_number
from .sites import (Site, max_norm, site_coords, site_from_coords, site_sub,
                    validate_site)

EVENT_KINDS = ("jump", "kill", "periodic-wrap")

# event tuple layout: (time, src, dst, kind, marginal_tag)
Event = tuple[float, Site, Site, str, str]


@dataclass(frozen=True)
class Configuration:
    d: int
    occ: dict[Site, int] = field(default_factory=dict)

    def __post_init__(self):
        if self.d < 1:
            raise ConfigError("dimension must be >= 1")
        clean: dict[Site, int] = {}
        for x, k in self.occ.items():
            x = validate_site(x, self.d)
            if isinstance(k, bool) or not isinstance(k, (int, np.integer)):
                raise ConfigError(f"occupancy at {x!r} must be an int, got {k!r}")
            k = int(k)
            if k < 0:
                raise ConfigError(f"occupancy at {x!r} is negative")
            if k > 0:
                clean[x] = k
        object.__setattr__(self, "occ", clean)

    def count(self, x: Site) -> int:
        return self.occ.get(x, 0)

    def sites(self):
        return self.occ.keys()

    def total(self) -> int:
        return sum(self.occ.values())

    def __eq__(self, other):
        return isinstance(other, Configuration) and self.d == other.d and self.occ == other.occ


def truncate(cfg: Configuration, n: int) -> Configuration:
    """Zero out everything outside the max-norm box [-n, n]^d."""
    if n < 0:
        raise ConfigError("box radius must be >= 0")
    return Configuration(cfg.d, {x: k for x, k in cfg.occ.items() if max_norm(x) <= n})


def leq(a: Configuration, b: Configuration) -> bool:
    """Coordinatewise order: a(x) <= b(x) everywhere."""
    if a.d != b.d:
        raise ConfigError("configurations live in different dimensions")
    return all(k <= b.count(x) for x, k in a.occ.items())


def cesaro_profile(cfg: Configuration, n_max: int):
    """Box averages rho_n = (sum over [-n,n]^d) / (2n+1)^d for n = 1..n_max.

    Returns (profile, bounded_flag). The flag is advisory: it compares the
    median over the top half of the profile against twice the median over the
    first half, so linear growth is flagged unbounded while constant-density
    and decaying profiles pass.
    """
    if n_max < 2:
        raise ConfigError("n_max must be >= 2")
    d = cfg.d
    norms = [(max_norm(x), k) for x, k in cfg.occ.items()]
    profile = np.empty(n_max)
    for n in range(1, n_max + 1):
        tot = sum(k for r, k in norms if r <= n)
        profile[n - 1] = tot / float((2 * n + 1) ** d)
    half = n_max // 2
    bounded = bool(np.median(profile[half:]) <= 2.0 * np.median(profile[:half]))
    return profile, bounded


def enumerate_particles(cfg: Configuration, z: Site) -> list[Site]:
    """Particle positions ordered by max-norm distance to z, ties broken
    lexicographically; a site with k particles appears k times in a row."""
    z = validate_site(z, cfg.d)
    ordered = sorted(cfg.occ.items(),
                     key=lambda it: (max_norm(site_sub(it[0], z)), site_coords(it[0])))
    out: list[Site] = []
    for x, k in ordered:
        out.extend([x] * k)
    return out


# ---------------------------------------------------------------- JSON forms

def config_to_json(cfg: Configuration) -> dict:
    sites = sorted(cfg.occ.items(), key=lambda it: site_coords(it[0]))
    return {"d": cfg.d, "sites": [{"x": list(site_coords(x)), "n": k} for x, k in sites]}


def config_from_json(obj: dict) -> Configuration:
    try:
        d, entries = obj["d"], obj["sites"]
    except (KeyError, TypeError) as e:
        raise ConfigError(f"configuration spec needs 'd' and 'sites': {e}") from None
    d = int(json_number(d, "dimension", Integral))
    if not isinstance(entries, list):
        raise ConfigError(f"configuration sites {entries!r} are not a list")
    occ: dict[Site, int] = {}
    for ent in entries:
        try:
            x = site_from_coords(ent["x"], d)
            n = int(json_number(ent["n"], "occupancy", Integral))
        except (KeyError, TypeError, ValueError) as e:
            raise ConfigError(f"bad site entry {ent!r}: {e}") from None
        if x in occ:
            raise ConfigError(f"duplicate site {ent['x']!r}")
        occ[x] = n
    return Configuration(d, occ)


# ---------------------------------------------------------------- trajectories

@dataclass
class Trajectory:
    d: int
    initial: Configuration
    events: list[Event]
    final: Configuration
    T: float
    policy: str = "open"
    seed_desc: str = ""

    def event_count(self) -> int:
        return len(self.events)

    def kill_count(self) -> int:
        return sum(1 for e in self.events if e[3] == "kill")


def move(occ: dict[Site, int], x: Site, dst: Site | None) -> None:
    """Take one particle from the occupied site x and add one at dst; dst None
    removes it. Every occupancy update of a run or a replay goes through here."""
    k = occ[x]
    if k == 1:
        del occ[x]
    else:
        occ[x] = k - 1
    if dst is not None:
        occ[dst] = occ.get(dst, 0) + 1


def _apply_event(occ: dict[Site, int], ev: Event) -> None:
    t, src, dst, kind, _tag = ev
    if occ.get(src, 0) < 1:
        raise InvariantViolation(f"event at t={t}: source {src!r} is empty")
    if kind not in EVENT_KINDS:
        raise InvariantViolation(f"unknown event kind {kind!r}")
    if kind == "kill":
        move(occ, src, None)
    elif dst != src:  # a wrap can fold a jump back onto its source; net no-op
        move(occ, src, dst)


def replay(traj: Trajectory) -> Configuration:
    """Re-apply the event list to the initial state and audit the log.

    Raises InvariantViolation if times are not non-decreasing, any event fires
    from an empty site, or the result differs from the recorded final state.
    """
    occ = dict(traj.initial.occ)
    t_prev = 0.0
    for ev in traj.events:
        t = ev[0]
        if not (0.0 <= t <= traj.T):
            raise InvariantViolation(f"event time {t} outside [0, {traj.T}]")
        if t < t_prev:
            raise InvariantViolation(f"event times decrease: {t_prev} -> {t}")
        t_prev = t
        _apply_event(occ, ev)
    final = Configuration(traj.d, occ)
    if final != traj.final:
        raise InvariantViolation("replayed final state differs from recorded final state")
    return final


def snapshots(traj: Trajectory, times) -> list[Configuration]:
    """States at the given (sorted, within [0, T]) times."""
    out = []
    occ = dict(traj.initial.occ)
    i = 0
    events = traj.events
    for t in times:
        if not (0.0 <= t <= traj.T):
            raise ConfigError(f"snapshot time {t} outside [0, {traj.T}]")
        while i < len(events) and events[i][0] <= t:
            _apply_event(occ, events[i])
            i += 1
        out.append(Configuration(traj.d, dict(occ)))
    return out


def intervals(traj: Trajectory):
    """Yield (t0, t1, occ) over the piecewise-constant path.

    occ is a live working dict reused between yields: read it during the
    iteration step only, and copy it if you keep it. In exchange the walk
    costs no allocation per event, which matters in replica loops."""
    occ = dict(traj.initial.occ)
    t0 = 0.0
    for ev in traj.events:
        t1 = ev[0]
        if t1 > t0:
            yield t0, t1, occ
        _apply_event(occ, ev)
        t0 = t1
    if traj.T > t0:
        yield t0, traj.T, occ


def _fmt_time(t: float) -> str:
    return repr(float(t))


def _fmt_site(x: Site) -> str:
    return ";".join(str(c) for c in site_coords(x))


def events_csv_string(traj: Trajectory) -> str:
    """Columns: time, src, dst, kind, marginal. Deterministic byte-for-byte."""
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["time", "src", "dst", "kind", "marginal"])
    for t, src, dst, kind, tag in traj.events:
        w.writerow([_fmt_time(t), _fmt_site(src), _fmt_site(dst), kind, tag])
    return buf.getvalue()


def trajectory_summary(traj: Trajectory) -> dict:
    return {
        "final_config": config_to_json(traj.final),
        "event_count": traj.event_count(),
        "kill_count": traj.kill_count(),
        "T": traj.T,
        "policy": traj.policy,
        "seed": traj.seed_desc,
    }
