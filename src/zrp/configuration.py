"""Finite particle configurations and event-log trajectories.

A configuration is a sparse map site -> occupancy (>= 1 entries only). All
operations are pure: they return new configurations.

A trajectory is the initial configuration plus the ordered event list; the
final state is redundant by design so that replay() can audit every run;
every other reader walks the log forward through states(), the one such walk.
Event kinds: "jump" (mass moved src -> dst), "kill" (mass left the system at
src; dst records where it would have landed), "periodic-wrap" (a jump whose
target was folded back onto the torus).
"""
from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field
from numbers import Integral

import numpy as np

from .errors import ConfigError, InvariantViolation, brief, json_number
from .sites import (Site, box_radius, max_norm, site_coords, site_from_coords,
                    site_sub, validate_site)

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


def _trusted(d: int, occ: dict[Site, int]) -> Configuration:
    """Configuration(d, occ), unchecked and uncopied, for a dict built valid."""
    cfg = object.__new__(Configuration)
    object.__setattr__(cfg, "d", d)
    object.__setattr__(cfg, "occ", occ)
    return cfg


def truncate(cfg: Configuration, n: int) -> Configuration:
    """Zero out everything outside the max-norm box [-n, n]^d."""
    n = box_radius(n, "truncate")
    return _trusted(cfg.d, {x: k for x, k in cfg.occ.items() if max_norm(x) <= n})


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
    d = json_number(d, "dimension", Integral)
    if not isinstance(entries, list):
        raise ConfigError(f"configuration sites {brief(entries)} are not a list")
    occ: dict[Site, int] = {}
    for ent in entries:
        try:
            x = site_from_coords(ent["x"], d)
            n = json_number(ent["n"], "occupancy", Integral)
        except (KeyError, TypeError, ValueError) as e:
            raise ConfigError(f"bad site entry {brief(ent)}: {e}") from None
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
    move(occ, src, None if kind == "kill" else dst)


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


def states(traj: Trajectory, times):
    """Yield the state after every event at or before each of the
    non-decreasing times within [0, T]. Each yield is one live dict, updated
    in place: copy it to keep it. The walk allocates nothing per event."""
    occ = dict(traj.initial.occ)
    i = 0
    events = traj.events
    t_prev = 0.0
    for t in times:
        if not (0.0 <= t <= traj.T):
            raise ConfigError(f"snapshot time {t} outside [0, {traj.T}]")
        if t < t_prev:
            raise ConfigError(f"snapshot times decrease: {t_prev} -> {t}")
        t_prev = t
        while i < len(events) and events[i][0] <= t:
            _apply_event(occ, events[i])
            i += 1
        yield occ


def snapshots(traj: Trajectory, times) -> list[Configuration]:
    """States at the given non-decreasing times within [0, T]."""
    return [_trusted(traj.d, dict(occ)) for occ in states(traj, times)]


class _SiteNames(dict):
    """site -> its CSV spelling "c1;c2;...", each spelled once per log."""

    def __missing__(self, x: Site) -> str:
        name = self[x] = ";".join(map(str, site_coords(x)))
        return name


def events_csv_string(traj: Trajectory) -> str:
    """Columns: time, src, dst, kind, marginal. Deterministic byte-for-byte."""
    names = _SiteNames()
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["time", "src", "dst", "kind", "marginal"])
    w.writerows((repr(float(t)), names[src], names[dst], kind, tag)
                for t, src, dst, kind, tag in traj.events)
    return buf.getvalue()


def events_json_string(traj: Trajectory) -> str:
    """{"events": [{t, src, dst, kind, marginal}, ...]}, byte-for-byte stable."""
    evs = [{"t": t, "src": list(site_coords(s)), "dst": list(site_coords(d)),
            "kind": k, "marginal": m} for (t, s, d, k, m) in traj.events]
    return json.dumps({"events": evs}, sort_keys=True, indent=1) + "\n"


def trajectory_summary(traj: Trajectory) -> dict:
    return {
        "final_config": config_to_json(traj.final),
        "event_count": traj.event_count(),
        "kill_count": traj.kill_count(),
        "T": traj.T,
        "policy": traj.policy,
        "seed": traj.seed_desc,
    }
