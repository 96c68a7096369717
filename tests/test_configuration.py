import json

import numpy as np
import pytest

from zrp.configuration import (
    Configuration,
    Trajectory,
    config_from_json,
    config_to_json,
    enumerate_particles,
    events_csv_string,
    intervals,
    replay,
    snapshots,
    trajectory_summary,
    truncate,
)
from zrp.engine import OPEN, check_domination, killed, simulate
from zrp.errors import ConfigError, InvariantViolation
from zrp.kernel import nn_kernel_1d
from zrp.noise import HarrisNoise
from zrp.rates import power_rate


def _traj(T=1.0, seed=42, policy=OPEN, occ=None):
    cfg = Configuration(1, occ or {0: 2, 1: 1})
    return simulate(cfg, power_rate(2.0), nn_kernel_1d(0.5), policy, T,
                    HarrisNoise(seed))


def test_configuration_validation():
    with pytest.raises(ConfigError):
        Configuration(0, {})
    with pytest.raises(ConfigError):
        Configuration(1, {0: -1})
    with pytest.raises(ConfigError):
        Configuration(1, {0: 1.5})
    with pytest.raises(ConfigError):
        Configuration(2, {0: 1})  # site dim mismatch


def test_configuration_drops_empty_sites():
    c = Configuration(1, {0: 2, 5: 0})
    assert c.count(5) == 0
    assert 5 not in c.occ
    assert c.total() == 2


def test_truncate_keeps_box():
    c = Configuration(1, {-5: 1, 0: 2, 3: 1})
    assert truncate(c, 3).occ == {0: 2, 3: 1}
    c2 = Configuration(2, {(0, 0): 1, (2, 1): 1})
    assert truncate(c2, 1).occ == {(0, 0): 1}
    # radius 0 keeps the origin alone
    assert truncate(c, 0).occ == {0: 2}
    assert truncate(Configuration(2, {(0, 0): 3, (0, 1): 1}), 0).occ == {(0, 0): 3}


def test_leq_partial_order():
    # the sitewise order, read through the engine's domination check:
    # b exceeds a at sites 0 and 2
    a = Configuration(1, {0: 1, 1: 1})
    b = Configuration(1, {0: 2, 1: 1, 2: 3})
    assert check_domination([a], [b]) == []
    assert check_domination([b], [a]) == [(0, 0), (0, 2)]
    assert check_domination([a], [a]) == []
    with pytest.raises(ConfigError):
        check_domination([a], [Configuration(2, {(0, 0): 1})])


def test_enumerate_particles_distance_order():
    c = Configuration(1, {-1: 2, 0: 1, 3: 1})
    # distance to 0 sorts 0 first, then the pair at -1, then 3
    assert enumerate_particles(c, 0) == [0, -1, -1, 3]
    # distance to 3 reverses the ranking
    assert enumerate_particles(c, 3) == [3, 0, -1, -1]


def test_enumerate_particles_tie_break_is_lexicographic():
    c = Configuration(2, {(0, 1): 1, (1, 0): 1, (0, 0): 1})
    assert enumerate_particles(c, (0, 0)) == [(0, 0), (0, 1), (1, 0)]


def test_config_json_roundtrip():
    for c in (Configuration(1, {-2: 1, 0: 3}), Configuration(2, {(0, 1): 2})):
        assert config_from_json(config_to_json(c)) == c
    with pytest.raises(ConfigError):
        config_from_json({"d": 1})
    with pytest.raises(ConfigError):
        config_from_json({"d": 1, "sites": [{"x": [0], "n": 1}, {"x": [0], "n": 2}]})


def test_replay_matches_final():
    t = _traj(T=2.0)
    assert replay(t) == t.final


def test_replay_rejects_tampered_log():
    t = _traj(T=2.0)
    bad = Trajectory(d=t.d, initial=t.initial, events=t.events[:-1],
                     final=t.final, T=t.T, policy=t.policy, seed_desc=t.seed_desc)
    if t.events:
        with pytest.raises(InvariantViolation):
            replay(bad)


def test_replay_rejects_out_of_order_times():
    t = _traj(T=2.0)
    if len(t.events) >= 2:
        ev = [t.events[1], t.events[0]] + list(t.events[2:])
        bad = Trajectory(d=t.d, initial=t.initial, events=ev, final=t.final,
                         T=t.T, policy=t.policy, seed_desc=t.seed_desc)
        with pytest.raises(InvariantViolation):
            replay(bad)


def _one_event_log(ev, initial=None):
    initial = initial or Configuration(1, {0: 1, 2: 1})
    return Trajectory(d=1, initial=initial, events=[ev], final=initial, T=1.0)


def test_replay_rejects_an_event_from_an_empty_site():
    with pytest.raises(InvariantViolation, match="empty"):
        replay(_one_event_log((0.5, 1, 2, "jump", "")))


def test_replay_rejects_an_unknown_kind():
    with pytest.raises(InvariantViolation, match="unknown event kind"):
        replay(_one_event_log((0.5, 0, 1, "teleport", "")))


def test_replay_self_wrap_leaves_the_configuration_unchanged():
    t = _one_event_log((0.5, 0, 0, "periodic-wrap", ""))
    assert replay(t) == t.initial


def test_snapshots_at_times():
    t = _traj(T=2.0)
    snaps = snapshots(t, [0.0, 1.0, 2.0])
    assert snaps[0] == t.initial
    assert snaps[-1] == t.final
    with pytest.raises(ConfigError):
        snapshots(t, [2.5])
    with pytest.raises(ConfigError, match=r"snapshot times decrease: 2.0 -> 0.5"):
        snapshots(t, [2.0, 0.5])


def test_intervals_walk_is_consistent():
    t = _traj(T=2.0)
    tot = 0.0
    last_end = 0.0
    seen_initial = False
    for t0, t1, occ in intervals(t):
        assert t1 > t0
        assert t0 == pytest.approx(last_end)
        if t0 == 0.0:
            assert occ == t.initial.occ
            seen_initial = True
        tot += t1 - t0
        last_end = t1
    assert seen_initial
    assert tot == pytest.approx(t.T)


def test_events_csv_layout():
    t = _traj(T=1.0)
    lines = events_csv_string(t).strip().splitlines()
    assert lines[0] == "time,src,dst,kind,marginal"
    assert len(lines) == len(t.events) + 1
    first = lines[1].split(",")
    assert float(first[0]) == t.events[0][0]


def test_summary_fields():
    t = _traj(T=1.0, policy=killed(3), occ={0: 2, 1: 1})
    s = trajectory_summary(t)
    assert s["event_count"] == len(t.events)
    assert s["T"] == 1.0
    assert s["policy"] == "killed(3)"
    assert "kill_count" in s
    json.loads(json.dumps(s, sort_keys=True))  # JSON-serialisable


def test_kill_events_remove_mass():
    t = simulate(Configuration(1, {0: 2, 1: 1}), power_rate(2.0),
                 nn_kernel_1d(0.5), killed(1), 3.0, HarrisNoise(42))
    kills = [e for e in t.events if e[3] == "kill"]
    assert t.final.total() == t.initial.total() - len(kills)
    assert t.kill_count() == len(kills)
    assert replay(t) == t.final
