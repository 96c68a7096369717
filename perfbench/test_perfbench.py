"""Tests of the benchmark itself, at a tiny size.

    python -m pytest perfbench -q
"""
import contextlib
import io
import json
import shutil
import subprocess
import sys

import pytest

import run
import tracer

run.load_zrp()
from workloads import WORKLOADS  # noqa: E402  (needs zrp on the path)

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _bench(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = run.main(argv, size="tiny")
    return code, json.loads(buf.getvalue().splitlines()[-1])


def test_workloads_match_the_spec():
    assert {w["name"]: w["why"] for w in SPEC["workloads"]} == \
        {name: wl.why for name, wl in WORKLOADS.items()}


@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_every_workload_emits_every_metric(trace, kind):
    code, result = _bench(["--workload", "all", "--seed", "3", "--seconds", "0",
                           "--trace", str(trace)])
    assert code == 0 and result["correct"] and result["failed"] == 0
    assert result["attempted"] >= len(SPEC["workloads"])
    expected = {f"{w['name']}/{m['name']}": m["unit"]
                for w in SPEC["workloads"] for m in SPEC[kind]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for key, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), key
        if kind == "end_to_end":
            assert metric["value"] > 0, key


def test_a_dropped_event_fails_the_run(monkeypatch):
    from zrp import engine
    simulate = engine.simulate

    def drop_one(*args, **kwargs):
        traj = simulate(*args, **kwargs)
        del traj.events[len(traj.events) // 2]
        return traj

    monkeypatch.setattr(engine, "simulate", drop_one)
    code, result = _bench(["--workload", "torus-d1-long", "--seed", "3",
                           "--seconds", "0"])
    assert code != 0
    assert not result["correct"] and result["failed"] >= 1


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    res = subprocess.run([sys.executable, *SPEC["command"][1:],
                          "--workload", "torus-d1-long", "--seed", "1",
                          "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert res.returncode != 0
    assert '"correct"' not in res.stdout


def test_self_time_hands_replica_map_time_to_its_caller():
    spans = [("diagnostics.check", 0.0, 10.0, -1, 0),
             ("parallel.replica_map", 1.0, 9.0, 0, 0),
             ("engine.simulate", 2.0, 5.0, 1, 7),
             ("noise.window", 3.0, 4.0, 2, 2)]
    assert tracer.self_times(spans) == [7.0, 0.0, 2.0, 1.0]
    metrics = tracer.layer_metrics(spans, 8.0, 5.0, 2)
    assert metrics["diagnostics.self_s"] == (7.0, "s")
    assert metrics["engine.fired_per_atom"] == (3.5, "ratio")
    assert metrics["noise.window.hit_ratio"] == (1.0, "ratio")
    assert metrics["parallel.replica_map.efficiency"] == (0.8, "ratio")
