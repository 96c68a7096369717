import json
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path

import pytest

from zrp import cli
from zrp.cli import main
from zrp.diagnostics import Report

BASE = {
    "kernel": {"d": 1, "support": [{"z": [1], "p": 0.7}, {"z": [-1], "p": 0.3}]},
    "rate": {"family": "power", "a": 2.0},
    "policy": {"kind": "open"},
    "T": 0.5,
    "replicas": 2,
    "seed": 11,
    "initial": {"mode": "explicit",
                "config": {"d": 1, "sites": [{"x": [0], "n": 2}, {"x": [1], "n": 1}]}},
    "diagnostics": ["replay"],
}


def _run(args):
    # diagnostics print to stdout, error messages to stderr; capture both
    buf = StringIO()
    with redirect_stdout(buf), redirect_stderr(buf):
        code = main(args)
    return code, buf.getvalue()


def _write_cfg(tmp_path, cfg, name="exp.json"):
    p = tmp_path / name
    p.write_text(json.dumps(cfg))
    return p


def test_run_writes_artifacts(tmp_path):
    cfg = _write_cfg(tmp_path, BASE)
    out = tmp_path / "out"
    code, text = _run(["run", "--config", str(cfg), "--out", str(out)])
    assert code == 0
    assert (out / "events_r0.csv").exists()
    assert (out / "events_r1.csv").exists()
    assert (out / "summary.json").exists()
    assert (out / "manifest.json").exists()
    assert (out / "report_replay.json").exists()
    assert "replay: pass" in text
    man = json.loads((out / "manifest.json").read_text())
    assert man["replicas"] == 2
    assert man["seed"] == 11
    header = (out / "events_r0.csv").read_text().splitlines()[0]
    assert header == "time,src,dst,kind,marginal"


def test_run_is_reproducible_across_thread_counts(tmp_path):
    cfg = _write_cfg(tmp_path, BASE)
    outs = []
    for i, threads in enumerate(("1", "2")):
        out = tmp_path / f"out{i}"
        code, _ = _run(["run", "--config", str(cfg), "--out", str(out),
                        "--threads", threads])
        assert code == 0
        outs.append(out)
    for name in ("events_r0.csv", "events_r1.csv", "summary.json",
                 "report_replay.json"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


def test_seed_flag_overrides_config(tmp_path):
    cfg = _write_cfg(tmp_path, BASE)
    out1, out2, out3 = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    _run(["run", "--config", str(cfg), "--out", str(out1), "--seed", "99"])
    _run(["run", "--config", str(cfg), "--out", str(out2), "--seed", "99"])
    _run(["run", "--config", str(cfg), "--out", str(out3), "--seed", "100"])
    ev = lambda o: (o / "events_r0.csv").read_bytes()
    assert ev(out1) == ev(out2)
    assert ev(out1) != ev(out3)


def test_json_event_format(tmp_path):
    cfg = _write_cfg(tmp_path, BASE)
    out = tmp_path / "out"
    code, _ = _run(["run", "--config", str(cfg), "--out", str(out),
                    "--format", "json"])
    assert code == 0
    obj = json.loads((out / "events_r0.json").read_text())
    assert "events" in obj
    if obj["events"]:
        ev = obj["events"][0]
        assert set(ev) == {"t", "src", "dst", "kind", "marginal"}


def test_bad_json_is_config_error(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text("{not json")
    code, text = _run(["run", "--config", str(p)])
    assert code == 1
    assert "config is not valid JSON" in text


def test_missing_file_is_config_error(tmp_path):
    code, text = _run(["run", "--config", str(tmp_path / "nope.json")])
    assert code == 1
    assert "not found" in text


def test_nonmonotone_table_names_index(tmp_path):
    cfg = dict(BASE)
    cfg["rate"] = {"family": "table", "values": [0, 3, 1]}
    p = _write_cfg(tmp_path, cfg)
    code, text = _run(["run", "--config", str(p)])
    assert code == 1
    assert "k=2" in text


def test_missing_field_named_in_error(tmp_path):
    cfg = {k: v for k, v in BASE.items() if k != "T"}
    p = _write_cfg(tmp_path, cfg)
    code, text = _run(["run", "--config", str(p)])
    assert code == 1
    assert "'T'" in text


def test_unknown_diagnostic_rejected(tmp_path):
    cfg = dict(BASE)
    cfg["diagnostics"] = ["entropy"]
    p = _write_cfg(tmp_path, cfg)
    code, text = _run(["run", "--config", str(p)])
    assert code == 1
    assert "entropy" in text


def test_diagnostic_prerequisites_enforced(tmp_path):
    cfg = dict(BASE)
    cfg["diagnostics"] = ["stationarity"]  # needs periodic + product start
    p = _write_cfg(tmp_path, cfg)
    code, text = _run(["run", "--config", str(p)])
    assert code == 1
    assert "stationarity" in text


def test_failing_diagnostic_exits_two(tmp_path, monkeypatch):
    """Exit-code 2 path. Every diagnostic the CLI offers checks a true law, so
    the stationarity diagnostic is replaced by one that reports a failure;
    the CLI must print FAIL and exit 2 whatever the random stream."""
    def failing(rate, kernel, phi, torus_n, T, replicas, seed, threads=1):
        return Report(test="stationarity_statistical", passed=False,
                      statistic=1e-9, threshold=0.01, seed=seed,
                      n_replicas=replicas)
    monkeypatch.setattr(cli, "stationarity_statistical", failing)
    cfg = {
        "kernel": {"d": 1, "support": [{"z": [1], "p": 0.5}, {"z": [-1], "p": 0.5}]},
        "rate": {"family": "power", "a": 2.0},
        "policy": {"kind": "periodic", "n": 2},
        "T": 0.2,
        "replicas": 4,
        "seed": 163,
        "initial": {"mode": "product", "phi": 1.0, "n": 2},
        "diagnostics": ["stationarity"],
    }
    p = _write_cfg(tmp_path, cfg, "unlucky.json")
    code, text = _run(["run", "--config", str(p), "--out", str(tmp_path / "o")])
    assert code == 2
    assert "FAIL" in text


def test_suite_unknown_selection(tmp_path):
    code, text = _run(["suite", "nonsense"])
    assert code == 1


def test_point_initial_mode(tmp_path):
    cfg = dict(BASE)
    cfg["initial"] = {"mode": "point", "n_particles": 3, "site": [0]}
    cfg["diagnostics"] = []
    p = _write_cfg(tmp_path, cfg)
    out = tmp_path / "out"
    code, _ = _run(["run", "--config", str(p), "--out", str(out)])
    assert code == 0
    summ = json.loads((out / "summary.json").read_text())
    assert len(summ) == 2
