import copy
import hashlib
import json
import math
import os
import random
import re
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path

import pytest

from zrp import cli
from zrp.cli import main
from zrp.diagnostics import Report
from zrp.errors import ConfigError, InvariantViolation, RateRangeError

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


def _python(args, tmp_path):
    """Run python with args in a fresh process that imports this zrp."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, env=env, timeout=120, cwd=tmp_path)


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
    # summary.json is the json.dumps form of its entries
    text = (out / "summary.json").read_text()
    assert text == json.dumps(json.loads(text), sort_keys=True, indent=1) + "\n"


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


def test_config_that_is_not_an_object_is_config_error(tmp_path):
    p = _write_cfg(tmp_path, [BASE])
    code, text = _run(["run", "--config", str(p), "--out", str(tmp_path / "out")])
    assert code == 1
    assert "config error: config is not a JSON object" in text
    assert not (tmp_path / "out").exists()


def test_missing_file_is_config_error(tmp_path):
    code, text = _run(["run", "--config", str(tmp_path / "nope.json")])
    assert code == 1
    assert "not found" in text


@pytest.mark.parametrize("args", [
    ["run", "--config", "a_dir", "--out", "out"],
    ["run", "--config", "latin1.json", "--out", "out"],
    ["run", "--config", "exp.json", "--out", "a_file"],
    ["run", "--config", "exp.json", "--out", "a_file/x"],
    ["suite", "smoke", "--threads", "1", "--out", "a_file"],
    ["suite", "smoke", "--threads", "1", "--out", "a_file/x"],
], ids=["config-is-a-directory", "config-is-not-utf8", "run-out-is-a-file",
        "run-out-under-a-file", "suite-out-is-a-file", "suite-out-under-a-file"])
def test_unusable_path_is_config_error(tmp_path, monkeypatch, args):
    """A --config that cannot be read as UTF-8 text, or an --out that cannot
    be a directory, fails as a config error before any replica or criterion
    runs."""
    from zrp import acceptance

    def nothing_runs(*args, **kwargs):
        raise AssertionError("work started before the paths were checked")
    monkeypatch.setattr(cli, "replica_map", nothing_runs)
    monkeypatch.setattr(acceptance, "run_suite", nothing_runs)
    _write_cfg(tmp_path, BASE)
    (tmp_path / "latin1.json").write_bytes(b'{"T": "\xe9"}')
    (tmp_path / "a_file").write_text("")
    (tmp_path / "a_dir").mkdir()
    monkeypatch.chdir(tmp_path)
    code, text = _run(args)
    assert code == 1
    assert text.startswith("config error: "), text
    assert "Traceback" not in text


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


TORUS = dict(BASE, policy={"kind": "periodic", "n": 2},
             initial={"mode": "product", "phi": 1.0, "n": 2})
TASEP = {"d": 1, "support": [{"z": [1], "p": 1.0}]}


@pytest.mark.parametrize("name,cfg", [
    ("stationarity", BASE),  # open policy, explicit start
    ("mass", dict(TORUS, initial=BASE["initial"])),
    ("flux", TORUS),  # the kernel also jumps left
    # the product start must fill the torus: the run's replicas are the
    # diagnostic's replicas
    ("mass", dict(TORUS, initial={"mode": "product", "phi": 1.0, "n": 1})),
    ("flux", dict(TORUS, kernel=TASEP, policy={"kind": "periodic", "n": 0},
                  initial={"mode": "product", "phi": 1.0, "n": 0})),
    # one replica has no sample variance
    ("flux", dict(TORUS, kernel=TASEP, replicas=1)),
    ("martingale", dict(BASE, replicas=1)),
    # below 12 replicas a cell of the chi-square expects fewer than 5
    ("stationarity", dict(TORUS, replicas=11)),
    # phi=1e-300 certifies the one cell k = 0: nothing to test
    ("stationarity", dict(TORUS, initial=dict(TORUS["initial"], phi=1e-300))),
    # g(k) = k at phi=50: the largest cell holds 0.0563 and reaches 5 at 89
    ("stationarity", dict(TORUS, rate={"family": "power", "a": 1.0}, replicas=88,
                          initial=dict(TORUS["initial"], phi=50.0))),
])
def test_prerequisites_fail_before_any_replica(tmp_path, monkeypatch, name, cfg):
    def no_replicas(*args, **kwargs):
        raise AssertionError("a replica ran before the config was checked")
    monkeypatch.setattr(cli, "replica_map", no_replicas)
    p = _write_cfg(tmp_path, dict(cfg, diagnostics=["replay", name]))
    out = tmp_path / "out"
    code, text = _run(["run", "--config", str(p), "--out", str(out)])
    assert code == 1
    assert f"config error: diagnostic '{name}' needs" in text
    if cfg["initial"].get("n", 0) < cfg["policy"].get("n", 0):
        assert "initial.n" in text
    if cfg["initial"].get("phi", 1.0) < 1e-200:
        assert "initial.phi" in text
    if cfg["replicas"] == 88:
        assert "replicas >= 89" in text
    assert not out.exists()


def test_torus_diagnostics_reduce_the_run_replicas(tmp_path, monkeypatch):
    """All six diagnostics, martingale included, read the rows of the run's
    own replicas: one replica_map call, one simulation per replica, and no
    Trajectory sent back to the parent."""
    from zrp import diagnostics
    from zrp.configuration import Trajectory
    results, simulated = [], []
    real_map, real_simulate = cli.replica_map, cli.simulate

    def recording_map(*args, **kwargs):
        results.append(real_map(*args, **kwargs))
        return results[-1]

    def counting_simulate(*args, **kwargs):
        simulated.append(1)
        return real_simulate(*args, **kwargs)

    def no_second_pass(*args, **kwargs):
        raise AssertionError("a diagnostic simulated its own replicas")
    monkeypatch.setattr(cli, "replica_map", recording_map)
    monkeypatch.setattr(cli, "simulate", counting_simulate)
    monkeypatch.setattr(diagnostics, "replica_map", no_second_pass)
    p = _write_cfg(tmp_path, PINNED)
    code, text = _run(["run", "--config", str(p), "--out",
                       str(tmp_path / "out"), "--threads", "1"])
    assert code == 0, text
    assert len(text.splitlines()) == len(PINNED["diagnostics"]) + 1
    assert len(results) == 1
    assert len(simulated) == PINNED["replicas"]
    assert not any(isinstance(part, Trajectory)
                   for result in results[0] for part in result)


@pytest.mark.parametrize("how", ["flag", "config", "bool"])
def test_negative_or_boolean_seed_is_config_error(tmp_path, how):
    seed = {"flag": 11, "config": -1, "bool": True}[how]
    p = _write_cfg(tmp_path, dict(BASE, seed=seed))
    args = ["run", "--config", str(p), "--out", str(tmp_path / "out"),
            "--threads", "2"]
    code, text = _run(args + (["--seed", "-1"] if how == "flag" else []))
    assert code == 1
    assert "config error: config field 'seed'" in text
    assert "Traceback" not in text


def test_bad_thread_count_is_config_error(tmp_path):
    p = _write_cfg(tmp_path, BASE)
    code, text = _run(["run", "--config", str(p), "--out", str(tmp_path / "out"),
                       "--threads", "0"])
    assert code == 1
    assert "config error:" in text
    assert "threads" in text.lower()
    assert not (tmp_path / "out").exists()


def test_failing_diagnostic_exits_two(tmp_path, monkeypatch):
    """Exit-code 2 path. Every diagnostic the CLI offers checks a true law, so
    the stationarity diagnostic is replaced by one that reports a failure;
    the CLI must print FAIL and exit 2 whatever the random stream."""
    def failing(rows, measure, phi, torus_n, T, seed):
        return Report(test="stationarity_statistical", passed=False,
                      statistic=1e-9, threshold=0.01, seed=seed,
                      n_replicas=len(rows))
    monkeypatch.setattr(cli, "stationarity_report", failing)
    cfg = {
        "kernel": {"d": 1, "support": [{"z": [1], "p": 0.5}, {"z": [-1], "p": 0.5}]},
        "rate": {"family": "power", "a": 2.0},
        "policy": {"kind": "periodic", "n": 2},
        "T": 0.2,
        "replicas": 12,
        "seed": 163,
        "initial": {"mode": "product", "phi": 1.0, "n": 2},
        "diagnostics": ["stationarity"],
    }
    p = _write_cfg(tmp_path, cfg, "unlucky.json")
    code, text = _run(["run", "--config", str(p), "--out", str(tmp_path / "o")])
    assert code == 2
    assert "FAIL" in text


@pytest.mark.parametrize("error,code,message", [
    (InvariantViolation, 3, "invariant violation: odd replica"),
    (RateRangeError, 1, "config error: config field 'rate': odd replica"),
])
def test_error_in_a_child_replica_keeps_its_exit_code(tmp_path, monkeypatch,
                                                      error, code, message):
    """At --threads 2 replica 1 runs in a forked child, which inherits the
    patched simulate; its exception must reach main with its exit code."""
    real = cli.simulate

    def odd_fails(eta0, rate, kernel, policy, T, noise):
        if noise.path[0] % 2:
            raise error("odd replica")
        return real(eta0, rate, kernel, policy, T, noise)
    monkeypatch.setattr(cli, "simulate", odd_fails)
    p = _write_cfg(tmp_path, BASE)
    got, text = _run(["run", "--config", str(p), "--out", str(tmp_path / "o"),
                      "--threads", "2"])
    assert got == code, text
    assert message in text
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_suite_unknown_selection(tmp_path):
    code, text = _run(["suite", "nonsense"])
    assert code == 1


def test_suite_negative_seed_is_config_error(monkeypatch):
    from zrp import acceptance
    monkeypatch.setattr(acceptance, "CRITERIA", ())  # nothing may run
    code, text = _run(["suite", "smoke", "--seed", "-5000", "--threads", "1"])
    assert code == 1
    assert "config error: --seed" in text
    assert "Traceback" not in text


@pytest.mark.parametrize("cid,fn", [
    ("AC5", "criterion_truncation_monotone"),
    ("AC9", "criterion_pq_sandwich"),
])
def test_suite_criteria_honour_threads(monkeypatch, cid, fn):
    from zrp import acceptance
    calls = []
    real = acceptance.replica_map

    def counting(*args, threads=1, **kwargs):
        calls.append(threads)
        return real(*args, threads=threads, **kwargs)
    monkeypatch.setattr(acceptance, "replica_map", counting)
    crit = getattr(acceptance, fn)
    one, two = (crit(acceptance.DEFAULT_SEED, threads=t, smoke=True).to_json()
                for t in (1, 2))
    assert one["cid"] == cid and one["pass"]
    assert set(calls) == {1, 2}
    one.pop("seconds")
    two.pop("seconds")
    assert one == two


@pytest.mark.parametrize("rate", [{"family": "exp", "c": 1, "theta": 800},
                                  {"family": "power", "a": 1e6}])
def test_rate_past_float_range_fails_without_traceback(tmp_path, rate):
    """g(1) = e^800, or g(2) = 2^1e6, overflows a float at the start's
    occupancy: a config error before any output exists."""
    p = _write_cfg(tmp_path, dict(BASE, rate=rate, initial={
        "mode": "point", "n_particles": 2}))
    res = _python(["-m", "zrp.cli", "run", "--config", str(p), "--out",
                   str(tmp_path / "out"), "--threads", "1"], tmp_path)
    assert res.returncode == 1
    assert "Traceback" not in res.stdout + res.stderr
    assert "config error: config field 'rate': g(" in res.stderr
    assert "outside representable range" in res.stderr
    assert not (tmp_path / "out").exists()


def test_explicit_start_past_float_range_is_config_error(tmp_path):
    cfg = dict(BASE, rate={"family": "exp", "c": 1, "theta": 800}, initial={
        "mode": "explicit", "config": {"d": 1, "sites": [{"x": [1], "n": 2}]}})
    p = _write_cfg(tmp_path, cfg)
    code, text = _run(["run", "--config", str(p), "--out", str(tmp_path / "out")])
    assert code == 1
    assert "config error: config field 'rate': g(1) = inf" in text
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("initial", [
    {"mode": "point", "n_particles": 60},          # g(60) = e^60: band 87
    {"mode": "product", "phi": 1e5, "n": 2},       # the measure's K = 18: band 27
])
def test_start_past_the_band_budget_is_config_error(tmp_path, initial):
    cfg = dict(TORUS, rate={"family": "exp", "c": 1, "theta": 1}, initial=initial)
    p = _write_cfg(tmp_path, cfg)
    code, text = _run(["run", "--config", str(p), "--out", str(tmp_path / "out")])
    assert code == 1
    assert "config error: config field 'rate': rate " in text
    assert "past MAX_BAND = 20" in text
    assert not (tmp_path / "out").exists()


def test_run_past_the_band_budget_midway_is_config_error(tmp_path):
    # the start needs band 1 only; a 14th particle on site 0 needs band 21
    cfg = dict(BASE, kernel={"d": 1, "support": [{"z": [-1], "p": 1.0}]},
               rate={"family": "table", "values": [0] + [1] * 13 + [2 ** 21]},
               T=2.0, replicas=1, seed=1, initial={
                   "mode": "explicit", "config": {"d": 1, "sites": [
                       {"x": [0], "n": 13}, {"x": [1], "n": 1}]}})
    p = _write_cfg(tmp_path, cfg)
    code, text = _run(["run", "--config", str(p), "--out", str(tmp_path / "out")])
    assert code == 1
    assert "config error: config field 'rate': rate 2097152.0 needs noise band 21" in text
    assert not (tmp_path / "out" / "summary.json").exists()


def test_uncertifiable_product_start_is_config_error(tmp_path):
    cfg = dict(TORUS, rate={"family": "table", "values": [0, 1, 3, 4]},
               initial={"mode": "product", "phi": 0.8, "n": 2})
    p = _write_cfg(tmp_path, cfg)
    code, text = _run(["run", "--config", str(p), "--out", str(tmp_path / "out")])
    assert code == 1
    assert "config error: config field 'initial.phi':" in text
    assert not (tmp_path / "out").exists()


KILLED = dict(BASE, policy={"kind": "killed", "n": 2})
POINT = dict(BASE, initial={"mode": "point", "n_particles": 2, "site": [0]})
EXP = dict(BASE, rate={"family": "exp", "c": 1.0, "theta": 0.5})

# every numeric leaf of a config: label -> (field the error names, a valid
# config, the path to the leaf in it)
LEAVES = {
    "T": ("T", BASE, ("T",)),
    "replicas": ("replicas", BASE, ("replicas",)),
    "seed": ("seed", BASE, ("seed",)),
    "rate.a": ("rate", BASE, ("rate", "a")),
    "rate.c": ("rate", EXP, ("rate", "c")),
    "rate.theta": ("rate", EXP, ("rate", "theta")),
    "rate.values": ("rate", dict(BASE, rate={"family": "table", "values": [0, 1, 4, 9]}),
                    ("rate", "values", 1)),
    "initial.phi": ("initial.phi", TORUS, ("initial", "phi")),
    "initial.n": ("initial.n", TORUS, ("initial", "n")),
    "initial.n_particles": ("initial.n_particles", POINT, ("initial", "n_particles")),
    "initial.site": ("initial.site", POINT, ("initial", "site", 0)),
    "policy.n": ("policy.n", dict(POINT, policy={"kind": "killed", "n": 2}),
                 ("policy", "n")),
    "kernel.p": ("kernel", dict(BASE, kernel=TASEP), ("kernel", "support", 0, "p")),
    "kernel.z": ("kernel", BASE, ("kernel", "support", 0, "z", 0)),
    "kernel.d": ("kernel", BASE, ("kernel", "d")),
    "initial.config.d": ("initial.config", BASE, ("initial", "config", "d")),
}
# hostile values, as json.dumps writes them: Python's json reads NaN and
# Infinity, and a JSON integer of any length
HOSTILE = {"true": True, '"2"': "2", "[]": [], "{}": {}, "NaN": math.nan,
           "Infinity": math.inf, "-1": -1, "1.5": 1.5, "0": 0,
           "10**400": 10 ** 400, "null": None}
# the (leaf, value) pairs that make a valid config
VALID_LEAVES = {("T", "1.5"), ("seed", "0"), ("rate.a", "1.5"), ("rate.c", "1.5"),
                ("rate.theta", "1.5"), ("rate.values", "1.5"), ("rate.values", "0"),
                ("initial.phi", "1.5"), ("initial.n", "0"),
                ("initial.n_particles", "0"), ("initial.site", "-1"),
                ("initial.site", "0"), ("policy.n", "0")}


def _with_leaf(cfg, path, value):
    cfg = copy.deepcopy(cfg)
    node = cfg
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return cfg


def _hostile_leaves():
    for label, (field, cfg, path) in LEAVES.items():
        for name, value in HOSTILE.items():
            if (label, name) in VALID_LEAVES:
                continue
            # policy.n's type check passes an int on to the radius rule,
            # whose errors name the policy
            named = ("policy" if label == "policy.n" and name in ("-1", "10**400")
                     else field)
            yield pytest.param(named, _with_leaf(cfg, path, value),
                               id=f"{label}={name}")


@pytest.mark.parametrize("field,cfg", [
    ("initial.n", dict(TORUS, initial={"mode": "product", "phi": 1.0, "n": -1})),
    ("initial.n_particles",
     dict(BASE, initial={"mode": "point", "n_particles": -2})),
    ("initial.site", dict(KILLED, initial={"mode": "point", "n_particles": 2,
                                           "site": [3]})),
    ("initial.site", dict(TORUS, initial={"mode": "point", "n_particles": 2,
                                          "site": [-5]})),
    ("initial.config", KILLED | {"initial": {
        "mode": "explicit", "config": {"d": 1, "sites": [{"x": [4], "n": 1}]}}}),
    ("initial.n", dict(KILLED, initial={"mode": "product", "phi": 1.0, "n": 3})),
    ("initial.n", dict(TORUS, initial={"mode": "product", "phi": 1.0, "n": 3})),
    ("T", dict(BASE, T=float("inf"))),
    # a JSON true is not a number
    ("replicas", dict(BASE, replicas=True)),
    ("T", dict(BASE, T=True)),
    ("policy.n", dict(BASE, policy={"kind": "killed", "n": True})),
    ("initial.n", dict(TORUS, initial={"mode": "product", "phi": 1.0, "n": True})),
    ("initial.n_particles",
     dict(BASE, initial={"mode": "point", "n_particles": True})),
    ("initial.phi", dict(TORUS, initial={"mode": "product", "phi": True, "n": 2})),
    # the loaders take numbers as they are: no truncation, no conversion
    ("initial.site", dict(BASE, initial={"mode": "point", "n_particles": 2,
                                         "site": [0.7]})),
    ("initial.site", dict(BASE, initial={"mode": "point", "n_particles": 2,
                                         "site": ["a"]})),
    ("rate", dict(BASE, rate={"family": "power", "a": "2"})),
    ("kernel", dict(BASE, kernel={"d": "1", "support": [{"z": [1], "p": True}]})),
    ("initial.config", dict(BASE, initial={"mode": "explicit", "config": {
        "d": 1, "sites": [{"x": [0], "n": 1.5}]}})),
    # unknown keys, a key of another initial mode among them
    ("diagnostic", dict(BASE, diagnostic=["mass"])),
    ("policy.n", dict(BASE, policy={"kind": "open", "n": 2})),
    ("initial.phi", dict(BASE, initial={"mode": "point", "n_particles": 1,
                                        "phi": 1.0})),
    # a JSON integer past float range
    ("T", dict(BASE, T=10 ** 400)),
    ("initial.phi", dict(TORUS, initial={"mode": "product", "phi": 10 ** 400,
                                         "n": 2})),
    ("rate", dict(BASE, rate={"family": "power", "a": 10 ** 400})),
    ("rate", dict(BASE, rate={"family": "exp", "c": 10 ** 400, "theta": 1})),
    ("rate", dict(BASE, rate={"family": "exp", "c": 1, "theta": 10 ** 400})),
    ("rate", dict(BASE, rate={"family": "table", "values": [0, 10 ** 400]})),
    ("kernel", dict(BASE, kernel={"d": 1, "support": [{"z": [1], "p": 10 ** 400}]})),
    *_hostile_leaves(),
])
def test_config_the_engine_rejects_fails_before_output(tmp_path, field, cfg):
    p = _write_cfg(tmp_path, cfg)
    out = tmp_path / "out"
    code, text = _run(["run", "--config", str(p), "--out", str(out)])
    assert code == 1
    assert f"config error: config field '{field}'" in text
    assert len(text) < 300, text
    assert not out.exists()


@pytest.mark.parametrize("cfg,message", [
    (dict(BASE, initial={"mode": "explicit", "config": {
        "d": 1, "sites": [{"x": [0], "n": -1}]}}),
     "config field 'initial.config': occupancy at 0 is negative"),
    (dict(BASE, kernel={"d": 1, "support": [{"z": [1], "p": 0.5}]}),
     "config field 'kernel': kernel probabilities sum to 0.5, not 1"),
    (dict(BASE, policy={"kind": "killed", "n": -1}),
     "config field 'policy': killed boundary needs a box radius n >= 0"),
    (dict(BASE, initial={"mode": "point", "n_particles": 1.5}),
     "config field 'initial.n_particles' has the wrong type"),
    (dict(BASE, rate={"family": "power", "a": -1.0}),
     "config field 'rate': bad rate spec {'family': 'power', 'a': -1.0}: "
     "a must be positive and finite, got -1.0"),
])
def test_loader_errors_name_the_field(tmp_path, cfg, message):
    p = _write_cfg(tmp_path, cfg)
    out = tmp_path / "out"
    code, text = _run(["run", "--config", str(p), "--out", str(out)])
    assert code == 1
    assert f"config error: {message}\n" in text
    assert not out.exists()


@pytest.mark.parametrize("field,spec", [
    ("rate", {"family": "exp", "c": 10 ** 400, "theta": 1}),
    ("rate", {"family": "table", "values": list(range(1500)) + [0]
              + list(range(1501, 3000))}),
    ("kernel", {"d": 1, "support": [{"z": [1], "p": 10 ** 400}]}),
])
def test_config_error_echoes_a_short_spec(tmp_path, field, spec):
    # the error names the field and cuts the echoed spec, however long it is
    p = _write_cfg(tmp_path, dict(BASE, **{field: spec}))
    code, text = _run(["run", "--config", str(p), "--out", str(tmp_path / "out")])
    assert code == 1
    assert text.startswith(f"config error: config field '{field}'")
    assert len(text) < 300, text


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


PINNED = {
    "kernel": {"d": 1, "support": [{"z": [1], "p": 1.0}]},
    "rate": {"family": "power", "a": 2.0},
    "policy": {"kind": "periodic", "n": 3},
    "T": 0.5,
    "replicas": 40,
    "seed": 5,
    "initial": {"mode": "product", "phi": 1.0, "n": 3},
    "diagnostics": ["replay", "rate-growth", "stationarity", "flux", "mass",
                    "martingale"],
}

PINNED_SHA256 = {
    "events_r0.csv":
        "a0ffc64eaaa0d2192567be2a50d5b98438ea947edfe07c8145b7489d1d7b1873",
    "report_replay.json":
        "c980b245fe873e67af8b1eb5ebfdf3391dd53c3cc6a32929355d71875d9ef00a",
    "report_rate-growth.json":
        "10c26055c64376c897191ab5bc27a25750205c728a1efd801ff4415eb8f6ce01",
    "report_stationarity_statistical.json":
        "e90fc3a8c681b1a657bbb0fa2c18f3135a46719b4614e71feb070f36b4c4234b",
    "report_poisson_flux.json":
        "f20f8df08b886724c970cd183e1b0aea16e677c74835339942cf2787d063927e",
    "report_mass_conservation.json":
        "7506f3a9944841ed5400594d9c85c35dc6f1cf2353173844c02c26972382f796",
    "report_martingale_residual.json":
        "856149ff8fb7db54bdbd104a799256dabffaa24c2b9af86ea6305c2f900c84cb",
    "summary.json":
        "993b60dd5c76a8defc4ed854b157bde4bd43ea9e688f09fd39aa5cf54e861b41",
}

PINNED_EVENTS_SHA256 = {
    "csv": "e549076d7539c39cb25f8f3fc2985278edd2768c7ac5cb945a6d4fda6204c089",
    "json": "6a1bed0a38f01ff33ebd749c07d1d377ce4c7de15e236f4399f0af3db7b8122d",
}


@pytest.mark.parametrize("threads", ["1", "2", "3"])
def test_every_diagnostic_report_is_pinned(tmp_path, threads):
    """Every diagnostic the CLI offers, on one tiny torus config, writes the
    same bytes: a refactor of the CLI or of the diagnostics must keep them."""
    p = _write_cfg(tmp_path, PINNED)
    out = tmp_path / "out"
    code, text = _run(["run", "--config", str(p), "--out", str(out),
                       "--threads", threads])
    assert code == 0, text
    assert sorted(q.name for q in out.glob("report_*.json")) == sorted(
        name for name in PINNED_SHA256 if name.startswith("report_"))
    for name, sha in PINNED_SHA256.items():
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == sha, name
    assert _events_sha256(out, "csv") == PINNED_EVENTS_SHA256["csv"]
    for q in out.glob("*.json"):  # strict JSON: no NaN or Infinity
        json.loads(q.read_text(), parse_constant=_reject_constant)


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


def _events_sha256(out, fmt):
    """One sha256 over the events_r* files of every replica, in replica order."""
    h = hashlib.sha256()
    for r in range(PINNED["replicas"]):
        h.update((out / f"events_r{r}.{fmt}").read_bytes())
    assert not (out / f"events_r{PINNED['replicas']}.{fmt}").exists()
    return h.hexdigest()


# 40 replicas: 20/20 at 2 workers, 14/13/13 at 3
@pytest.mark.parametrize("threads", ["1", "2", "3"])
def test_json_event_files_are_pinned(tmp_path, threads):
    p = _write_cfg(tmp_path, PINNED)
    out = tmp_path / "out"
    code, text = _run(["run", "--config", str(p), "--out", str(out),
                       "--threads", threads, "--format", "json"])
    assert code == 0, text
    assert _events_sha256(out, "json") == PINNED_EVENTS_SHA256["json"]
    assert not list(out.glob("events_r*.csv"))
    assert (hashlib.sha256((out / "summary.json").read_bytes()).hexdigest()
            == PINNED_SHA256["summary.json"])


# the pinned config at one replica, with the diagnostics that one replica
# can run; a mutant may add the others back
FUZZ_BASE = dict(PINNED, replicas=1, diagnostics=["replay", "rate-growth", "mass"])
FUZZ_VALUES = [True, False, None, "2", "a", -1, -0.5, float("nan"),
               float("inf"), float("-inf"), [], {}, [0], [1, 2], {"a": 1}]
FUZZ_WORDS = ["open", "killed", "periodic", "product", "point", "explicit",
              "power", "exp", "table", "replay", "stationarity", "flux",
              "mass", "martingale", "rate-growth"]
FUZZ_KEYS = ["diagnostic", "seeds", "n", "phi", "site", "config", "mode",
             "n_particles", "kind", "T"]
FIELD_NAMED = re.compile(r"^(config field '[\w.-]+'|diagnostic '[\w-]+' needs)")


def _fuzz_paths(obj, path=()):
    yield path
    items = (obj.items() if isinstance(obj, dict)
             else enumerate(obj) if isinstance(obj, list) else ())
    for key, value in items:
        yield from _fuzz_paths(value, path + (key,))


def _near(v, rng):
    """A small value of v's own type, or v."""
    if isinstance(v, bool) or v is None:
        return v
    if isinstance(v, int):
        return rng.randrange(4)
    if isinstance(v, float):
        return rng.choice((0.5, 1.0, 1.5, 2.0))
    if isinstance(v, str):
        return rng.choice(FUZZ_WORDS)
    return v[:-1] if isinstance(v, list) else v


def _mutant(rng):
    cfg = json.loads(json.dumps(FUZZ_BASE))
    for _ in range(rng.choice((1, 1, 2))):
        path = rng.choice(list(_fuzz_paths(cfg))[1:])
        *head, last = path
        parent = cfg
        for key in head:
            parent = parent[key]
        op = rng.choice(("value", "near", "near", "delete", "add", "nest"))
        if path in (("replicas",), ("T",)) and op in ("value", "near"):
            # these change type only, never size, so no mutant runs long
            v = FUZZ_BASE[last]
            parent[last] = rng.choice((str(v), True, None, [v], float(v)
                                       if isinstance(v, int) else int(v) or 1))
        elif op == "value":
            parent[last] = rng.choice(FUZZ_VALUES)
        elif op == "near":
            parent[last] = _near(parent[last], rng)
        elif op == "delete":
            del parent[last]
        elif op == "nest":
            parent[last] = rng.choice(([parent[last]], {"v": parent[last]}))
        else:
            target = parent[last] if isinstance(parent[last], dict) else cfg
            target[rng.choice(FUZZ_KEYS)] = rng.choice(FUZZ_VALUES + FUZZ_WORDS)
    return cfg


def test_config_fuzz(tmp_path):
    """Seeded mutants of the pinned config: type swaps, booleans, negative
    numbers, NaN, Infinity, missing and unknown keys, wrong nesting. Each is
    accepted, or rejected with a config error that names its field; an
    accepted one runs at one replica and passes. None exits 3 or raises."""
    rng = random.Random(2020)
    accepted = 0
    for i in range(200):
        cfg = _mutant(rng)
        try:
            cli.Experiment(json.loads(json.dumps(cfg)))
            ok = True
        except ConfigError as e:
            assert FIELD_NAMED.match(str(e)), (cfg, str(e))
            ok = False
        p = _write_cfg(tmp_path, cfg, f"m{i}.json")
        out = tmp_path / f"out{i}"
        code, text = _run(["run", "--config", str(p), "--out", str(out),
                           "--threads", "1"])
        assert code == (0 if ok else 1), (cfg, text)
        assert out.exists() == ok, cfg
        accepted += ok
    # the mutants must reach the run as well as the loader
    assert 20 <= accepted <= 180


def test_run_and_every_check_load_no_scipy_stats(tmp_path):
    """import zrp, zrp run with every diagnostic it offers, and the
    statistical checks and moment bounds of the library load no scipy.stats
    module: in a fresh process it costs about 0.9 s and 45 MB, and every
    forked replica worker would carry it. The p-values come from
    scipy.special, and the exact hitting bracket of mbar and the moment
    check steps on numpy alone, so no scipy.sparse module loads either."""
    p = _write_cfg(tmp_path, PINNED)
    script = (
        "import sys\n"
        "def loaded(sub):\n"
        "    return sorted(m for m in sys.modules\n"
        "                  if m.split('.')[:2] == ['scipy', sub])\n"
        "import zrp\n"
        "print(loaded('stats'), loaded('sparse'))\n"
        "from zrp import cli\n"
        f"code = cli.main(['run', '--config', {str(p)!r}, '--out',\n"
        f"                 {str(tmp_path / 'out')!r}, '--threads', '1'])\n"
        "print(code, loaded('stats'), loaded('sparse'))\n"
        "from zrp import (Configuration, engine_agreement_check,\n"
        "                 exp_moment_check, killed, mbar, nn_kernel_1d,\n"
        "                 poisson_flux_check, power_rate,\n"
        "                 stationarity_statistical)\n"
        "g, nn = power_rate(2.0), nn_kernel_1d(0.5)\n"
        "stationarity_statistical(g, nn, 1.0, 2, 0.5, 12, 1)\n"
        "engine_agreement_check(Configuration(1, {0: 2, 1: 1}), g,\n"
        "                       nn_kernel_1d(0.7), killed(2), 0.75, 60, 201)\n"
        "poisson_flux_check(power_rate(1.0), 1.0, 2, 1.0, 5, 3)\n"
        "exp_moment_check(Configuration(1, {-1: 1, 0: 1, 1: 1}), g, nn,\n"
        "                 0, 0.5, 1.0, 5, 4)\n"
        "mbar(Configuration(1, {0: 1, 2: 1, -3: 2}), 0, 1.0, g, nn, K=2)\n"
        "print(loaded('stats'), loaded('sparse'))\n")
    res = _python(["-c", script], tmp_path)
    assert res.returncode == 0, res.stderr
    lines = res.stdout.splitlines()  # the run prints its verdicts between
    assert [lines[0], *lines[-2:]] == ["[] []", "0 [] []", "[] []"]


def test_martingale_workers_fork_before_scipy_special_loads(tmp_path):
    """zrp run forks its replica workers once, before the p-values of
    stationarity and flux load scipy.special, so no worker carries it; the
    martingale rows come from those workers too, so no diagnostic forks
    workers of its own. The verdicts print in config order."""
    p = _write_cfg(tmp_path, PINNED)
    script = (
        "import sys\n"
        "from zrp import cli, diagnostics\n"
        "replica_map = cli.replica_map\n"
        "def spy(fn, n, *, threads=1):\n"
        "    print('map', n, threads, sorted(\n"
        "        m for m in sys.modules if m.split('.')[:2] == ['scipy', 'special']))\n"
        "    return replica_map(fn, n, threads=threads)\n"
        "def second_pass(*args, **kwargs):\n"
        "    raise AssertionError('a diagnostic mapped its own replicas')\n"
        "cli.replica_map = spy\n"
        "diagnostics.replica_map = second_pass\n"
        f"code = cli.main(['run', '--config', {str(p)!r}, '--out',\n"
        f"                 {str(tmp_path / 'out')!r}, '--threads', '2'])\n"
        "print(code)\n")
    res = _python(["-c", script], tmp_path)
    assert res.returncode == 0, res.stderr
    lines = res.stdout.splitlines()
    assert lines[0] == f"map {PINNED['replicas']} 2 []"
    assert lines[-1] == "0"
    assert [line.split(":")[0] for line in lines[1:-2]] == [
        "replay", "rate-growth", "stationarity_statistical", "poisson_flux",
        "mass_conservation", "martingale_residual"]


@pytest.mark.parametrize("threads", ["1", "2"])
def test_martingale_report_equals_the_library_report(tmp_path, threads):
    """On an explicit start every replica starts where martingale_residual
    starts, with the same noise, so the run's own martingale rows give the
    library's report byte for byte."""
    from zrp.diagnostics import martingale_residual
    from zrp.localfn import capped_occupancy
    cfg = dict(BASE, replicas=30, T=1.0, policy={"kind": "killed", "n": 3},
               diagnostics=["martingale"])
    exp = cli.Experiment(cfg)
    rep = martingale_residual(capped_occupancy(0, 10), exp.init_config,
                              exp.rate, exp.kernel, exp.policy, exp.T,
                              exp.replicas, exp.seed)
    p = _write_cfg(tmp_path, cfg)
    out = tmp_path / "out"
    code, text = _run(["run", "--config", str(p), "--out", str(out),
                       "--threads", threads])
    assert code == 0, text
    assert ((out / "report_martingale_residual.json").read_text()
            == json.dumps(rep.to_json(), sort_keys=True, indent=1) + "\n")
