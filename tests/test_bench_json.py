"""The summary arithmetic of tools/bench_json.py; CI runs the tool itself."""
import importlib.util
import subprocess
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_json.py"
_spec = importlib.util.spec_from_file_location("bench_json", _PATH)
bench_json = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_json)


def test_quartiles():
    assert bench_json.quartiles([3.0]) == (3.0, 3.0, 3.0)
    assert bench_json.quartiles([4.0, 1.0, 3.0, 2.0, 5.0]) == (3.0, 2.0, 4.0)


def _entry(values):
    med, q1, q3 = bench_json.quartiles(values)
    return {"median": med, "q1": q1, "q3": q3, "values": values}


def test_pairwise_counts_wins_in_each_direction():
    spec = {"end_to_end": [{"name": "wall_s", "better": "lower"},
                           {"name": "events_per_s", "better": "higher"}]}
    first = {"metrics": {"w/wall_s": _entry([1.0, 1.0, 1.0]),
                         "w/events_per_s": _entry([10.0, 10.0, 10.0]),
                         "w/other": _entry([1.0, 1.0, 1.0])}}
    second = {"metrics": {"w/wall_s": _entry([0.8, 1.2, 0.9]),
                          "w/events_per_s": _entry([12.0, 9.0, 11.0]),
                          "w/other": _entry([2.0, 2.0, 2.0])}}
    out = bench_json.pairwise(first, second, spec)
    assert set(out) == {"w/wall_s", "w/events_per_s"}   # ungated: left out
    assert out["w/wall_s"]["wins"] == 2 and out["w/wall_s"]["of"] == 3
    assert out["w/wall_s"]["ratio_of_medians"] == pytest.approx(0.9)
    assert out["w/events_per_s"]["wins"] == 2
    assert out["w/events_per_s"]["ratio_of_medians"] == pytest.approx(1.1)


SPEC = {"end_to_end": [{"name": "peak_rss_mb", "better": "lower"},
                       {"name": "events_per_s", "better": "higher"}]}
PARENT = [198.0, 198.2, 198.3, 198.1, 198.4, 198.2, 198.3, 198.0, 198.5, 198.2]


def _gain(parent, change, metric="w/peak_rss_mb"):
    out = bench_json.pairwise({"metrics": {metric: _entry(parent)}},
                              {"metrics": {metric: _entry(change)}}, SPEC)
    return out[metric]


def test_gain_shown_when_nine_of_ten_win_by_more_than_the_parent_iqr():
    out = _gain(PARENT, [158.0] * 9 + [199.0])
    q1, q3 = bench_json.quartiles(PARENT)[1:]
    assert out["parent_iqr"] == pytest.approx(q3 - q1)
    assert (out["wins"], out["of"], out["gain_shown"]) == (9, 10, True)
    up = _gain([10.0, 11.0] * 5, [13.0] * 10, "w/events_per_s")
    assert (up["wins"], up["parent_iqr"], up["gain_shown"]) == (10, 1.0, True)


def test_gain_not_shown_with_eight_of_ten_wins():
    out = _gain(PARENT, [158.0] * 8 + [199.0, 199.0])
    assert (out["wins"], out["gain_shown"]) == (8, False)


def test_gain_not_shown_when_ties_fill_the_wins():
    out = _gain(PARENT, [158.0] * 8 + PARENT[8:])    # two ties win for neither
    assert (out["wins"], out["gain_shown"]) == (8, False)


def test_gain_not_shown_within_the_parent_iqr():
    parent = [100.0, 120.0] * 5                     # IQR 20
    out = _gain(parent, [v - 5.0 for v in parent])
    assert (out["wins"], out["parent_iqr"], out["gain_shown"]) == (10, 20.0, False)


def test_gain_not_shown_in_the_worse_direction():
    out = _gain(PARENT, [250.0] * 10)
    assert (out["wins"], out["gain_shown"]) == (0, False)
    down = _gain([10.0] * 10, [8.0] * 10, "w/events_per_s")
    assert (down["wins"], down["parent_iqr"], down["gain_shown"]) == (0, 0.0, False)


def test_prefixed_names_each_metric_by_its_workload(tmp_path):
    metrics = {"wall_s": {"value": 1.5, "unit": "s"},
               "peak_rss_mb": {"value": 80.0, "unit": "MB"}}
    assert bench_json.prefixed("verify-replicas", metrics) == {
        "verify-replicas/wall_s": {"value": 1.5, "unit": "s"},
        "verify-replicas/peak_rss_mb": {"value": 80.0, "unit": "MB"}}
    assert bench_json.prefixed("w", {}) == {}
    (tmp_path / "BENCHMARK.json").write_text(
        '{"workloads": [{"name": "a"}, {"name": "b"}]}')
    assert bench_json.workload_names(tmp_path, "all") == ["a", "b"]
    assert bench_json.workload_names(tmp_path, "b") == ["b"]


def test_summarise_takes_every_key_over_the_rows_that_have_it():
    rows = [{"AC1": 1.0, "total": 10.0}, {"AC1": 3.0, "total": 12.0},
            {"AC1": 2.0, "AC2": 5.0, "total": 11.0}, {}]
    out = bench_json.summarise(rows)
    assert list(out) == ["AC1", "total", "AC2"]
    assert out["AC1"] == {"median": 2.0, "q1": 1.5, "q3": 2.5,
                          "values": [1.0, 3.0, 2.0]}
    assert out["total"]["median"] == 11.0
    assert out["AC2"] == {"median": 5.0, "q1": 5.0, "q3": 5.0, "values": [5.0]}
    assert bench_json.summarise([]) == {}


def test_dirty_paths_names_the_tracked_files_that_differ_from_head(tmp_path):
    def git(*args):
        subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t", *args],
                       cwd=tmp_path, check=True, capture_output=True)

    git("init", "-q")
    (tmp_path / "a.py").write_text("a = 1\n")
    (tmp_path / "b.py").write_text("b = 1\n")
    git("add", "a.py", "b.py")
    git("commit", "-q", "-m", "first")
    (tmp_path / "untracked.py").write_text("")     # not tracked: not dirty
    assert bench_json.dirty_paths(tmp_path) == []
    (tmp_path / "b.py").write_text("b = 2\n")
    assert bench_json.dirty_paths(tmp_path) == ["b.py"]
