"""Run the benchmark several times in one or more checkouts and write the
medians and quartiles of every metric to a JSON file.

    python3 tools/bench_json.py --checkout parent=../zrp-parent \
        --checkout change=. --seed 1 --seconds 3 --repeats 5 --out BENCH_n.json

Before the first repeat it byte-compiles each checkout's ``src/`` with
``python -m compileall -q src``, so that ``setup_s`` compares imports from
bytecode in every checkout, whether or not it ran before and whatever
``PYTHONDONTWRITEBYTECODE`` says. Each repeat runs, in every checkout in
turn (so host drift hits all of them alike, and with the order reversed on
every other repeat), for each workload W (every workload of the checkout's
BENCHMARK.json under ``--workload all``)

    python3 perfbench/run.py --workload W --seed S --seconds X --trace 0

in a process of its own, so that its ``peak_rss_mb`` carries no other
workload. It reads the last line (the JSON result) and the ``# machine``
line of each, and prefixes W's metrics ``W/``. Then it runs

    python -m zrp.cli suite smoke --threads 1

on that checkout's ``src/`` and reads the seconds of each criterion from
the suite JSON, with the wall time of the whole command as ``total``. For
each checkout the file records the machine line, the git sha, the tracked
files that differ from that sha (``dirty``, empty for a clean checkout), the
line count of ``src/`` and its count of code lines (not blank, comment or
docstring), whether every run passed its output checks, for each metric
its median, first and third quartile and the values of all repeats, and the
same summary of the suite seconds under ``suite``. With two checkouts it
also records, for each gated end-to-end metric of the first checkout's
BENCHMARK.json, the ratio of the medians (second over first), in how many
repeats the second was better, the first's interquartile range as
``parent_iqr``, and ``gain_shown``: the second won at least 9 of 10 repeats
and its median is better than the first's by more than ``parent_iqr``. It
also records the metric's ``bound`` and ``worse_beyond_bound``: the second's
median is worse than the first's by more than ``bound`` times the first's
median, the regression the bound forbids; and ``unresolved``: the first's
interquartile range is wider than ``bound`` times its median, so a change
inside the bound cannot be told from its spread, and not every repeat of
the second beats every repeat of the first.

Exits 1 when any run fails, reports a failed output check or fails a
criterion of the smoke suite.
"""
from __future__ import annotations

import argparse
import ast
import io
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
import tokenize
from pathlib import Path


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(median, Q1, Q3); one value is its own quartiles."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return med, q1, q3


def summarise(rows: list[dict]) -> dict:
    """{key: median, q1, q3 and values} over the rows that have the key,
    for every key of any row, in first-seen order."""
    out = {}
    for key in dict.fromkeys(k for row in rows for k in row):
        values = [row[key] for row in rows if key in row]
        med, q1, q3 = quartiles(values)
        out[key] = {"median": med, "q1": q1, "q3": q3, "values": values}
    return out


def git_sha(root: Path) -> str | None:
    res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                         capture_output=True, text=True)
    return res.stdout.strip() or None


def dirty_paths(root: Path) -> list[str] | None:
    """Tracked files of root that differ from its HEAD; None outside git."""
    res = subprocess.run(["git", "status", "--porcelain", "--untracked-files=no"],
                         cwd=root, capture_output=True, text=True)
    if res.returncode:
        return None
    return [line[3:] for line in res.stdout.splitlines()]


def src_lines(root: Path) -> int:
    return sum(len(p.read_text().splitlines())
               for p in sorted((root / "src").rglob("*.py")))


def code_lines(text: str) -> int:
    """The lines of Python source text that hold code: a line some token
    other than a comment touches, outside every module, class and function
    docstring."""
    docs = set()
    for node in ast.walk(ast.parse(text)):
        if (isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                              ast.AsyncFunctionDef))
                and ast.get_docstring(node, clean=False) is not None):
            docs.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    blank = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENDMARKER}
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in blank:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(code - docs)


def src_code_lines(root: Path) -> int:
    return sum(code_lines(p.read_text()) for p in sorted((root / "src").rglob("*.py")))


def compile_sources(root: Path) -> None:
    """Byte-compile every module under root's src/."""
    subprocess.run([sys.executable, "-m", "compileall", "-q", "src"], cwd=root,
                   check=True)


def workload_names(root: Path, workload: str) -> list[str]:
    """[workload], or for 'all' every workload root's BENCHMARK.json lists."""
    if workload != "all":
        return [workload]
    spec = json.loads((root / "BENCHMARK.json").read_text())
    return [w["name"] for w in spec["workloads"]]


def prefixed(name: str, metrics: dict) -> dict:
    """The metrics of workload name, each key prefixed 'name/'."""
    return {f"{name}/{key}": value for key, value in metrics.items()}


def run_once(root: Path, args) -> tuple[dict, dict, int]:
    """(machine info, result JSON, exit code) of one benchmark pass: each
    workload in its own process, the results merged, the first nonzero exit
    code kept."""
    machine, merged, code = {}, {"correct": True, "metrics": {}}, 0
    for name in workload_names(root, args.workload):
        cmd = [sys.executable, "perfbench/run.py", "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", "0"]
        res = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
        lines = res.stdout.splitlines()
        machine = machine or next(
            (json.loads(line[len("# machine "):]) for line in lines
             if line.startswith("# machine ")), {})
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            sys.stderr.write(res.stderr)
            result = {"correct": False, "metrics": {}}
        merged["correct"] = merged["correct"] and result.get("correct", False)
        merged["metrics"].update(prefixed(name, result["metrics"]))
        code = code or res.returncode
    return machine, merged, code


def run_suite(root: Path) -> tuple[dict, bool]:
    """({criterion id: seconds, "total": wall seconds}, passed) of one
    `zrp suite smoke --threads 1` on root's src/; ({}, False) if it wrote
    no suite JSON."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    with tempfile.TemporaryDirectory() as out:
        t0 = time.monotonic()
        res = subprocess.run([sys.executable, "-m", "zrp.cli", "suite", "smoke",
                              "--threads", "1", "--out", out],
                             cwd=root, env=env, capture_output=True, text=True)
        total = time.monotonic() - t0
        try:
            suite = json.loads((Path(out) / "suite_smoke.json").read_text())
        except FileNotFoundError:
            sys.stderr.write(res.stderr)
            return {}, False
    seconds = {row["cid"]: row["seconds"] for row in suite["results"]}
    return seconds | {"total": total}, res.returncode == 0 and suite["pass"]


def pairwise(first: dict, second: dict, spec: dict) -> dict:
    """Per gated metric: median ratio second/first, repeats won by second
    (ties win for neither), the first's interquartile range, whether a
    gain of the second is shown (it wins at least 9 of 10 repeats and its
    median is better by more than that range), the metric's bound, whether
    the ratio is worse than 1 by more than the bound, and whether the metric
    is unresolved: that range is wider than the bound times the first's
    median, and some repeat of the second fails to beat every repeat of the
    first. Neither flag is raised without a bound."""
    gated = {m["name"]: m for m in spec.get("end_to_end", [])}
    out = {}
    for key, a in first["metrics"].items():
        b = second["metrics"].get(key)
        metric = gated.get(key.rsplit("/", 1)[-1])
        if b is None or metric is None or not a["median"]:
            continue
        direction, bound = metric["better"], metric.get("bound")
        sign = 1 if direction == "higher" else -1
        wins = sum(sign * (y - x) > 0 for x, y in zip(a["values"], b["values"]))
        iqr = a["q3"] - a["q1"]
        ratio = b["median"] / a["median"]
        always = min(sign * y for y in b["values"]) > max(sign * x for x in a["values"])
        out[key] = {"ratio_of_medians": ratio,
                    "better": direction, "wins": wins, "of": len(a["values"]),
                    "parent_iqr": iqr,
                    "gain_shown": 10 * wins >= 9 * len(a["values"])
                    and sign * (b["median"] - a["median"]) > iqr,
                    "bound": bound,
                    "worse_beyond_bound": bound is not None and sign * (1 - ratio) > bound,
                    "unresolved": bound is not None
                    and iqr > bound * abs(a["median"]) and not always}
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--checkout", action="append", required=True,
                    metavar="LABEL=DIR", help="a checkout to measure; repeatable")
    ap.add_argument("--workload", default="all")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--repeats", type=int, default=5)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    if args.repeats < 1:
        ap.error("--repeats must be >= 1")
    roots = {}
    for item in args.checkout:
        label, sep, path = item.partition("=")
        if not sep or not label:
            ap.error(f"--checkout {item!r} is not LABEL=DIR")
        roots[label] = Path(path).resolve()

    for root in roots.values():
        compile_sources(root)
    runs = {label: [] for label in roots}
    suites = {label: [] for label in roots}
    ok = True
    for r in range(args.repeats):
        order = list(roots.items())
        for label, root in order if r % 2 == 0 else order[::-1]:
            machine, result, code = run_once(root, args)
            seconds, suite_ok = run_suite(root)
            ok = ok and code == 0 and result.get("correct", False) and suite_ok
            runs[label].append((machine, result))
            suites[label].append(seconds)
            print(f"repeat {r + 1}/{args.repeats} {label}: exit {code}, "
                  f"correct {result.get('correct')}, smoke suite "
                  f"{'pass' if suite_ok else 'FAIL'}", file=sys.stderr)

    report = {"command": ["python3", "perfbench/run.py", "--workload", "W",
                          "--seed", str(args.seed), "--seconds",
                          str(args.seconds), "--trace", "0"],
              "workloads": workload_names(next(iter(roots.values())),
                                          args.workload),
              "suite_command": ["python", "-m", "zrp.cli", "suite", "smoke",
                                "--threads", "1"],
              "repeats": args.repeats, "checkouts": {}}
    for label, root in roots.items():
        first = runs[label][0][1]["metrics"]
        metrics = summarise([{key: m["value"] for key, m in res["metrics"].items()
                              if key in first} for _, res in runs[label]])
        for key, entry in metrics.items():
            entry["unit"] = first[key]["unit"]
        report["checkouts"][label] = {
            "machine": runs[label][0][0], "commit": git_sha(root),
            "dirty": dirty_paths(root),
            "src_lines": src_lines(root), "src_code_lines": src_code_lines(root),
            "correct": all(res.get("correct", False) for _, res in runs[label]),
            "metrics": metrics, "suite": summarise(suites[label])}
    if len(roots) == 2:
        first, second = report["checkouts"].values()
        spec_path = next(iter(roots.values())) / "BENCHMARK.json"
        spec = json.loads(spec_path.read_text()) if spec_path.exists() else {}
        report["pairwise"] = pairwise(first, second, spec)
    Path(args.out).write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
