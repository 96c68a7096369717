"""Benchmark of the zrp simulator, end to end and layer by layer.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from the root of a checkout; zrp is imported from its ``src/``. Each
workload (see workloads.py) draws its inputs from ``--seed``, then repeats
its timed body until ``--seconds`` have passed, checking every output.
Times are medians over those repeats, scaled to a reference host speed
(see ``Calibrator``); ``setup_s`` is import plus input generation.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` prints the
per-layer table instead: untraced and traced repeats in turn at one worker
(spans stay in one process; their difference is the tracing overhead),
and, for pool workloads, untraced repeats at the workload's worker count
for replica_map wall time.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; lines before it
show the same numbers as a table, machine information, and the workload's
event count and events-CSV sha256 (information only, never gated). The
exit code is 0 only when every output check passed.
"""
from __future__ import annotations

import argparse
import contextlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

import tracer

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 3
CAL_SAMPLES = 3
CAL_TABLE = 100_000
CAL_LOOKUPS = 20_000
CAL_REF_S = 0.03
_IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                 "t = time.perf_counter(); import zrp; "
                 "print(time.perf_counter() - t)")


def load_zrp():
    """Import zrp from this checkout's src/, never from anywhere else."""
    src = ROOT / "src"
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    zrp = importlib.import_module("zrp")
    if Path(zrp.__file__).resolve().parent != (src / "zrp").resolve():
        raise ImportError(f"zrp imported from {zrp.__file__}, not from {src}")
    return zrp


def import_seconds(cal: Calibrator) -> float:
    """Median time to import zrp in a fresh interpreter, at reference speed."""
    times = []
    with cal.scaled() as factor:
        for _ in range(SETUP_REPEATS):
            res = subprocess.run(
                [sys.executable, "-c", _IMPORT_PROBE, str(ROOT / "src")],
                cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
            times.append(float(res.stdout.split()[-1]))
    return statistics.median(times) * factor[0]


def usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def peak_rss_mb(workers: int) -> float:
    """Peak RSS of this process plus ``workers`` times its largest child's."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + workers * child) / 1024.0


def machine_info(zrp) -> dict:
    import scipy
    cpu = platform.machine()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                capture_output=True, text=True,
                                timeout=30).stdout.strip() or None
    src_lines = sum(len(p.read_text().splitlines())
                    for p in sorted((ROOT / "src").rglob("*.py")))
    return {"cpu": cpu, "nproc": usable_cpus(),
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "zrp": zrp.__version__,
            "commit": commit, "src_lines": src_lines}


class Tally:
    """Output checks of one workload run, plus the determinism check: every
    repeat of the body on the same inputs must give the same outputs."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []
        self.reference = None
        self.info: dict = {}

    def add(self, wl, inp, out) -> None:
        verdicts = wl.check(inp, out)
        digest = wl.digest(out)
        if self.reference is None:
            self.reference = digest
            self.info = wl.info(inp, out)
        else:
            verdicts.append(None if digest == self.reference
                            else "outputs differ from the first repeat")
        self.attempted += len(verdicts)
        self.failures.extend(v for v in verdicts if v)


class Calibrator:
    """Measures how fast this host runs right now, to report times at a
    reference speed.

    The same code on this host runs up to 30% slower for minutes at a time,
    and process CPU time slows with it, so raw times of two runs a few
    minutes apart differ by more than any bound worth setting. A measured
    time is scaled by ``CAL_REF_S`` over the calibration time just before
    and just after it. The calibration does the kind of work the engine
    does: random lookups in a dict of ``(site, band, slab)`` keys as large
    as a long run's window cache, and seeding numpy generators. It is
    benchmark code, so a change to zrp cannot move it.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        keys = [(int(x), int(b), int(s)) for x, b, s in
                zip(rng.integers(-500, 500, CAL_TABLE), rng.integers(0, 8, CAL_TABLE),
                    rng.integers(0, 20, CAL_TABLE))]
        self.table = {k: (float(i), i) for i, k in enumerate(keys)}
        self.probe = [keys[i] for i in rng.integers(0, len(keys), CAL_LOOKUPS)]

    def seconds(self) -> float:
        """Median time of a few runs of the calibration loop."""
        samples = []
        for _ in range(CAL_SAMPLES):
            t0 = tracer.clock()
            table, total = self.table, 0
            for k in self.probe:
                total += table[k][1]
            for i in range(60):
                gen = np.random.Generator(np.random.PCG64(
                    np.random.SeedSequence((7, 1, i, 3))))
                gen.poisson(2.0)
                gen.random(3)
            samples.append(tracer.clock() - t0)
        return statistics.median(samples)

    @contextlib.contextmanager
    def scaled(self):
        """Yields a list that receives, on exit, the factor that converts
        times measured inside the block to reference speed."""
        factor = []
        before = self.seconds()
        yield factor
        factor.append(2 * CAL_REF_S / (before + self.seconds()))


def timed_pass(wl, inp, threads, seconds, tally, counter, cal,
               map_walls=None, trace=None):
    """Repeat the body until ``seconds`` have passed (at least once).

    Returns one ``(wall_s at reference speed, events, replica_map_s,
    raw wall_s)`` row per repeat. With ``map_walls`` every replica_map call
    is timed; with ``trace`` (a Tracer) every repeat is traced.
    """
    rows = []
    start = tracer.clock()
    while not rows or tracer.clock() - start < seconds:
        walls = [] if map_walls is None else map_walls
        mark = len(walls)
        with cal.scaled() as factor, contextlib.ExitStack() as stack:
            stack.enter_context(tracer.counting_events(counter))
            if map_walls is not None:
                stack.enter_context(tracer.timing_replica_map(walls))
            if trace is not None:
                stack.enter_context(trace.tracing())
            t0 = tracer.clock()
            out = wl.body(inp, threads)
            wall = tracer.clock() - t0
        rows.append((wall * factor[0], counter.take(), sum(walls[mark:]), wall))
        tally.add(wl, inp, out)
        wl.cleanup(out)
    return rows


def run_workload(wl, seed: int, seconds: float, trace: bool, size: str,
                 workdir: Path, cal: Calibrator) -> dict:
    workers = max(1, min(wl.workers, usable_cpus()))
    counter = tracer.SharedCounter()
    tally = Tally()

    setup = []
    with cal.scaled() as factor:
        for _ in range(SETUP_REPEATS):
            t0 = tracer.clock()
            inp = wl.inputs(seed, size, workdir)
            setup.append(tracer.clock() - t0)
    inputs_s = statistics.median(setup) * factor[0]

    if not trace:
        rows = timed_pass(wl, inp, workers, seconds, tally, counter, cal)
        wall = statistics.median(r[0] for r in rows)
        metrics = {
            "wall_s": (wall, "s"),
            "events_per_s": (statistics.median(r[1] / r[0] for r in rows), "1/s"),
            "replicas_per_s": (wl.replicas(inp) / wall, "1/s"),
            "peak_rss_mb": (peak_rss_mb(workers), "MB"),
        }
        return dict(workload=wl.name, workers=workers, repeats=len(rows),
                    inputs_s=inputs_s, metrics=metrics, tally=tally, spans=None)

    # untraced and traced repeats alternate, so that host drift cancels in
    # the overhead, which compares raw times: one calibration is noisier
    # than the drift between neighbouring repeats. The per-layer table
    # comes from the first traced repeat.
    share = seconds if workers == 1 else seconds / 2
    spans = tracer.Tracer()
    serial, traced = [], []
    start = tracer.clock()
    while not traced or tracer.clock() - start < share:
        serial += timed_pass(wl, inp, 1, 0, tally, counter, cal, map_walls=[])
        traced += timed_pass(wl, inp, 1, 0, tally, counter, cal,
                             trace=tracer.Tracer() if traced else spans)
    parallel = (serial if workers == 1 else
                timed_pass(wl, inp, workers, share, tally, counter, cal,
                           map_walls=[]))
    metrics = tracer.layer_metrics(
        spans.spans, statistics.median(r[2] for r in serial),
        statistics.median(r[2] for r in parallel), workers)
    metrics["tracing.overhead_s"] = (statistics.median(
        t[3] - u[3] for t, u in zip(traced, serial)), "s")
    return dict(workload=wl.name, workers=workers,
                repeats=len(serial) + len(traced) + len(parallel),
                inputs_s=inputs_s, metrics=metrics,
                tally=tally, spans=tracer.by_name(spans.spans))


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    help="a workload name, or 'all' to run every workload "
                         "in this process")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True,
                    help="measuring time per workload")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap


def main(argv=None, size: str = "full") -> int:
    """Run the benchmark; ``size='tiny'`` shrinks every workload (tests)."""
    args = build_parser().parse_args(argv)
    if args.seed < 0:
        print("--seed must be >= 0", file=sys.stderr)
        return 2
    try:
        zrp = load_zrp()
    except ImportError as e:
        print(f"cannot import zrp from {ROOT / 'src'}: {e}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS
    if args.workload == "all":
        chosen = list(WORKLOADS.values())
    elif args.workload in WORKLOADS:
        chosen = [WORKLOADS[args.workload]]
    else:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)} or all", file=sys.stderr)
        return 2

    cal = Calibrator()
    scratch = ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    results = []
    try:
        for wl in chosen:
            workdir = Path(tempfile.mkdtemp(prefix=wl.name + "-", dir=scratch))
            try:
                results.append(run_workload(wl, args.seed, args.seconds,
                                            bool(args.trace), size, workdir,
                                            cal))
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    if not args.trace:
        # measured after the workloads so its subprocesses stay out of
        # the children's peak RSS
        imp = import_seconds(cal)
        for res in results:
            res["metrics"]["setup_s"] = (imp + res["inputs_s"], "s")

    info = machine_info(zrp)
    print("# machine " + json.dumps(info, sort_keys=True))
    attempted = failed = 0
    metrics = {}
    for res in results:
        tally = res["tally"]
        attempted += tally.attempted
        failed += len(tally.failures)
        print(f"# workload {res['workload']} seed={args.seed} "
              f"workers={res['workers']} repeats={res['repeats']} "
              f"trace={args.trace}")
        print("#   info " + json.dumps(tally.info, sort_keys=True))
        for msg in tally.failures[:20]:
            print(f"#   FAILED {msg}")
        print(f"#   {'failed_frac':40s} {len(tally.failures) / tally.attempted:.6g}"
              f"  ({len(tally.failures)}/{tally.attempted} output checks)")
        prefix = "" if len(results) == 1 else res["workload"] + "/"
        for name, (value, unit) in res["metrics"].items():
            print(f"#   {name:40s} {value:.6g} {unit}")
            metrics[prefix + name] = {"value": value, "unit": unit}
        if res["spans"]:
            print(f"#   {'span':40s} {'calls':>9s} {'total_s':>10s} {'self_s':>10s}")
            for name, (calls, total, own, _) in sorted(
                    res["spans"].items(), key=lambda kv: -kv[1][2]):
                print(f"#   {name:40s} {calls:9d} {total:10.4f} {own:10.4f}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
