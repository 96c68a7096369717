"""The four benchmark workloads: inputs from a seed, a timed body, checks.

Every workload draws its inputs (initial configurations, noise masters,
diagnostic seeds, the ``zrp run`` config) from the workload seed; the
library receives only those. Each ``body`` call is one timed unit of work
on fresh noise objects, so no rep reads another rep's window cache. Calls
into zrp go through module attributes (``engine.simulate``), so that the
tracer's wrappers are seen.

Checks do not depend on the noise format: replay of every trajectory, exact
mass conservation on a torus, box monotonicity of coupled runs, ``zrp run``
exit code 0 plus a replay of its artifacts, and every diagnostic verdict.
"""
from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import shutil
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from zrp import cli, configuration, diagnostics, engine, hitting, measures
from zrp.configuration import Configuration, Trajectory
from zrp.errors import ZRPError
from zrp.kernel import nn_kernel_1d, symmetric_nn_kernel
from zrp.noise import HarrisNoise
from zrp.rates import exp_rate, power_rate
from zrp.sites import site_from_coords


def _ints(seed: int, tag: int, n: int) -> list[int]:
    """n independent non-negative ints for consumer ``tag`` of ``seed``."""
    return [int(v) for v in np.random.SeedSequence([seed, tag]).generate_state(n)]


def _rng(seed: int, tag: int) -> np.random.Generator:
    return np.random.default_rng([seed, tag])


def _csv_sha(trajs) -> str:
    h = hashlib.sha256()
    for traj in trajs:
        h.update(configuration.events_csv_string(traj).encode())
    return h.hexdigest()


def _replay_failure(traj: Trajectory) -> str | None:
    try:
        configuration.replay(traj)
    except ZRPError as e:
        return f"replay: {e}"
    return None


class Workload:
    """One named workload.

    ``inputs(seed, size, workdir)`` builds everything from the seed (set-up,
    timed separately); ``body(inputs, threads)`` is the timed unit of work;
    ``check`` gives one verdict per output (None when it passed); ``info``
    is shown and never gated; ``digest`` must repeat exactly when the body
    runs again on the same inputs. ``why`` is copied into BENCHMARK.json.
    """
    workers = 1

    def replicas(self, inp) -> int:
        """Independent noise paths one body simulates."""
        return 1

    def cleanup(self, out) -> None:
        pass


class TorusLong(Workload):
    name = "torus-d1-long"
    why = ("one long simulate on a d=1 torus: event loop and window drawing do "
           "nearly all the work, no window reused, no pool, no output; the "
           "long horizon shows the window cache in peak_rss_mb")
    SIZES = {"full": dict(n=250, T=20.0), "tiny": dict(n=3, T=1.0)}
    rate = power_rate(2)
    phi = 1.0
    kernel = nn_kernel_1d(0.5)

    def inputs(self, seed, size, workdir):
        p = self.SIZES[size]
        measure = measures.fugacity_measure(self.rate, self.phi)
        # a product start conditioned on its expected mass: the event count
        # of a closed torus follows its mass, which would otherwise vary by
        # several percent from seed to seed
        mass = round(measure.density() * (2 * p["n"] + 1))
        rng = _rng(seed, 1)
        eta0 = measures.sample_box_config(measure, p["n"], 1, rng)
        while eta0.total() != mass:
            eta0 = measures.sample_box_config(measure, p["n"], 1, rng)
        return SimpleNamespace(eta0=eta0, policy=engine.periodic(p["n"]),
                               T=p["T"], master=_ints(seed, 2, 1)[0])

    def body(self, inp, threads):
        return engine.simulate(inp.eta0, self.rate, self.kernel, inp.policy,
                               inp.T, HarrisNoise(inp.master, (0,)))

    def check(self, inp, traj) -> list[str | None]:
        bad = _replay_failure(traj)
        if bad is None and (traj.kill_count()
                            or traj.final.total() != inp.eta0.total()):
            bad = (f"mass {inp.eta0.total()} -> {traj.final.total()} "
                   f"with {traj.kill_count()} kills on a torus")
        return [bad]

    def info(self, inp, traj) -> dict:
        return {"events": traj.event_count(), "events_csv_sha256": _csv_sha([traj])}

    def digest(self, traj):
        return _csv_sha([traj])


class OpenCoupled2D(Workload):
    name = "open-coupled-d2"
    why = ("nested open boxes in d=2 share one noise field, so windows are "
           "reused; tuple sites, and particles spreading onto fresh sites "
           "that draw every remaining slab")
    SIZES = {"full": dict(schedule=(3, 6, 12), T=2.0, paths=4),
             "tiny": dict(schedule=(1, 2), T=0.5, paths=1)}
    rates = (power_rate(2), exp_rate(1.0, 0.4))
    phi = 1.0
    kernel = symmetric_nn_kernel(2)
    snapshot_count = 20

    def inputs(self, seed, size, workdir):
        p = self.SIZES[size]
        masters = _ints(seed, 3, len(self.rates))
        runs = []
        for ri, rate in enumerate(self.rates):
            measure = measures.fugacity_measure(rate, self.phi)
            for k in range(p["paths"]):
                base = measures.sample_box_config(
                    measure, p["schedule"][-1], 2, _rng(seed, 100 * (ri + 1) + k))
                runs.append((rate, base, masters[ri], k))
        return SimpleNamespace(runs=runs, schedule=p["schedule"], T=p["T"])

    def replicas(self, inp) -> int:
        return len(inp.runs)

    def body(self, inp, threads):
        out = []
        for rate, base, master, k in inp.runs:
            try:
                out.append(engine.simulate_truncation_schedule(
                    base, inp.schedule, rate, self.kernel, inp.T,
                    HarrisNoise(master, (k,))))
            except ZRPError as e:
                out.append(e)
        return out

    def check(self, inp, results) -> list[str | None]:
        times = [inp.T * (i + 1) / self.snapshot_count
                 for i in range(self.snapshot_count)]
        verdicts = []
        for res in results:
            if isinstance(res, Exception):
                verdicts.append(f"run raised {res!r}")
                continue
            bad = None
            for traj in res.trajectories:
                bad = bad or _replay_failure(traj)
            if bad is None:
                levels = [configuration.snapshots(t, times)
                          for t in res.trajectories]
                for lo, hi in zip(levels, levels[1:]):
                    for t, a, b in zip(times, lo, hi):
                        over = [x for x, k in a.occ.items() if k > b.count(x)]
                        if over:
                            bad = f"box monotonicity fails at t={t} site {over[0]}"
                            break
                    if bad:
                        break
            verdicts.append(bad)
        return verdicts

    def _trajs(self, results):
        return [t for r in results if not isinstance(r, Exception)
                for t in r.trajectories]

    def info(self, inp, results) -> dict:
        trajs = self._trajs(results)
        return {"events": sum(t.event_count() for t in trajs),
                "events_csv_sha256": _csv_sha(trajs)}

    def digest(self, results):
        return _csv_sha(self._trajs(results)), sum(
            isinstance(r, Exception) for r in results)


class VerifyReplicas(Workload):
    name = "verify-replicas"
    why = ("reduced-budget stationarity, engine agreement, moment and flux "
           "diagnostics: thousands of short replicas weigh pool start-up, "
           "Gillespie, hitting and the statistics")
    workers = 2
    SIZES = {"full": dict(stat=300, control=100, agree=250, moment=150, flux=100),
             "tiny": dict(stat=200, control=60, agree=200, moment=30, flux=30)}
    # Verdicts are gated, and the workload seed varies from run to run: at
    # the diagnostics' default levels (0.01, 0.001) one run in about 80 would
    # fail by chance. At 1e-4 it is about one run in two thousand, and the
    # point-start control still fails with p-values below 1e-30.
    alpha = 1e-4

    def inputs(self, seed, size, workdir):
        p = self.SIZES[size]
        s = _ints(seed, 4, 7)
        k2 = power_rate(2)
        calls = [
            # the AC4 shape: a product start stays invariant ...
            ("stationarity", True, diagnostics, "stationarity_statistical",
             dict(rate=k2, kernel=nn_kernel_1d(0.5), phi=1.0, torus_n=5, T=2.0,
                  replicas=p["stat"], seed=s[0], alpha=self.alpha)),
            # ... and a point start of the same mass is detected
            ("stationarity-control", False, diagnostics,
             "stationarity_statistical",
             dict(rate=k2, kernel=nn_kernel_1d(0.5), phi=1.0, torus_n=5, T=2.0,
                  replicas=p["control"], seed=s[1], start="point",
                  alpha=self.alpha)),
            ("agreement-open", True, diagnostics, "engine_agreement_check",
             dict(eta0=Configuration(1, {-1: 1, 0: 2, 1: 1}), rate=k2,
                  kernel=nn_kernel_1d(0.7), policy=engine.OPEN, T=1.0,
                  replicas=p["agree"], seed=s[2], alpha=self.alpha)),
            ("agreement-periodic", True, diagnostics, "engine_agreement_check",
             dict(eta0=Configuration(1, {0: 3, 1: 1}), rate=power_rate(1),
                  kernel=nn_kernel_1d(0.5), policy=engine.periodic(3), T=1.5,
                  replicas=p["agree"], seed=s[3], alpha=self.alpha)),
            ("agreement-killed", True, diagnostics, "engine_agreement_check",
             dict(eta0=Configuration(1, {-1: 1, 0: 2, 1: 1, 2: 1}),
                  rate=exp_rate(1.0, 0.4), kernel=nn_kernel_1d(0.5),
                  policy=engine.killed(2), T=1.0, replicas=p["agree"],
                  seed=s[4], alpha=self.alpha)),
            ("exp-moment", True, hitting, "exp_moment_check",
             dict(eta0=Configuration(1, {-2: 1, -1: 1, 1: 2, 3: 1}), rate=k2,
                  kernel=nn_kernel_1d(0.5), z=0, theta=0.5, T=2.0,
                  replicas=p["moment"], seed=s[5])),
            ("poisson-flux", True, diagnostics, "poisson_flux_check",
             dict(rate=k2, phi=1.0, torus_n=10, T=3.0, replicas=p["flux"],
                  seed=s[6])),
        ]
        return SimpleNamespace(calls=calls)

    def replicas(self, inp) -> int:
        return sum(kw["replicas"] for *_, kw in inp.calls)

    def body(self, inp, threads):
        out = []
        for label, expect, module, fn, kwargs in inp.calls:
            try:
                out.append(getattr(module, fn)(threads=threads, **kwargs))
            except ZRPError as e:
                out.append(e)
        return out

    def check(self, inp, reports) -> list[str | None]:
        verdicts = []
        for (label, expect, *_), rep in zip(inp.calls, reports):
            if isinstance(rep, Exception):
                verdicts.append(f"{label} raised {rep!r}")
            elif rep.passed != expect:
                verdicts.append(f"{label}: pass={rep.passed}, expected {expect} "
                                f"(statistic {rep.statistic:.6g})")
            else:
                verdicts.append(None)
        return verdicts

    def info(self, inp, reports) -> dict:
        return {"statistics": {label: (None if isinstance(rep, Exception)
                                       else rep.statistic)
                               for (label, *_), rep in zip(inp.calls, reports)}}

    def digest(self, reports):
        return tuple(repr(r) if isinstance(r, Exception)
                     else (r.test, r.passed, r.statistic) for r in reports)


class CliRunArtifacts(Workload):
    name = "cli-run-artifacts"
    why = ("zrp run on a torus config with replay and mass diagnostics: the only "
           "path that ships whole trajectories through the pool, writes them and "
           "parses the config per replica")
    workers = 2
    SIZES = {"full": dict(n=10, T=1.0, replicas=100),
             "tiny": dict(n=2, T=0.5, replicas=3)}

    def inputs(self, seed, size, workdir):
        p = self.SIZES[size]
        cfg = {
            "kernel": {"d": 1, "support": [{"z": [1], "p": 0.7},
                                           {"z": [-1], "p": 0.3}]},
            "rate": {"family": "power", "a": 2.0},
            "policy": {"kind": "periodic", "n": p["n"]},
            "T": p["T"],
            "replicas": p["replicas"],
            "seed": _ints(seed, 5, 1)[0],
            "initial": {"mode": "product", "phi": 1.0, "n": p["n"]},
            "diagnostics": ["replay", "mass"],
        }
        path = Path(workdir) / "experiment.json"
        path.write_text(json.dumps(cfg, indent=1))
        return SimpleNamespace(cfg=cfg, path=path, workdir=Path(workdir),
                               runs=0)

    def replicas(self, inp) -> int:
        return inp.cfg["replicas"]

    def body(self, inp, threads):
        inp.runs += 1
        out = inp.workdir / f"out{inp.runs}"
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
            code = cli.main(["run", "--config", str(inp.path), "--out", str(out),
                             "--threads", str(threads), "--format", "csv"])
        return SimpleNamespace(code=code, dir=out, text=buf.getvalue())

    @staticmethod
    def _read_events(path: Path, d: int) -> list:
        with path.open(newline="") as fh:
            rows = list(csv.reader(fh))
        if rows[0] != ["time", "src", "dst", "kind", "marginal"]:
            raise ValueError(f"unexpected header {rows[0]}")

        def site(s):
            return site_from_coords([int(c) for c in s.split(";")], d)
        return [(float(t), site(a), site(b), kind, tag)
                for t, a, b, kind, tag in rows[1:]]

    def check(self, inp, run) -> list[str | None]:
        if run.code != 0:
            return [f"zrp run exited {run.code}: {run.text.strip()[-300:]}"]
        verdicts = [None]
        exp = cli.Experiment(inp.cfg)
        d = exp.kernel.d
        summary = json.loads((run.dir / "summary.json").read_text())
        for r in range(exp.replicas):
            eta0 = exp.initial_for(r)
            try:
                events = self._read_events(run.dir / f"events_r{r}.csv", d)
            except (OSError, ValueError) as e:
                verdicts.append(f"replica {r}: unreadable events: {e}")
                continue
            final = configuration.config_from_json(summary[r]["final_config"])
            traj = Trajectory(d=d, initial=eta0, events=events, final=final,
                              T=exp.T, policy=exp.policy.describe())
            bad = _replay_failure(traj)
            if bad is None and (final.total() != eta0.total()
                                or traj.kill_count()):
                bad = f"mass {eta0.total()} -> {final.total()} on a torus"
            if bad is None and summary[r]["event_count"] != len(events):
                bad = "summary event_count differs from the events file"
            verdicts.append(bad and f"replica {r}: {bad}")
        reports = sorted(run.dir.glob("report_*.json"))
        if len(reports) != len(exp.diagnostics):
            verdicts.append(f"{len(reports)} reports for "
                            f"{len(exp.diagnostics)} diagnostics")
        for path in reports:
            rep = json.loads(path.read_text())
            verdicts.append(None if rep.get("pass") is True
                            else f"{path.name} did not pass")
        return verdicts

    def info(self, inp, run) -> dict:
        if run.code != 0:
            return {}
        summary = json.loads((run.dir / "summary.json").read_text())
        return {"events": sum(s["event_count"] for s in summary),
                "events_csv_sha256": hashlib.sha256(
                    (run.dir / "events_r0.csv").read_bytes()).hexdigest()}

    def digest(self, run):
        h = hashlib.sha256(str(run.code).encode())
        for path in sorted(run.dir.glob("*")):
            if path.name != "manifest.json":
                h.update(path.name.encode() + b"\0" + path.read_bytes())
        return h.hexdigest()

    def cleanup(self, run) -> None:
        shutil.rmtree(run.dir, ignore_errors=True)


WORKLOADS = {wl.name: wl for wl in (TorusLong(), OpenCoupled2D(),
                                     VerifyReplicas(), CliRunArtifacts())}
