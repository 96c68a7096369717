"""Batch front-end: experiment configs in, deterministic artifacts out.

    zrp run --config experiment.json [--seed N] [--threads N] [--out DIR]
            [--format csv|json]
    zrp suite {acceptance,smoke} [--seed N] [--threads N] [--out DIR]

`zrp run` simulates each replica once, in a worker that replays it when
asked, writes its events_r{r} file and returns its summary.json entry, its
torus row on a filled torus and its martingale row when asked; every
diagnostic reduces those rows, so the parent holds O(replicas) small rows
and no trajectory.

Exit codes: 0 pass, 1 config error, 2 diagnostic failure, 3 internal
invariant violation (the events files of finished replicas may remain).
Every output file is a pure function of (config, seed, package version);
wall-clock timing lives only in the manifest, which is the one file
excluded from byte-level reproducibility.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .configuration import (Configuration, config_from_json, events_csv_string,
                            events_json_string, replay, trajectory_summary)
from .diagnostics import (chi2_replicas, flux_report, martingale_report,
                          martingale_walk, mass_report, stationarity_report,
                          torus_row)
from .engine import OPEN, BoundaryPolicy, simulate
from .errors import (CertificationError, ConfigError, InvariantViolation,
                     RateRangeError, ZRPError, json_count, json_positive)
from .kernel import is_nearest_neighbour_1d, kernel_from_json
from .localfn import capped_occupancy
from .measures import fugacity_measure, sample_box_config
from .noise import HarrisNoise, bands_for
from .parallel import TAG_SAMPLE, derived_rng, replica_map, resolve_threads
from .rates import check_corollary_conditions, rate_from_json
from .sites import box_radius, in_box, origin, site_from_coords


def _field(cfg: dict, path: str, kind=None, required: bool = True, default=None):
    """cfg's entry under the last key of the dotted path, which names the
    field in errors."""
    name = path.rpartition(".")[2]
    if name not in cfg:
        if required:
            raise ConfigError(f"config field '{path}' is missing")
        return default
    v = cfg[name]
    # bool is a subclass of int, but a JSON true is not a number
    if kind is not None and (not isinstance(v, kind) or isinstance(v, bool)):
        raise ConfigError(f"config field '{path}' has the wrong type")
    return v


def _known_keys(obj: dict, prefix: str, known) -> None:
    """Reject a key of obj outside known, so a misspelled optional key fails
    instead of being ignored; prefix is obj's dotted path plus '.'."""
    for key in obj:
        if key not in known:
            raise ConfigError(f"config field '{prefix}{key}' is unknown "
                              f"(expected {', '.join(known)})")


def _load(path: str, loader, *args):
    """loader(*args), naming the config field in any error it raises."""
    try:
        return loader(*args)
    except (CertificationError, ConfigError, RateRangeError) as e:
        raise ConfigError(f"config field '{path}': {e}") from None


def _parse_policy(obj) -> BoundaryPolicy:
    kind = _field(obj, "policy.kind", str)
    if kind == "open":
        _known_keys(obj, "policy.", ("kind",))
        return OPEN
    if kind not in ("killed", "periodic"):
        raise ConfigError(f"config field 'policy.kind': unknown kind {kind!r}")
    _known_keys(obj, "policy.", ("kind", "n"))
    return _load("policy", BoundaryPolicy, kind, _field(obj, "policy.n", int))


# the keys of initial under each mode; a key of another mode is unknown
_INITIAL_KEYS = {"explicit": ("mode", "config"),
                "point": ("mode", "n_particles", "site"),
                "product": ("mode", "phi", "n")}


class Experiment:
    """Validated experiment description: everything a run needs."""

    def __init__(self, cfg: dict):
        _known_keys(cfg, "", ("kernel", "rate", "policy", "T", "replicas",
                              "seed", "initial", "diagnostics"))
        self.kernel = _load("kernel", kernel_from_json, _field(cfg, "kernel", dict))
        self.rate = _load("rate", rate_from_json, _field(cfg, "rate", dict))
        self.policy = _parse_policy(_field(cfg, "policy", dict))
        self.T = _load("T", json_positive, _field(cfg, "T"), "horizon T")
        self.replicas = _load("replicas", json_count, _field(
            cfg, "replicas", required=False, default=1), "replicas", 1)
        self.seed = _load("seed", json_count, _field(
            cfg, "seed", required=False, default=0), "seed", 0)
        d = self.kernel.d
        box = math.inf if self.policy.kind == "open" else self.policy.n
        init = _field(cfg, "initial", dict)
        self.init_mode = _field(init, "initial.mode", str)
        if self.init_mode not in _INITIAL_KEYS:
            raise ConfigError(
                f"config field 'initial.mode': unknown mode {self.init_mode!r}")
        _known_keys(init, "initial.", _INITIAL_KEYS[self.init_mode])
        if self.init_mode == "explicit":
            where = "initial.config"
            self.init_config = _load(where, config_from_json,
                                     _field(init, where, dict))
            if self.init_config.d != d:
                raise ConfigError(f"config field '{where}': dimension "
                                  "does not match the kernel")
        elif self.init_mode == "point":
            where = "initial.site"
            count = _load("initial.n_particles", json_count, _field(
                init, "initial.n_particles", int), "n_particles", 0)
            site = _field(init, where, list, required=False, default=[0] * d)
            self.init_config = Configuration(
                d, {_load(where, site_from_coords, site, d): count})
        else:
            self.init_phi = _load("initial.phi", json_positive,
                                  _field(init, "initial.phi"), "phi")
            self.init_n = _load("initial.n", box_radius,
                                _field(init, "initial.n"), "product start")
            if self.init_n > box:
                raise ConfigError(f"config field 'initial.n' must lie in [0, {box}] "
                                  f"under the {self.policy.describe()} policy")
            # certified once here, so a bad marginal fails before any run
            self.init_measure = _load("initial.phi", fugacity_measure,
                                      self.rate, self.init_phi)
        if self.init_mode != "product":
            for x in self.init_config.sites():
                if not in_box(x, box):
                    raise ConfigError(f"config field '{where}': site {x!r} lies "
                                      f"outside the {self.policy.describe()} box")
        # a product start never holds more than its measure's K on one site
        k_max = (self.init_measure.K if self.init_mode == "product"
                 else max(self.init_config.occ.values(), default=0))
        _load("rate", lambda: bands_for(self.rate.g(k_max)))
        self.diagnostics = tuple(_field(cfg, "diagnostics", list,
                                        required=False, default=[]))
        for name in self.diagnostics:
            if not isinstance(name, str) or name not in DIAGNOSTICS:
                raise ConfigError(
                    f"config field 'diagnostics': unknown entry {name!r} "
                    f"(choose from {', '.join(DIAGNOSTICS)})")
            prerequisite = DIAGNOSTICS[name][0]
            need = prerequisite and prerequisite(self)
            if need:
                raise ConfigError(f"diagnostic {name!r} needs {need}")

    def initial_for(self, r: int) -> Configuration:
        if self.init_mode != "product":
            return self.init_config
        rng = derived_rng(self.seed, TAG_SAMPLE, r)
        return sample_box_config(self.init_measure, self.init_n, self.kernel.d,
                                 rng)


def _torus_product(exp: Experiment) -> str | None:
    # the run's own replicas are the diagnostics' replicas, so the product
    # start must fill the torus to be stationary there
    if (exp.policy.kind != "periodic" or exp.init_mode != "product"
            or exp.init_n != exp.policy.n):
        return ("a periodic policy and a product initial condition with "
                "initial.n == policy.n")
    return None


def _asymmetric_torus_product(exp: Experiment) -> str | None:
    if is_nearest_neighbour_1d(exp.kernel) != (1.0, 0.0):
        return "the totally asymmetric d=1 kernel"
    need = _torus_product(exp)
    if need is None and exp.policy.n < 1:
        need = "a torus radius policy.n >= 1"
    return need or _two_replicas(exp)


def _chi2_torus_product(exp: Experiment) -> str | None:
    # the chi-square p-value holds only if every cell left by the sparse-cell
    # merge expects >= 5: the largest cell and the pooled rest each reach 5
    need = _torus_product(exp)
    if need is None and exp.init_measure.K == 0:
        need = "an initial.phi whose fugacity marginal has two or more cells"
    elif need is None:
        R = chi2_replicas(exp.init_measure.pmf, exp.replicas)
        need = f"replicas >= {R}" if R > exp.replicas else None
    return need


def _two_replicas(exp: Experiment) -> str | None:
    # a sample variance of one replica is undefined
    return "replicas >= 2" if exp.replicas < 2 else None


def _replay_all(exp: Experiment, rows, walks) -> dict:
    # every worker replayed its trajectory; a mismatch raised there
    return {"test": "replay", "pass": True, "statistic": 0.0,
            "threshold": 0.0, "n_replicas": len(rows)}


def _rate_growth(exp: Experiment, rows, walks) -> dict:
    out = check_corollary_conditions(exp.rate, exp.kernel).to_json()
    out.update({"test": "rate-growth", "pass": True, "advisory": True})
    return out


def _stationarity(exp: Experiment, rows, walks) -> dict:
    return stationarity_report(rows, exp.init_measure, exp.init_phi,
                               exp.policy.n, exp.T, exp.seed).to_json()


def _flux(exp: Experiment, rows, walks) -> dict:
    return flux_report(rows, exp.init_phi, exp.policy.n, exp.T,
                       exp.seed).to_json()


def _mass(exp: Experiment, rows, walks) -> dict:
    return mass_report(rows, exp.init_measure, exp.init_phi,
                       exp.seed).to_json()


def _martingale(exp: Experiment, rows, walks) -> dict:
    return martingale_report(walks, _martingale_f(exp), exp.T,
                             exp.seed).to_json()


def _martingale_f(exp: Experiment):
    return capped_occupancy(origin(exp.kernel.d), 10)


# name -> (prerequisite, runner). A prerequisite returns what the experiment
# lacks, or None; Experiment checks them before any replica runs. A runner
# takes (exp, rows, walks), the per-replica torus rows (None off a filled
# torus) and martingale_walk rows (None unless asked for), and returns the
# report's JSON. It is looked up here when called: a test or tracer may swap it.
DIAGNOSTICS = {
    "replay": (None, _replay_all),
    "rate-growth": (None, _rate_growth),
    "stationarity": (_chi2_torus_product, _stationarity),
    "flux": (_asymmetric_torus_product, _flux),
    "mass": (_torus_product, _mass),
    "martingale": (_two_replicas, _martingale),
}


def _make_dir(path: Path) -> Path:
    """path, made with its parents if missing; an --out that cannot be a
    directory is a config error."""
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as e:  # an existing file, or a parent that is one
        raise ConfigError(f"--out {path}: {e.strerror}")
    return path


def _cmd_run(args) -> int:
    import scipy  # for the manifest's version only
    path = Path(args.config)
    try:
        cfg = json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except OSError as e:  # a directory, say
        raise ConfigError(f"cannot read config file {path}: {e.strerror}")
    except (json.JSONDecodeError, UnicodeDecodeError) as e:
        raise ConfigError(f"config is not valid JSON: {e}")
    if not isinstance(cfg, dict):
        raise ConfigError("config is not a JSON object")
    if args.seed is not None:
        cfg["seed"] = args.seed
    exp = Experiment(cfg)
    threads = resolve_threads(args.threads)
    out_dir = _make_dir(Path(args.out) if args.out else Path("zrp-out"))
    walk = "martingale" in exp.diagnostics and martingale_walk(
        _martingale_f(exp), exp.rate, exp.kernel, exp.policy, exp.T)

    def replica(r):
        """Simulate replica r, audit it, write its events_r{r} file and return
        (summary entry, torus row, martingale row), each row None if unused."""
        eta0 = exp.initial_for(r)
        traj = simulate(eta0, exp.rate, exp.kernel, exp.policy, exp.T,
                        HarrisNoise(exp.seed, (r,)))
        if "replay" in exp.diagnostics:
            replay(traj)  # raises InvariantViolation on any mismatch
        row = torus_row(eta0, traj) if _torus_product(exp) is None else None
        if args.format == "json":
            (out_dir / f"events_r{r}.json").write_text(events_json_string(traj))
        else:
            (out_dir / f"events_r{r}.csv").write_text(events_csv_string(traj))
        return trajectory_summary(traj), row, walk(traj) if walk else None

    t0 = time.monotonic()
    entries, rows, walks = zip(*replica_map(replica, exp.replicas,
                                            threads=threads))
    reports = [DIAGNOSTICS[name][1](exp, rows, walks)
               for name in exp.diagnostics]
    wall = time.monotonic() - t0

    (out_dir / "summary.json").write_text(
        json.dumps(list(entries), sort_keys=True, indent=1) + "\n")
    for rep in reports:
        (out_dir / f"report_{rep['test']}.json").write_text(
            json.dumps(rep, sort_keys=True, indent=1) + "\n")

    canonical = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    manifest = {
        "config_sha256": hashlib.sha256(canonical.encode()).hexdigest(),
        "seed": exp.seed,
        "replicas": exp.replicas,
        "threads": threads,
        "version": __version__,
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "python": sys.version.split()[0],
        "wall_time_s": wall,
    }
    (out_dir / "manifest.json").write_text(
        json.dumps(manifest, sort_keys=True, indent=1) + "\n")

    failed = [rep["test"] for rep in reports if not rep["pass"]]
    for rep in reports:
        status = "pass" if rep["pass"] else "FAIL"
        note = ("advisory" if rep.get("advisory")
                else f"statistic={rep.get('statistic', 0.0):.6g}")
        print(f"{rep['test']}: {status} ({note})")
    print(f"wrote {out_dir}/ ({exp.replicas} replicas, "
          f"{sum(e['event_count'] for e in entries)} events)")
    return 2 if failed else 0


def _cmd_suite(args) -> int:
    from .acceptance import run_suite
    if args.seed is not None and args.seed < 0:
        raise ConfigError("--seed must be a non-negative integer")
    threads = resolve_threads(args.threads)
    out_dir = _make_dir(Path(args.out)) if args.out else None
    results = run_suite(args.which, seed=args.seed, threads=threads)
    rows = []
    ok = True
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        ok = ok and res.passed
        print(f"[{status}] {res.cid}: {res.name} "
              f"(statistic={res.statistic:.6g}, {res.seconds:.1f}s)")
        rows.append(res.to_json())
    payload = json.dumps({"suite": args.which, "results": rows,
                          "pass": ok}, sort_keys=True, indent=1) + "\n"
    if out_dir:
        (out_dir / f"suite_{args.which}.json").write_text(payload)
    else:
        print(payload, end="")
    return 0 if ok else 2


class _Parser(argparse.ArgumentParser):
    # exit 2 is reserved for diagnostic failures, so usage errors take 1
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"config error: {message}", file=sys.stderr)
        raise SystemExit(1)


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(prog="zrp")
    sub = ap.add_subparsers(dest="cmd", required=True)

    run_p = sub.add_parser("run", help="run one experiment config")
    run_p.add_argument("--config", required=True)
    run_p.add_argument("--seed", type=int, default=None,
                       help="override the config seed")
    run_p.add_argument("--threads", type=int, default=None)
    run_p.add_argument("--out", default=None)
    run_p.add_argument("--format", choices=("csv", "json"), default="csv")
    run_p.set_defaults(func=_cmd_run)

    suite_p = sub.add_parser("suite", help="run the verification suite")
    suite_p.add_argument("which", choices=("acceptance", "smoke"))
    suite_p.add_argument("--seed", type=int, default=None)
    suite_p.add_argument("--threads", type=int, default=None)
    suite_p.add_argument("--out", default=None)
    suite_p.set_defaults(func=_cmd_suite)
    return ap


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return args.func(args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 1
    except RateRangeError as e:  # a run that piles particles past MAX_BAND
        print(f"config error: config field 'rate': {e}", file=sys.stderr)
        return 1
    except InvariantViolation as e:
        print(f"invariant violation: {e}", file=sys.stderr)
        return 3
    except ZRPError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
