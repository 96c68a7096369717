"""Spans and counters recorded around calls into zrp, from outside src/.

The program is not instrumented. Instead the benchmark replaces a public
function by a wrapper in every zrp module that holds it under its own name
(``simulate`` as seen from ``zrp.engine``, ``zrp.diagnostics``,
``zrp.hitting``, ``zrp.cli`` and the package), so calls made inside the
library are seen too. A span records name, start, end, parent and one
count (atoms, events...). Spans stay in memory; ``layer_metrics`` turns
them into the per-layer table.

Spans are exact only in one process, so the traced pass runs one worker.
Counting simulated events must also work with pool workers: those are
forked by ``zrp.parallel.replica_map``, inherit the wrappers and add to a
counter in shared memory.
"""
from __future__ import annotations

import functools
import importlib
import mmap
import multiprocessing
import struct
import sys
import time
from contextlib import contextmanager

clock = time.perf_counter


def _events(args, out):
    return len(out.events)


def _window_atoms(args, out):
    return len(out[0])


def _replayed_events(args, out):
    return len(args[0].events)


# (defining module, attribute, span name, count) for every traced call.
# Only functions whose numbers the per-layer table reports are listed.
TRACED = (
    ("zrp.noise", "HarrisNoise.window", "noise.window", _window_atoms),
    ("zrp.parallel", "derived_rng", "parallel.derived_rng", None),
    ("zrp.parallel", "replica_map", "parallel.replica_map", None),
    ("zrp.engine", "simulate", "engine.simulate", _events),
    ("zrp.engine", "simulate_gillespie", "engine.gillespie", _events),
    ("zrp.measures", "fugacity_measure", "measures.fugacity_measure", None),
    ("zrp.measures", "sample_box_config", "measures.sample_box_config", None),
    ("zrp.configuration", "replay", "configuration.replay", _replayed_events),
    ("zrp.configuration", "events_csv_string", "configuration.events_csv",
     _replayed_events),
    ("zrp.configuration", "snapshots", "configuration.snapshots", None),
    ("zrp.diagnostics", "stationarity_statistical",
     "diagnostics.stationarity_statistical", None),
    ("zrp.diagnostics", "engine_agreement_check",
     "diagnostics.engine_agreement_check", None),
    ("zrp.diagnostics", "poisson_flux_check", "diagnostics.poisson_flux_check",
     None),
    ("zrp.diagnostics", "mass_conservation_check",
     "diagnostics.mass_conservation_check", None),
    ("zrp.hitting", "mbar", "hitting.mbar", None),
    ("zrp.hitting", "exp_moment_check", "hitting.exp_moment_check", None),
    ("zrp.cli", "Experiment", "cli.Experiment", None),
)

ENGINES = tuple(t for t in TRACED if t[2] in ("engine.simulate", "engine.gillespie"))
REPLICA_MAP = tuple(t for t in TRACED if t[2] == "parallel.replica_map")


@contextmanager
def patched(targets, make_wrapper):
    """Replace each target by ``make_wrapper(original, span, count)`` in every
    loaded zrp module that holds it by name; restore on exit."""
    undo = []
    try:
        for modname, attr, span, count in targets:
            owner = importlib.import_module(modname)
            if "." in attr:  # a method: patch the class once
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                setattr(cls, meth, make_wrapper(original, span, count))
                undo.append((cls, meth, original))
                continue
            original = getattr(owner, attr)
            wrapper = make_wrapper(original, span, count)
            for name, mod in list(sys.modules.items()):
                if (name == "zrp" or name.startswith("zrp.")) and \
                        getattr(mod, attr, None) is original:
                    setattr(mod, attr, wrapper)
                    undo.append((mod, attr, original))
        yield
    finally:
        for obj, attr, original in reversed(undo):
            setattr(obj, attr, original)


class SharedCounter:
    """A 64-bit total that forked pool workers add to.

    An anonymous shared mapping survives fork, so the library's own process
    pool (fork start method) reports into it without any change to src/.
    """

    def __init__(self):
        if multiprocessing.get_start_method() != "fork":
            raise RuntimeError("counting work in pool workers needs the fork "
                               "start method")
        self._buf = mmap.mmap(-1, 8)
        self._lock = multiprocessing.get_context("fork").Lock()

    def add(self, n: int) -> None:
        with self._lock:
            (v,) = struct.unpack_from("q", self._buf)
            struct.pack_into("q", self._buf, 0, v + n)

    def take(self) -> int:
        """Current total, resetting it to zero."""
        with self._lock:
            (v,) = struct.unpack_from("q", self._buf)
            struct.pack_into("q", self._buf, 0, 0)
        return v


@contextmanager
def counting_events(counter: SharedCounter):
    """Add the event count of every simulate / simulate_gillespie result to
    ``counter``, in this process and in forked workers."""
    def make(fn, span, count):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            out = fn(*args, **kwargs)
            counter.add(len(out.events))
            return out
        return counted
    with patched(ENGINES, make):
        yield


@contextmanager
def timing_replica_map(walls: list):
    """Append the wall time of every replica_map call made in this process."""
    def make(fn, span, count):
        @functools.wraps(fn)
        def timed(*args, **kwargs):
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                walls.append(clock() - t0)
        return timed
    with patched(REPLICA_MAP, make):
        yield


class Tracer:
    """In-memory spans: ``(name, start, end, parent index, count)``."""

    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []

    def _wrap(self, fn, name, count):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(i)
            out = None
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
                return out
            finally:
                t1 = clock()
                stack.pop()
                n = count(args, out) if (count and out is not None) else 0
                spans[i] = (name, t0, t1, parent, n)
        return traced

    @contextmanager
    def tracing(self):
        with patched(TRACED, self._wrap):
            yield


def self_times(spans) -> list[float]:
    """Span duration minus the time its child spans cover.

    In a one-worker run ``replica_map`` only loops over its worker function,
    so its self time is the caller's per-replica code; it is handed to the
    parent span.
    """
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            own[s[3]] -= s[2] - s[1]
    for i, s in enumerate(spans):
        if s[0] == "parallel.replica_map" and s[3] >= 0:
            own[s[3]] += own[i]
            own[i] = 0.0
    return own


def by_name(spans) -> dict[str, list]:
    """``{name: [calls, total s, self s, summed count]}`` over the spans."""
    rows: dict[str, list] = {}
    for s, own in zip(spans, self_times(spans)):
        r = rows.setdefault(s[0], [0, 0.0, 0.0, 0])
        r[0] += 1
        r[1] += s[2] - s[1]
        r[2] += own
        r[3] += s[4]
    return rows


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(spans, serial_map_s: float, parallel_map_s: float,
                  workers: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced body, as ``{name: (value, unit)}``.

    ``serial_map_s`` and ``parallel_map_s`` are replica_map wall times of the
    untraced body at one worker and at ``workers`` workers. A ratio whose
    base is zero (say Gillespie events on a workload that runs none) is 0.
    """
    rows = by_name(spans)

    def calls(name):
        return rows.get(name, (0, 0.0, 0.0, 0))[0]

    def total(name):
        return rows.get(name, (0, 0.0, 0.0, 0))[1]

    def self_s(name):
        return rows.get(name, (0, 0.0, 0.0, 0))[2]

    def count(name):
        return rows.get(name, (0, 0.0, 0.0, 0))[3]

    # a window that drew atoms made a derived_rng child; a cache hit did not
    drew = {s[3] for s in spans if s[0] == "parallel.derived_rng"}
    drawn = drawn_s = 0
    for i, s in enumerate(spans):
        if s[0] == "noise.window" and i in drew:
            drawn += 1
            drawn_s += s[2] - s[1]

    windows = calls("noise.window")
    events = count("engine.simulate")
    atoms = count("noise.window")
    g_events = count("engine.gillespie")
    rng_calls = calls("parallel.derived_rng")
    return {
        "noise.window.calls": (windows, "count"),
        "noise.window.drawn": (drawn, "count"),
        "noise.window.hit_ratio": (_ratio(windows - drawn, windows), "ratio"),
        "noise.window.self_s": (self_s("noise.window"), "s"),
        "noise.window.us_per_draw": (1e6 * _ratio(drawn_s, drawn), "us"),
        "noise.atoms_drawn": (atoms, "count"),
        "noise.windows_per_event": (_ratio(drawn, events), "ratio"),
        "engine.simulate.calls": (calls("engine.simulate"), "count"),
        "engine.simulate.events": (events, "count"),
        "engine.simulate.self_s": (self_s("engine.simulate"), "s"),
        "engine.simulate.us_per_event": (
            1e6 * _ratio(total("engine.simulate"), events), "us"),
        "engine.fired_per_atom": (_ratio(events, atoms), "ratio"),
        "engine.gillespie.events": (g_events, "count"),
        "engine.gillespie.us_per_event": (
            1e6 * _ratio(total("engine.gillespie"), g_events), "us"),
        "parallel.derived_rng.calls": (rng_calls, "count"),
        "parallel.derived_rng.us_per_call": (
            1e6 * _ratio(total("parallel.derived_rng"), rng_calls), "us"),
        "parallel.replica_map.calls": (calls("parallel.replica_map"), "count"),
        "parallel.replica_map.wall_s": (parallel_map_s, "s"),
        "parallel.replica_map.efficiency": (
            _ratio(serial_map_s, workers * parallel_map_s), "ratio"),
        "measures.fugacity_measure.calls": (
            calls("measures.fugacity_measure"), "count"),
        "measures.fugacity_measure.s": (total("measures.fugacity_measure"), "s"),
        "measures.sample_box_config.calls": (
            calls("measures.sample_box_config"), "count"),
        "measures.sample_box_config.s": (
            total("measures.sample_box_config"), "s"),
        "configuration.replay.us_per_event": (
            1e6 * _ratio(total("configuration.replay"),
                         count("configuration.replay")), "us"),
        "configuration.events_csv.us_per_event": (
            1e6 * _ratio(total("configuration.events_csv"),
                         count("configuration.events_csv")), "us"),
        "configuration.snapshots.s": (total("configuration.snapshots"), "s"),
        "diagnostics.self_s": (sum(r[2] for k, r in rows.items()
                                   if k.startswith("diagnostics.")), "s"),
        "hitting.mbar.calls": (calls("hitting.mbar"), "count"),
        "hitting.mbar.s": (total("hitting.mbar"), "s"),
        "hitting.exp_moment_check.self_s": (
            self_s("hitting.exp_moment_check"), "s"),
        "cli.Experiment.calls": (calls("cli.Experiment"), "count"),
        "cli.Experiment.s": (total("cli.Experiment"), "s"),
    }
