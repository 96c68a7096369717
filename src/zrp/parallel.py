"""Deterministic seed derivation and replica-parallel mapping.

Seed splitting: every numpy generator in the package is derived as
PCG64(SeedSequence(entropy=(master, *path))) where path is a tuple of
non-negative ints naming the consumer (stream tag, replica index...).
The Harris field is not a generator: noise.HarrisNoise hashes each window
from (master, TAG_HARRIS, path, site, band, slab) with a counter-based
SplitMix64 hash. Either way, identical keys always yield identical numbers,
so results never depend on evaluation order or thread count.
"""
from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from typing import Any, Callable, Sequence

import numpy as np

from .errors import ConfigError

# stream tags: keep distinct consumers on distinct subtrees of the seed space
TAG_HARRIS = 1
TAG_GILLESPIE = 2
TAG_SAMPLE = 3
TAG_WALK = 4
TAG_CALIBRATE = 5


def seed_path(*parts: int) -> tuple[int, ...]:
    out = []
    for p in parts:
        q = int(p)
        if q != p:
            # silent truncation would alias distinct paths onto one stream
            raise ValueError(f"seed path component {p!r} is not an integer")
        if q < 0:
            raise ValueError("seed path components must be non-negative")
        out.append(q)
    return tuple(out)


def derived_rng(master: int, *path: int) -> np.random.Generator:
    ss = np.random.SeedSequence(entropy=(int(master),) + seed_path(*path))
    return np.random.Generator(np.random.PCG64(ss))


def resolve_threads(requested: int | None = None) -> int:
    """--threads flag wins, then ZRP_THREADS, then CPU count."""
    if requested is not None:
        if requested < 1:
            raise ConfigError("threads must be >= 1")
        return requested
    env = os.environ.get("ZRP_THREADS")
    if env:
        try:
            n = int(env)
        except ValueError:
            raise ConfigError(f"ZRP_THREADS={env!r} is not an integer") from None
        if n < 1:
            raise ConfigError("ZRP_THREADS must be >= 1")
        return n
    return os.cpu_count() or 1


def _chunk_worker(payload):
    fn, indices, args = payload
    return [fn(i, *args) for i in indices]


def replica_map(fn: Callable[..., Any], n_replicas: int, *, threads: int = 1,
                args: Sequence[Any] = ()) -> list[Any]:
    """[fn(0, *args), ..., fn(n-1, *args)] with results in replica order.

    fn must be a module-level function when threads > 1 (it is pickled).
    Replica index is the only thing that varies, so the output is identical
    for every thread count.
    """
    args = tuple(args)
    if threads <= 1 or n_replicas <= 1:
        return [fn(i, *args) for i in range(n_replicas)]
    n_chunks = min(n_replicas, 4 * threads)
    bounds = np.linspace(0, n_replicas, n_chunks + 1).astype(int)
    payloads = [(fn, range(lo, hi), args) for lo, hi in zip(bounds[:-1], bounds[1:]) if hi > lo]
    out: list[Any] = []
    with ProcessPoolExecutor(max_workers=threads) as pool:
        for chunk in pool.map(_chunk_worker, payloads):
            out.extend(chunk)
    return out
