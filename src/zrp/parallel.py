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
import pickle
import signal
from typing import Any, Callable

import numpy as np

from .errors import ConfigError, WorkerError, json_count

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


def _forkable(threads: int) -> int:
    if threads > 1 and not hasattr(os, "fork"):
        raise ConfigError(f"threads={threads} needs os.fork, missing here")
    return threads


def resolve_threads(requested: int | None = None) -> int:
    """The --threads flag, else the CPU count (1 without os.fork)."""
    if requested is None:
        return (os.cpu_count() or 1) if hasattr(os, "fork") else 1
    return _forkable(json_count(requested, "threads", 1))


def _share(fn, indices) -> tuple:
    """(None, results) of the replicas in indices, or (i, exception) of the
    first of them to raise."""
    out = []
    for i in indices:
        try:
            out.append(fn(i))
        except Exception as e:
            return i, e
    return None, out


def replica_map(fn: Callable[[int], Any], n_replicas: int, *,
                threads: int = 1) -> list[Any]:
    """[fn(0), ..., fn(n-1)] with results in replica order.

    fn(r) depends on r alone, its random streams keyed by r; it is typically
    a closure over its caller's inputs. With w = min(threads, n_replicas) > 1
    the caller forks w - 1 children and runs worker 0 itself; worker k runs
    the replicas r % w == k. fn sees monkeypatches made before the call; its
    results and exceptions must be picklable. The lowest raising replica's
    exception is raised, as at threads=1. Every child is reaped before the
    call ends; one that ends without reporting raises WorkerError with its
    exit status.
    """
    workers = max(1, min(_forkable(threads), n_replicas))
    children, shares, codes = [], [], []  # children: (pid, read end of pipe)
    try:
        for k in range(1, workers):
            r, w = os.pipe()
            pid = os.fork()
            if pid == 0:  # worker k reports through its pipe, never returns
                try:
                    with open(w, "wb") as pipe:
                        pickle.dump(_share(fn, range(k, n_replicas, workers)), pipe)
                    os._exit(0)
                finally:
                    os._exit(1)
            os.close(w)
            children.append((pid, open(r, "rb")))
        shares.append(_share(fn, range(0, n_replicas, workers)))
        shares += [pipe.read() for _, pipe in children]
    finally:
        for pid, pipe in children:
            if len(shares) < workers:  # the caller failed: stop the children
                os.kill(pid, signal.SIGKILL)
            pipe.close()
            codes.append(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))
    for k, code in enumerate(codes, 1):
        if code or not shares[k]:
            raise WorkerError(f"replica worker {k} ended with exit status "
                              f"{code} before reporting")
        shares[k] = pickle.loads(shares[k])
    failed = [s for s in shares if s[0] is not None]
    if failed:
        raise min(failed)[1]  # indices differ: no exception is compared
    return [shares[i % workers][1][i // workers] for i in range(n_replicas)]
