"""Deterministic space-time Poisson field driving the event engine.

Each site x carries a unit-intensity Poisson process on height x time, with
an independent U[0,1) direction mark per atom. A site holding k particles
fires at the atoms with height y <= g(k); higher atoms are thinned. Runs only
ever need atoms up to a height cap, so the field is materialized lazily in
rectangular windows:

    height bands  [0,1), [1,2), [2,4), ... (global, run-independent edges)
    time slabs    [s, s+1), s = 0, 1, ...

The atoms of window (site, band, slab) are a pure function of
(master seed, path, site, band, slab). Raising a cap adds whole bands and can
never change atoms already seen, and any two runs sharing a HarrisNoise see
the identical field: that is what turns shared noise into the monotone
couplings (truncation levels, two-marginal order, the (p,q) family).

Derivation. The field is counter-based (Salmon et al., SC'11): a window is
hashed from its key on every request, nothing is seeded or stored. The
SplitMix64 finaliser mix64 (Steele, Lea & Flood, OOPSLA'14), a bijection of
64-bit words, is folded over the key words as h <- mix64((h + GAMMA) ^ w):
master, TAG_HARRIS, len(path) and the path components, each as its count of
64-bit limbs then the limbs; zigzag(c) for each site coordinate c; and
slab << 16 | band << 8 | d, with d the number of coordinates. Distinct keys
give distinct word sequences while coordinates and slabs fit in 64 bits and
band, d < 256. Word i of the window is mix64(h + i * GAMMA) read as a 53-bit
uniform: word 1 inverts the Poisson(band area) CDF for the atom count, and
atom j takes words 3j+2, 3j+3, 3j+4 for its time, height and mark.

Collision bound: modelling mix64 as a random function, among N distinct
windows of at most L words each, two share a key hash with probability at
most N^2 / 2^65 and two read overlapping words with probability at most
N^2 L / 2^64, below 1e-5 for a million windows of 16 words.

Batches. Because a window is a pure function of its key, the windows of a
whole slab start (every occupied site, every band it needs) can be hashed
together: slab_atoms runs the same _fold and _word on np.uint64 arrays, which
wrap mod 2^64 exactly as the masked Python ints do, inverts each band's CDF
with searchsorted(side="right") as bisect_right does, and forms times and
heights with the same float64 operations, so it returns bit-for-bit the atoms
of window(). numpy pays a fixed cost of about 150 us per batch against
8-17 us per scalar window, so batches of fewer than _BATCH_MIN windows
(about three times the break-even of 20) loop over window() instead. Both
take a time range (t_lo, t_hi]: an atom outside it costs its time word only.
"""
from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import accumulate

import numpy as np

from .parallel import TAG_HARRIS, seed_path
from .sites import Site

TIME_SLAB = 1.0

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_UNIT = 2.0 ** -53
_BATCH_MIN = 64    # windows; smaller slab starts take the scalar path


def band_bounds(b: int) -> tuple[float, float]:
    if b == 0:
        return 0.0, 1.0
    return float(2 ** (b - 1)), float(2 ** b)


def bands_for(cap: float) -> int:
    """Smallest band count whose ceiling covers rate `cap`."""
    if cap <= 0.0:
        return 0
    if cap <= 1.0:
        return 1
    return 1 + math.ceil(math.log2(cap))


def _fold(h, word):
    """mix64((h + GAMMA) ^ word), mix64 being the SplitMix64 finaliser; on
    Python ints or elementwise on np.uint64 arrays."""
    z = ((h + _GAMMA) & _MASK) ^ word
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def _word(h, i):
    """Word i of the stream keyed by h, mix64(h + i * GAMMA), as a uniform
    on [0, 1); on Python ints or elementwise on np.uint64 arrays."""
    z = (h + i * _GAMMA) & _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return ((z ^ (z >> 31)) >> 11) * _UNIT


@lru_cache(maxsize=None)
def _poisson_cdf(band: int) -> list[float]:
    """P(N <= k), k = 0, 1, ..., for N ~ Poisson(band area); the table runs
    until the remaining tail is far below the 2^-53 resolution of a draw."""
    lo, hi = band_bounds(band)
    mean = (hi - lo) * TIME_SLAB
    return list(accumulate(math.exp(k * math.log(mean) - mean - math.lgamma(k + 1))
                           for k in range(int(mean + 10.0 * math.sqrt(mean)) + 20)))


@dataclass(frozen=True)
class HarrisNoise:
    master: int
    path: tuple[int, ...] = ()
    _key: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        h = 0
        for v in seed_path(self.master, TAG_HARRIS, len(self.path), *self.path):
            limbs = [(v >> s) & _MASK for s in range(0, max(v.bit_length(), 1), 64)]
            for w in [len(limbs)] + limbs:
                h = _fold(h, w)
        object.__setattr__(self, "_key", h)

    def window(self, site: Site, band: int, slab: int, t_lo=-math.inf, t_hi=math.inf):
        """(times, heights, marks) of the atoms t_lo < t <= t_hi of one window,
        as lists. Times are absolute (inside [slab, slab+1)), heights inside
        the band, marks U[0,1). Recomputed from the key on every call; the
        height and mark words of an atom outside (t_lo, t_hi] are never hashed.
        """
        coords = (site,) if isinstance(site, int) else site
        h = self._key
        for c in coords:
            h = _fold(h, 2 * c if c >= 0 else -2 * c - 1)
        h = _fold(h, (slab << 16) | (band << 8) | len(coords))
        n = bisect_right(_poisson_cdf(band), _word(h, 1))
        t0 = slab * TIME_SLAB
        ts, kept = [], []
        for i in range(2, 3 * n + 2, 3):  # time words
            t = t0 + _word(h, i) * TIME_SLAB
            if t_lo < t <= t_hi:
                ts.append(t)
                kept.append(i)
        if not kept:
            return ts, [], []
        lo, hi = band_bounds(band)
        return (ts, [lo + (hi - lo) * _word(h, i + 1) for i in kept],
                [_word(h, i + 2) for i in kept])

    def slab_atoms(self, sites, counts, slab: int, t_lo, t_hi) -> list:
        """Atoms (t, site, y, u), t_lo < t <= t_hi, of windows (sites[i], b, slab)
        for every i and b < counts[i], sorted: the atoms window() gives, as tuples."""
        if sum(counts) >= _BATCH_MIN:
            try:
                coords = np.array(sites, dtype=np.int64).reshape(len(sites), -1)
            except OverflowError:  # a coordinate past int64: its word needs > 64 bits
                pass
            else:
                return self._slab_batch(coords, sites, counts, slab, t_lo, t_hi)
        atoms = [(t, x, y, u) for x, m in zip(sites, counts) for b in range(m)
                 for t, y, u in zip(*self.window(x, b, slab, t_lo, t_hi))]
        atoms.sort()
        return atoms

    def _slab_batch(self, coords, sites, counts, slab: int, t_lo, t_hi) -> list:
        """slab_atoms for int64 coordinates, hashed in np.uint64 arrays."""
        h = np.full(len(sites), self._key, dtype=np.uint64)
        for c in coords.T:
            neg = c < 0
            h = _fold(h, (np.where(neg, ~c, c).astype(np.uint64) << 1) | neg)
        site, band = _expand(np.asarray(counts, dtype=np.int64))
        h = _fold(h[site], (slab << 16) | (band.astype(np.uint64) << 8) | coords.shape[1])
        n_bands = int(band.max()) + 1
        count_u = _word(h, 1)
        num = np.empty(len(h), dtype=np.int64)
        for b in range(n_bands):
            sel = band == b
            num[sel] = np.searchsorted(_poisson_cdf(b), count_u[sel], side="right")
        win, j = _expand(num)
        h, i = h[win], (3 * j + 2).astype(np.uint64)
        t = slab * TIME_SLAB + _word(h, i) * TIME_SLAB
        keep = (t_lo < t) & (t <= t_hi)
        t, win, h, i = t[keep], win[keep], h[keep], i[keep]
        lo, hi = np.array([band_bounds(k) for k in range(n_bands)])[band[win]].T
        y = lo + (hi - lo) * _word(h, i + 1)
        u = _word(h, i + 2)
        order = np.argsort(t, kind="stable")
        atoms = list(zip(t[order].tolist(), [sites[k] for k in site[win][order].tolist()],
                         y[order].tolist(), u[order].tolist()))
        atoms.sort()  # exact ties in t fall back to tuple order, as in a heap
        return atoms


def _expand(counts: np.ndarray):
    """(group, rank) of every item, group g holding counts[g] items."""
    group = np.repeat(np.arange(len(counts)), counts)
    return group, np.arange(len(group)) - np.repeat(np.cumsum(counts) - counts, counts)
