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
hashed from its key on every request; nothing is seeded, and the only state
is folded key prefixes, per site and per (master, len(path)). The
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
together: slab_atoms starts from the per-site keys (_site_key, folded in
Python ints and memoised, so coordinates of any width batch), then applies
the slab and band word, mix64 and _word on np.uint64 arrays, which wrap mod
2^64 exactly as the masked Python ints do, inverts each band's CDF with
searchsorted(side="right") as bisect_right does, and forms times and heights
with the same float64 operations, so it returns bit-for-bit the atoms of
band_atoms, the scalar kernel that window() views. Both paths return atoms in
window order and promise none: the engine's heap orders them. numpy pays a
fixed cost per batch of about 33 scalar windows of bands 0-1 with every atom
kept (70 us against 2.2 us on a 2 vCPU Xeon, Python 3.11, numpy 2.4, in a fast
phase of a host whose speed drifts up to threefold), so batches of fewer than
_BATCH_MIN windows (about twice that break-even) loop over band_atoms instead.
A slab start asks for the atoms up to t_hi, a rise for those in (t_lo, t_hi],
past its own time t_lo: an atom outside costs its time word only. A batch also
hashes spare bands, which a rise may need, as columns; the scalar path hashes
none: in Python a spare costs what a rise does, and about half never serve one
(with them, 300 runs on an 11-site torus took 1.30 times as long).
"""
from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import lru_cache, reduce
from itertools import accumulate

import numpy as np

from .errors import RateRangeError
from .parallel import TAG_HARRIS, seed_path
from .sites import Site, site_coords

TIME_SLAB = 1.0

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_UNIT = 2.0 ** -53
_BATCH_MIN = 64    # windows; smaller slab starts take the scalar path
# The highest band a window may have, so rates up to 2^20: band b holds about
# 2^(b-1) atoms per window and as many CDF entries. Band 20 builds its table
# in 0.3 s and draws a window in 1.1 s, at 114 MB peak RSS against 32 MB for
# band 12 (2 vCPU Xeon, Python 3.11). The tests reach band 12; the smoke
# suite, the demos and the benchmark stay at 6 or below.
MAX_BAND = 20


def band_bounds(b: int) -> tuple[float, float]:
    if b == 0:
        return 0.0, 1.0
    return float(2 ** (b - 1)), float(2 ** b)


def bands_for(cap: float) -> int:
    """Smallest band count whose ceiling covers rate `cap`; RateRangeError
    when its top band is past MAX_BAND."""
    if cap <= 0.0:
        return 0
    if cap <= 1.0:
        return 1
    m = 1 + math.ceil(math.log2(cap))
    if m > MAX_BAND + 1:
        raise RateRangeError(f"rate {cap!r} needs noise band {m - 1}, "
                             f"past MAX_BAND = {MAX_BAND}")
    return m


def _mix(z):
    """mix64(z), the SplitMix64 finaliser of a 64-bit word; on Python ints or
    elementwise on np.uint64 arrays, which wrap mod 2^64 as the masks do."""
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def _fold(h, word):
    """mix64((h + GAMMA) ^ word)."""
    return _mix(((h + _GAMMA) & _MASK) ^ word)


def _word(h, i):
    """Word i of the stream keyed by h, mix64(h + i * GAMMA), as a uniform
    on [0, 1); on Python ints or elementwise on np.uint64 arrays."""
    return (_mix((h + i * _GAMMA) & _MASK) >> 11) * _UNIT


@lru_cache(maxsize=None)
def _band(band: int) -> tuple[list[float], float, float]:
    """(cdf, floor, height) of one band; cdf[k] = P(N <= k), N ~ Poisson(band
    area), runs until the tail is far below the 2^-53 resolution of a draw;
    RateRangeError past MAX_BAND, before anything is allocated."""
    if band > MAX_BAND:
        raise RateRangeError(f"noise band {band} is past MAX_BAND = {MAX_BAND}")
    lo, hi = band_bounds(band)
    mean = (hi - lo) * TIME_SLAB
    return (list(accumulate(math.exp(k * math.log(mean) - mean - math.lgamma(k + 1))
                            for k in range(int(mean + 10.0 * math.sqrt(mean)) + 20))),
            lo, hi - lo)


def _fold_int(h: int, v: int) -> int:
    """h folded over v's count of 64-bit limbs, then the limbs."""
    limbs = [(v >> s) & _MASK for s in range(0, max(v.bit_length(), 1), 64)]
    return reduce(_fold, limbs, _fold(h, len(limbs)))


@lru_cache(maxsize=64)
def _prefix(master: int, n: int) -> int:
    """The fold of (master, TAG_HARRIS, n), shared by every path of length n."""
    return reduce(_fold_int, (master, TAG_HARRIS, n), 0)


@dataclass(frozen=True)
class HarrisNoise:
    master: int
    path: tuple[int, ...] = ()
    _key: int = field(init=False, repr=False, compare=False)
    _site_keys: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        master, *path = seed_path(self.master, *self.path)
        object.__setattr__(self, "_key", reduce(_fold_int, path, _prefix(master, len(path))))

    def band_atoms(self, site: Site, b0: int, b1: int, slab: int, t_lo, t_hi) -> list:
        """The atoms (t, site, y, u), t_lo < t <= t_hi, of windows (site, b, slab)
        for b0 <= b < b1, band by band in word order: absolute times, heights
        inside their band, marks U[0,1). Hashed from the site's key on every
        call; an atom outside (t_lo, t_hi] costs its time word only."""
        key = self._site_keys.get(site) or self._site_key(site)
        out, t0 = [], slab * TIME_SLAB
        for band in range(b0, b1):
            # _fold(h, slab << 16 | band << 8 | d) and each _word(h, i), inline:
            # calling _word here made each window 4-7% slower
            z = key ^ ((slab << 16) | (band << 8))  # d < 256 shares no bit with them
            z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
            z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
            h = z ^ (z >> 31)
            cdf, lo, height = _band(band)
            z = (h + _GAMMA) & _MASK
            z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
            z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
            n = bisect_right(cdf, ((z ^ (z >> 31)) >> 11) * _UNIT)
            for i in range(2, 3 * n + 2, 3):  # time words; height and mark if kept
                z = (h + i * _GAMMA) & _MASK
                z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
                z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
                t = t0 + ((z ^ (z >> 31)) >> 11) * _UNIT * TIME_SLAB
                if t_lo < t <= t_hi:
                    z = (h + (i + 1) * _GAMMA) & _MASK
                    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
                    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
                    y = lo + height * (((z ^ (z >> 31)) >> 11) * _UNIT)
                    z = (h + (i + 2) * _GAMMA) & _MASK
                    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
                    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
                    out.append((t, site, y, ((z ^ (z >> 31)) >> 11) * _UNIT))
        return out

    def window(self, site: Site, band: int, slab: int, t_lo=-math.inf, t_hi=math.inf):
        """band_atoms of one band as lists (times, heights, marks)."""
        atoms = self.band_atoms(site, band, band + 1, slab, t_lo, t_hi)
        return [a[0] for a in atoms], [a[2] for a in atoms], [a[3] for a in atoms]

    def _site_key(self, site: Site) -> int:
        """(h + GAMMA) ^ d, h the path key folded over the zigzag of each
        coordinate of site, in Python ints; memoised per site."""
        coords = site_coords(site)
        h = reduce(_fold, [2 * c if c >= 0 else -2 * c - 1 for c in coords], self._key)
        key = self._site_keys[site] = ((h + _GAMMA) & _MASK) ^ len(coords)
        return key

    def slab_atoms(self, sites, counts, ahead, slab: int, t_hi):
        """(atoms, spare). atoms: the atoms (t, site, y, u), t <= t_hi, of
        windows (sites[i], b, slab), b < counts[i], in window order, no order
        promised. spare: (times, heights, marks, spans), the atoms a batch hashes
        of bands counts[i] <= b < ahead[i], site i's at [start, stop) for
        spans[sites[i]] = (start, stop, ahead[i])."""
        if sum(counts) >= _BATCH_MIN:
            return self._slab_batch(sites, counts, ahead, slab, t_hi)
        atoms = [a for x, m in zip(sites, counts)
                 for a in self.band_atoms(x, 0, m, slab, -math.inf, t_hi)]
        return atoms, ([], [], [], {})

    def _slab_batch(self, sites, counts, ahead, slab: int, t_hi):
        """slab_atoms hashed in np.uint64 arrays, from the per-site keys."""
        keys = self._site_keys
        h = np.array([keys.get(x) or self._site_key(x) for x in sites], dtype=np.uint64)
        site, band = _expand(np.asarray(ahead, dtype=np.int64))
        h = _mix(h[site] ^ ((slab << 16) | (band.astype(np.uint64) << 8)))
        n_bands = int(band.max()) + 1
        count_u = _word(h, 1)
        num = np.empty(len(h), dtype=np.int64)
        for b in range(n_bands):
            sel = band == b
            num[sel] = np.searchsorted(_band(b)[0], count_u[sel], side="right")
        win, j = _expand(num)
        h, i = h[win], (3 * j + 2).astype(np.uint64)
        t = slab * TIME_SLAB + _word(h, i) * TIME_SLAB
        keep = t <= t_hi
        t, win, h, i = t[keep], win[keep], h[keep], i[keep]
        lo, hi = np.array([band_bounds(k) for k in range(n_bands)])[band[win]].T
        y = lo + (hi - lo) * _word(h, i + 1)
        u = _word(h, i + 2)
        # split by band, not height: a height can round up to its band's ceiling
        at = site[win]
        spare = band[win] >= np.asarray(counts, dtype=np.int64)[at]
        own = ~spare
        atoms = list(zip(t[own].tolist(), [sites[k] for k in at[own].tolist()],
                         y[own].tolist(), u[own].tolist()))
        # windows run site by site, so each site's spare atoms are contiguous
        edge = np.searchsorted(at[spare], np.arange(len(sites) + 1)).tolist()
        spans = {sites[k]: (edge[k], edge[k + 1], a)
                 for k, (m, a) in enumerate(zip(counts, ahead)) if a > m}
        return atoms, (t[spare].tolist(), y[spare].tolist(), u[spare].tolist(), spans)


def _expand(counts: np.ndarray):
    """(group, rank) of every item, group g holding counts[g] items."""
    group = np.repeat(np.arange(len(counts)), counts)
    return group, np.arange(len(group)) - np.repeat(np.cumsum(counts) - counts, counts)
