"""Translation-invariant, finite-range jump kernels p(z) on Z^d.

A kernel is the common law of the jump displacement: when a site fires, the
particle moves from x to x + z with probability p(z). Support must be finite,
must not contain the zero offset, and the weights must sum to 1.

One inverse-CDF rule maps an atom's mark u in [0, 1) to a jump:
sample_jump orders the support lexicographically and takes the first offset
whose cumulative weight exceeds u. For the d=1 nearest-neighbour kernel
nn_kernel_1d(p) that is a right jump iff u >= 1 - p. These right-jump sets
are nested in p, so an atom that sends a particle right under p does so under
every larger p, which keeps the coupled (p,q) family order-preserving.

offsets holds the support as coordinate tuples, which fix its order; jumps
holds the same offsets as sites (sites.site_from_coords), and support() and
sample_jump hand those out, so no caller spells a site itself.
"""
from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from functools import lru_cache
from numbers import Integral

import numpy as np

from .errors import ConfigError, json_number
from .sites import Site, site_coords, site_from_coords

PROB_TOL = 1e-12


@dataclass(frozen=True)
class Kernel:
    d: int
    # support sorted lexicographically by offset coordinates
    offsets: tuple[tuple[int, ...], ...]
    probs: tuple[float, ...]
    # derived, filled in __post_init__
    cum: tuple[float, ...] = field(default=(), compare=False)
    range: int = field(default=0, compare=False)
    jumps: tuple[Site, ...] = field(init=False, compare=False)  # offsets as sites

    def __post_init__(self):
        if self.d < 1:
            raise ConfigError("kernel dimension must be >= 1")
        if not self.offsets:
            raise ConfigError("kernel support is empty")
        seen = set()
        for z in self.offsets:
            if len(z) != self.d:
                raise ConfigError(f"offset {z} does not match d={self.d}")
            if all(c == 0 for c in z):
                raise ConfigError("kernel support must not contain the zero offset")
            if z in seen:
                raise ConfigError(f"duplicate offset {z}")
            seen.add(z)
        if list(self.offsets) != sorted(self.offsets):
            raise ConfigError("offsets must be sorted lexicographically")
        if not all(p > 0 for p in self.probs) or len(self.probs) != len(self.offsets):
            raise ConfigError("each offset needs a probability > 0")
        s = float(sum(self.probs))
        if abs(s - 1.0) > PROB_TOL:
            raise ConfigError(f"kernel probabilities sum to {s!r}, not 1")
        cum = tuple(np.cumsum(self.probs).tolist())
        object.__setattr__(self, "cum", cum)
        object.__setattr__(self, "range", max(max(abs(c) for c in z) for z in self.offsets))
        object.__setattr__(self, "jumps", tuple(site_from_coords(z, self.d) for z in self.offsets))

    def support(self) -> list[tuple[Site, float]]:
        return list(zip(self.jumps, self.probs))


def make_kernel(support, d: int | None = None) -> Kernel:
    """support: iterable of (offset, prob); offsets as ints (d=1) or tuples."""
    items = []
    for z, p in support:
        items.append((tuple(int(c) for c in site_coords(z)), float(p)))
    if d is None:
        if not items:
            raise ConfigError("kernel support is empty")
        d = len(items[0][0])
    items.sort(key=lambda it: it[0])
    return Kernel(d=d, offsets=tuple(z for z, _ in items), probs=tuple(p for _, p in items))


@lru_cache(maxsize=None, typed=True)  # a Kernel is frozen, so one can be shared
def nn_kernel_1d(p: float, q: float | None = None) -> Kernel:
    """Nearest-neighbour d=1 kernel: +1 with prob p, -1 with prob q = 1-p."""
    if q is None:
        q = 1.0 - p
    if p < 0 or q < 0:
        raise ConfigError("p, q must be non-negative")
    if abs(p + q - 1.0) > PROB_TOL:
        raise ConfigError(f"p + q = {p + q!r} must be 1")
    support = []
    if q > 0:
        support.append(((-1,), q))
    if p > 0:
        support.append(((1,), p))
    return Kernel(d=1, offsets=tuple(z for z, _ in support), probs=tuple(w for _, w in support))


def symmetric_nn_kernel(d: int) -> Kernel:
    """Simple random walk kernel: 2d nearest neighbours, weight 1/(2d) each."""
    offs = []
    for i in range(d):
        for s in (-1, 1):
            z = [0] * d
            z[i] = s
            offs.append(tuple(z))
    offs.sort()
    return Kernel(d=d, offsets=tuple(offs), probs=tuple([1.0 / (2 * d)] * (2 * d)))


def mean_drift(kernel: Kernel) -> tuple[float, ...]:
    return tuple(float(sum(p * z[i] for z, p in zip(kernel.offsets, kernel.probs)))
                 for i in range(kernel.d))


def is_nearest_neighbour_1d(kernel: Kernel):
    """(p, q) if the kernel is d=1 with support inside {-1, +1}, else None."""
    w = dict(zip(kernel.jumps, kernel.probs))
    if kernel.d != 1 or not set(w) <= {-1, 1}:
        return None
    return (w.get(1, 0.0), w.get(-1, 0.0))


def sample_jump(kernel: Kernel, u: float) -> Site:
    """Inverse CDF over the lexicographically ordered support; u in [0, 1)."""
    # min(): the rounding guard for a mark just below 1
    return kernel.jumps[min(bisect_right(kernel.cum, u), len(kernel.jumps) - 1)]


def kernel_from_json(obj: dict) -> Kernel:
    try:
        d, raw = obj["d"], obj["support"]
    except (KeyError, TypeError) as e:
        raise ConfigError(f"kernel spec needs 'd' and 'support': {e}") from None
    d = int(json_number(d, "kernel dimension", Integral))
    if not isinstance(raw, list):
        raise ConfigError(f"kernel support {raw!r} is not a list")
    items = []
    for ent in raw:
        try:
            z = site_from_coords(ent["z"], d)
            p = float(json_number(ent["p"], "probability"))
        except (KeyError, TypeError, ValueError) as e:
            raise ConfigError(f"bad kernel support entry {ent!r}: {e}") from None
        items.append((z, p))
    return make_kernel(items, d)
