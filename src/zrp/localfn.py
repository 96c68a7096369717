"""Bounded local observables f(eta).

A LocalFunction declares its support A (the only sites it reads) and a sup
bound B. Evaluation takes any occupancy mapping (Configuration.occ or the
engine's working dict) and must use occ.get(x, 0) semantics.

Built-ins are assembled from module-level evaluators via functools.partial.
No instance needs to be picklable: replica workers are forked and inherit it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable, Mapping

from .errors import ConfigError
from .sites import Site


@dataclass(frozen=True)
class LocalFunction:
    support: tuple[Site, ...]
    bound: float
    fn: Callable[[Mapping], float]
    label: str = ""

    def __post_init__(self):
        if not self.support:
            raise ConfigError("local function needs a non-empty support")
        if not (self.bound > 0 and math.isfinite(self.bound)):
            raise ConfigError("local function needs a finite positive sup bound")

    def value(self, occ: Mapping) -> float:
        return self.fn(occ)


def _eval_indicator(site, k, occ) -> float:
    return 1.0 if occ.get(site, 0) == k else 0.0


def _eval_capped(site, cap, occ) -> float:
    n = occ.get(site, 0)
    return float(n if n < cap else cap)


def _eval_product(items, occ) -> float:
    out = 1.0
    for site, fn in items:
        out *= fn(occ.get(site, 0))
    return out


def occupancy_indicator(site: Site, k: int) -> LocalFunction:
    """f(eta) = 1{eta(site) = k}."""
    if k < 0:
        raise ConfigError("occupancy level must be >= 0")
    return LocalFunction(support=(site,), bound=1.0,
                         fn=partial(_eval_indicator, site, k),
                         label=f"1[eta({site})={k}]")


def capped_occupancy(site: Site, cap: int) -> LocalFunction:
    """f(eta) = min(eta(site), cap)."""
    if cap < 1:
        raise ConfigError("cap must be >= 1")
    return LocalFunction(support=(site,), bound=float(cap),
                         fn=partial(_eval_capped, site, cap),
                         label=f"min(eta({site}),{cap})")


def product_local(factors: dict[Site, tuple[Callable[[int], float], float]],
                  label: str = "product") -> LocalFunction:
    """f(eta) = prod_x f_x(eta(x)) with declared per-factor sup bounds.
    A factor may be any callable, a lambda or a closure included."""
    if not factors:
        raise ConfigError("product needs at least one factor")
    items = tuple(sorted(((site, fn) for site, (fn, _b) in factors.items()),
                         key=lambda it: str(it[0])))
    bound = 1.0
    for _fn, b in factors.values():
        if not (b > 0 and math.isfinite(b)):
            raise ConfigError("each factor needs a finite positive bound")
        bound *= b
    return LocalFunction(support=tuple(site for site, _ in items), bound=bound,
                         fn=partial(_eval_product, items), label=label)
