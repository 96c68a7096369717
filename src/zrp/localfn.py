"""Bounded local observables f(eta).

A LocalFunction declares its support A (the only sites it reads) and a sup
bound B. Evaluation takes any occupancy mapping (Configuration.occ or the
engine's working dict) and must use occ.get(x, 0) semantics.

Built-ins evaluate through closures over their arguments. No instance is
pickled: replica workers are forked and inherit it.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping

from .errors import ConfigError, json_positive
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
        json_positive(self.bound, "bound")

    def value(self, occ: Mapping) -> float:
        return self.fn(occ)


def occupancy_indicator(site: Site, k: int) -> LocalFunction:
    """f(eta) = 1{eta(site) = k}."""
    if k < 0:
        raise ConfigError("occupancy level must be >= 0")

    def fn(occ):
        return 1.0 if occ.get(site, 0) == k else 0.0
    return LocalFunction(support=(site,), bound=1.0, fn=fn, label=f"1[eta({site})={k}]")


def capped_occupancy(site: Site, cap: int) -> LocalFunction:
    """f(eta) = min(eta(site), cap)."""
    if cap < 1:
        raise ConfigError("cap must be >= 1")

    def fn(occ):
        n = occ.get(site, 0)
        return float(n if n < cap else cap)
    return LocalFunction(support=(site,), bound=float(cap), fn=fn,
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
    for site, (_fn, b) in factors.items():
        bound *= json_positive(b, f"factor bound at {site!r}")

    def fn(occ):
        out = 1.0
        for site, f in items:
            out *= f(occ.get(site, 0))
        return out
    return LocalFunction(support=tuple(site for site, _ in items), bound=bound,
                         fn=fn, label=label)
