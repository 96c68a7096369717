"""Jump rate functions g: N -> [0, inf).

Contract for every family: g(0) = 0, g is non-decreasing, and g grows without
bound over its representable domain. Values are memoized; instances are
immutable after construction and safe for concurrent reads (the memo only
ever appends, and entries are pure functions of k).

h(n) = max increment of g over 1..n drives the clock-speed bounds used by the
moment estimates: a site holding i particles empties no faster than a rate
h(i) clock ticks relative to a rate-1 walk.
"""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
import numpy as np

from .errors import ConfigError, RateRangeError, brief, json_number, json_positive
from .kernel import Kernel, mean_drift

MAX_RATE = 1e300  # beyond this, refuse rather than hand out inf


@dataclass
class RateFn:
    family: str
    a: float | None = None            # power: g(k) = k**a
    c: float | None = None            # exp: g(k) = c * e**(theta k), k >= 1
    theta: float | None = None
    table: tuple[float, ...] | None = None
    _memo: list[float] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.family == "power":
            self.a = json_positive(self.a, "a")
        elif self.family == "exp":
            self.c = json_positive(self.c, "c")
            self.theta = json_positive(self.theta, "theta")
        elif self.family == "table":
            if not self.table or len(self.table) < 2:
                raise ConfigError("table rate needs at least [g(0), g(1)]")
            t = tuple(float(v) for v in self.table)
            if t[0] != 0.0:
                raise ConfigError("rate table must start with g(0) = 0")
            for j in range(1, len(t)):
                if t[j] < t[j - 1]:
                    raise ConfigError(f"rate table decreases at k={j}: {t[j-1]} -> {t[j]}")
                if not math.isfinite(t[j]) or t[j] > MAX_RATE:
                    raise ConfigError(f"rate table entry at k={j} exceeds representable range")
            self.table = t
        else:
            raise ConfigError(f"unknown rate family {self.family!r}")
        self._memo = [0.0]

    def max_k(self) -> int | None:
        """Largest k for which g(k) is defined (None = unbounded domain)."""
        return len(self.table) - 1 if self.family == "table" else None

    def _compute(self, k: int) -> float:
        try:
            if self.family == "power":
                v = float(k) ** self.a
            elif self.family == "exp":
                v = self.c * math.exp(self.theta * k)
            elif k < len(self.table):
                v = self.table[k]
            else:
                raise RateRangeError(
                    f"rate table has {len(self.table)} entries, g({k}) undefined")
        except OverflowError:  # past float range: refused just below
            v = math.inf
        if not math.isfinite(v) or v > MAX_RATE:
            raise RateRangeError(f"g({k}) = {v!r} outside representable range")
        return v

    def g(self, k: int) -> float:
        if k < 0:
            raise ConfigError("occupancies are non-negative")
        memo = self._memo
        if k < len(memo):
            return memo[k]
        for j in range(len(memo), k + 1):
            v = self._compute(j)
            if v < memo[-1]:
                raise ConfigError(f"rate function decreases at k={j}: {memo[-1]} -> {v}")
            memo.append(v)
        return memo[k]

    def h(self, n: int) -> float:
        """Running max of increments: h(n) = max_{1<=j<=n} g(j) - g(j-1); h(0) = 0."""
        if n <= 0:
            return 0.0
        self.g(n)
        m = self._memo
        return max(m[j] - m[j - 1] for j in range(1, n + 1))


def power_rate(a: float) -> RateFn:
    return RateFn(family="power", a=a)


def exp_rate(c: float, theta: float) -> RateFn:
    return RateFn(family="exp", c=c, theta=theta)


def table_rate(values) -> RateFn:
    return RateFn(family="table", table=tuple(float(v) for v in values))


def rate_from_json(obj: dict) -> RateFn:
    try:
        fam = obj["family"]
    except (KeyError, TypeError):
        raise ConfigError("rate spec needs a 'family' field") from None
    try:
        if fam == "power":
            return power_rate(obj["a"])
        if fam == "exp":
            return exp_rate(obj["c"], obj["theta"])
        if fam == "table":
            values = obj["values"]
            if not isinstance(values, list):
                raise ConfigError(f"table values {brief(values)} are not a list")
            return table_rate([json_number(v, f"values[{k}]")
                               for k, v in enumerate(values)])
    except (KeyError, TypeError, ValueError) as e:
        raise ConfigError(f"bad rate spec {brief(obj)}: {e}") from None
    raise ConfigError(f"unknown rate family {brief(fam)}")


@dataclass(frozen=True)
class CorollaryReport:
    a_estimate: float | None  # None: fewer than two points with h > 0 to fit
    condition_a: bool
    condition_b: bool
    drift: tuple[float, ...]
    n_max_used: int
    heuristic: bool = True  # finite-sample evidence, not a proof

    def to_json(self) -> dict:
        return asdict(self)  # json.dumps writes the drift tuple as a list


SLOPE_MARGIN = 0.1
N_MAX = 10_000     # largest n the slope fit reads
FIT_WINDOW = 50    # log-spaced fit points


def check_corollary_conditions(rate: RateFn, kernel: Kernel) -> CorollaryReport:
    """Finite-sample test of the two sufficient growth conditions.

    condition_a: zero mean drift and h(n) growing no faster than n^a for some
    a < 2/d, judged by the least-squares slope of log h vs log n over
    FIT_WINDOW log-spaced points in [sqrt(N_MAX), N_MAX].
    condition_b: h(n) * n^(-1/d) decreasing over those points and halving
    across the window.

    Both are advisory (heuristic=True): a slope fit on a finite range proves
    nothing, it only flags obviously super-critical growth.
    """
    d = kernel.d

    # clip to the representable range of g (tables, steep formulas)
    hi = N_MAX
    mk = rate.max_k()
    if mk is not None:
        hi = min(hi, mk)
    while hi > 1:
        try:
            rate.g(hi)
            break
        except RateRangeError:
            hi = hi // 2
    lo = max(2, int(math.isqrt(hi)))
    pts = np.unique(np.geomspace(lo, hi, num=FIT_WINDOW).astype(int))
    pts = pts[pts >= 1]

    hvals = np.array([rate.h(int(n)) for n in pts])
    mask = hvals > 0
    if mask.sum() >= 2:
        slope = float(np.polyfit(np.log(pts[mask]), np.log(hvals[mask]), 1)[0])
    else:
        slope = None

    drift = mean_drift(kernel)
    zero_drift = all(abs(c) <= 1e-12 for c in drift)
    cond_a = bool(zero_drift and slope is not None and slope < 2.0 / d - SLOPE_MARGIN)

    v = hvals * pts.astype(float) ** (-1.0 / d)
    decreasing = bool(np.all(v[1:] <= v[:-1] * (1 + 1e-9)))
    halves = bool(v[-1] < v[0] / 2)
    cond_b = decreasing and halves

    return CorollaryReport(a_estimate=slope, condition_a=cond_a, condition_b=cond_b,
                           drift=drift, n_max_used=int(hi))
