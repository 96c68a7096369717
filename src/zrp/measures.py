"""Invariant product measures and their finite-torus conditionings.

For a rate g the single-site weights are w(0) = 1, w(k) = prod_{j<=k} 1/g(j),
and the fugacity-phi marginal is P(k) = w(k) phi^k / z(phi). Everything is
computed in log space: for superlinear g the weights underflow float64 by
k ~ 30, while log w stays tame.

Truncation is certified, never guessed: the support is cut at the first K
with phi/g(K+1) <= 1/2 whose geometric tail bound is below the requested
relative tolerance. Downstream identities (density, mean rate) inherit that
tolerance.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .configuration import Configuration, _trusted
from .errors import CertificationError, ConfigError, RateRangeError
from .rates import RateFn
from .sites import Site, box_sites, torus_sites

MAX_TRUNCATION = 100_000


@dataclass
class FugacityMeasure:
    rate: RateFn
    phi: float
    K: int
    log_z: float
    tail_bound: float
    pmf: np.ndarray     # P(k), k = 0..K (sums to 1 - tail)
    cdf: np.ndarray

    def density(self) -> float:
        """Mean occupancy per site."""
        return float(np.dot(np.arange(self.K + 1), self.pmf))

    def mean_rate(self) -> float:
        """E[g(occupancy)]; the invariance identity says this equals phi, up
        to the certified tail."""
        gv = np.array([self.rate.g(k) for k in range(self.K + 1)])
        return float(np.dot(gv, self.pmf))


def _logsumexp(a, axis=None):
    """scipy.special.logsumexp(a, axis) bit for bit for finite real a, with
    no scipy import: the m entries at the maximum stay out of the shifted sum
    s, and the result is log1p(s / m) + log(m) + max."""
    a = np.asarray(a, dtype=float)
    top = a.max(axis=axis, keepdims=True)
    at_top = a == top
    m = at_top.sum(axis=axis, keepdims=True, dtype=float)
    s = np.exp(np.where(at_top, -np.inf, a) - top).sum(axis=axis, keepdims=True)
    s = np.where(s == 0, s, s / m)
    return (np.log1p(s) + np.log(m) + top).squeeze(axis)


def fugacity_measure(rate: RateFn, phi: float, tol: float = 1e-12) -> FugacityMeasure:
    """The fugacity-phi marginal on 0..K, K the certified support cut, with
    log_z its log normalization and tail_bound the relative mass bound for
    everything beyond K."""
    if not (phi > 0) or not math.isfinite(phi):
        raise ConfigError(f"fugacity must be positive and finite, got {phi!r}")
    if not (0 < tol < 1e-2):
        raise ConfigError("tolerance must be in (0, 1e-2)")
    log_phi = math.log(phi)
    log_terms = [0.0]  # k = 0
    log_w = 0.0
    k = 0
    while True:
        # certification attempt at current K = k: needs g(K+1)
        try:
            g_next = rate.g(k + 1)
        except RateRangeError as e:
            raise CertificationError(
                f"cannot certify tail at phi={phi}: rate undefined past k={k} ({e})") from None
        if g_next <= 0:
            raise CertificationError(
                f"g({k + 1}) = 0: weights w(k) are undefined, no product measure exists")
        ratio = phi / g_next
        if ratio <= 0.5:
            log_z = float(_logsumexp(log_terms))
            log_tail = log_terms[-1] + math.log(ratio / (1.0 - ratio)) if ratio > 0 else -math.inf
            tail_rel = math.exp(min(log_tail - log_z, 0.0))
            if tail_rel <= tol:
                pmf = np.exp(np.array(log_terms) - log_z)
                return FugacityMeasure(rate=rate, phi=phi, K=k, log_z=log_z,
                                       tail_bound=tail_rel, pmf=pmf,
                                       cdf=np.cumsum(pmf))
        if k >= MAX_TRUNCATION:
            raise CertificationError(
                f"cannot certify tail at phi={phi} within {MAX_TRUNCATION} terms "
                f"(last ratio phi/g(K+1) = {ratio:.3g})")
        k += 1
        log_w -= math.log(g_next)
        log_terms.append(log_w + k * log_phi)


def sample_box_config(measure: FugacityMeasure, n: int, d: int,
                      rng: np.random.Generator) -> Configuration:
    """i.i.d. marginals on [-n, n]^d, zero outside: the i-th site of
    box_sites(n, d) takes the inverse CDF of the i-th of len(sites) uniforms
    drawn by rng.random."""
    sites = box_sites(n, d)
    u = rng.random(len(sites))
    ks = np.minimum(np.searchsorted(measure.cdf, u, side="right"), measure.K)
    return _trusted(d, {x: int(k) for x, k in zip(sites, ks) if k > 0})


# ------------------------------------------------------- canonical (fixed N)

def compositions(total: int, parts: int):
    """All tuples of `parts` non-negative ints summing to `total`."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in compositions(total - first, parts - 1):
            yield (first,) + rest


@dataclass
class CanonicalTorusMeasure:
    rate: RateFn
    sites_per_dim: int
    d: int
    N: int
    sites: list[Site]
    states: list[tuple[int, ...]]
    probs: np.ndarray


def canonical_torus_measure(rate: RateFn, sites_per_dim: int, d: int,
                            N: int) -> CanonicalTorusMeasure:
    """Product weights prod_x w(eta(x)) conditioned on total mass N, on an
    L^d torus. Exact enumeration; guarded to L^d <= 5 sites and N <= 6."""
    L = sites_per_dim
    if L < 1:
        raise ConfigError("need at least one site per dimension")
    M = L ** d
    if M > 5:
        raise ConfigError(f"exact canonical enumeration capped at 5 sites, got {M}")
    if not (0 <= N <= 6):
        raise ConfigError(f"exact canonical enumeration capped at N <= 6, got {N}")
    log_w = np.zeros(N + 1)
    for k in range(1, N + 1):
        g = rate.g(k)
        if g <= 0:
            raise ConfigError(f"g({k}) = 0: canonical weights undefined")
        log_w[k] = log_w[k - 1] - math.log(g)
    sites = torus_sites(L, d)
    states = list(compositions(N, M))
    logp = np.array([sum(log_w[k] for k in st) for st in states])
    logp -= logp.max()
    probs = np.exp(logp)
    probs /= probs.sum()
    return CanonicalTorusMeasure(rate=rate, sites_per_dim=L, d=d, N=N,
                                 sites=sites, states=states, probs=probs)
