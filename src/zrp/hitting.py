"""First-passage probabilities of the driving random walk and the occupancy
bounds built from them.

The central object is F_z(s) = P(a rate-1 walk with jump law p started at z
reaches the origin by time s). Particles of the initial configuration,
enumerated outward from a target site, contribute F terms evaluated at
inflated times h(i) * t; their sum bounds the occupancy tail at the target.
The nearest terms are bracketed exactly and the far ones are bounded above
by a certified Gamma tail, so [lower, upper] brackets the sum.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Integral

import numpy as np

from .configuration import Configuration, enumerate_particles, snapshots
from .diagnostics import Report, _mean_se
from .engine import OPEN, simulate
from .errors import ConfigError, RateRangeError, json_count, json_number
from .kernel import Kernel
from .measures import _logsumexp
from .noise import HarrisNoise
from .parallel import TAG_CALIBRATE, TAG_WALK, derived_rng, replica_map
from .rates import RateFn
from .sites import (Site, box_sites, max_norm, origin, site_coords, site_sub,
                    validate_site)

_MAX_EXACT_TIME = 600.0
_MAX_EXACT_STATES = 25_000


def _exact_radius(d: int) -> int:
    """Default max-norm radius of the exact bracket (exact_F_small, mbar)."""
    return 30 if d == 1 else 8


# ------------------------------------------------------------ exact bracket

def _poisson_weights(s: float, tol: float) -> np.ndarray:
    """Poisson(s) pmf at 0..n, n one past the isf at tol/2: scipy.stats'
    poisson.isf and poisson.pmf written out in scipy.special, bit for bit."""
    from scipy.special import gammaln, pdtr, pdtrik, xlogy
    n = 0
    if s > 0:
        q = 1.0 - tol / 2.0
        top = math.ceil(pdtrik(q, s))
        n = (top - 1 if top >= 1 and pdtr(top - 1, s) >= q else top) + 1
    k = np.arange(n + 1)
    return np.exp(xlogy(k, s) - gammaln(k + 1) - s)


def exact_F_small(z: Site, s: float, kernel: Kernel,
                  tol: float = 1e-12) -> tuple[float, float]:
    """Deterministic bracket [lower, upper] for F_z(s) by uniformization.

    The walk jumps at rate 1, so the jump count on [0, s] is Poisson(s).
    Iterating the jump chain on a box around the origin gives, after n steps,
    the probability already absorbed at 0 (-> lower) and the probability
    still alive inside the box (-> upper = 1 - sum of survivors); mass that
    escapes the box or sits in the Poisson tail is counted as a possible hit.

    A jump step scatters the mass along each kernel offset in turn, the
    largest offset first. Each state's inflow then adds up by increasing
    source index, the order in which the sparse product P.T @ v sums it, so
    the bracket equals that product's bit for bit.
    """
    d = kernel.d
    z = validate_site(z, d)
    if s < 0 or not math.isfinite(s):
        raise ConfigError("need a finite nonnegative time")
    if not 0 < tol < 1:
        raise ConfigError(f"need a tolerance 0 < tol < 1, got {tol!r}")
    if z == origin(d):
        return 1.0, 1.0
    if s > _MAX_EXACT_TIME:
        raise ConfigError(f"time {s:g} too large for the exact bracket")
    radius = max(_exact_radius(d), max_norm(z) + 2)
    side = 2 * radius + 1
    n = side ** d - 1
    if n > _MAX_EXACT_STATES:
        raise ConfigError(f"{n} states exceeds the exact-bracket budget")
    # live states: the box in lexicographic order, box index (x + radius) @
    # place, less the origin at mid-box; index i > centre is live index i - 1
    centre = n // 2
    place = side ** np.arange(d - 1, -1, -1)
    live = np.delete([site_coords(x) for x in box_sites(radius, d)], centre, axis=0)
    hvec = np.zeros(n)
    steps = []
    for off, p in zip(kernel.offsets[::-1], kernel.probs[::-1]):
        y = live + off
        src = np.flatnonzero((np.abs(y) <= radius).all(axis=1))  # else escapes
        dst = (y[src] + radius) @ place
        keep = dst != centre
        hvec[src[~keep]] = p
        steps.append((src[keep], dst[keep] - (dst[keep] > centre), p))

    w = _poisson_weights(s, tol)
    n_max = len(w) - 1
    v = (live == site_coords(z)).all(axis=1).astype(float)
    hit_cum = 0.0
    lower = 0.0
    survive_mass = 0.0
    for k in range(n_max + 1):
        lower += w[k] * hit_cum
        survive_mass += w[k] * float(v.sum())
        if k < n_max:
            hit_cum += float(v @ hvec)
            nxt = np.zeros(n)
            for src, dst, p in steps:
                nxt[dst] += p * v[src]
            v = nxt
    upper = 1.0 - survive_mass
    return float(lower), float(min(1.0, max(upper, lower)))


# -------------------------------------------------------------- MC estimate

def _wilson(k: int, n: int) -> tuple[float, float]:
    zq = 4.0  # the 4-sigma bands of estimate_F
    ph = k / n
    z2 = zq * zq
    denom = 1.0 + z2 / n
    center = ph + z2 / (2 * n)
    rad = zq * math.sqrt(ph * (1.0 - ph) / n + z2 / (4.0 * n * n))
    return max(0.0, (center - rad) / denom), min(1.0, (center + rad) / denom)


def _walk_batch(b, z, t_max, kernel, seed, batch):
    rng = derived_rng(seed, TAG_WALK, b)
    offs = np.array(kernel.offsets, dtype=np.int64)
    cum = np.asarray(kernel.cum)
    pos = np.tile(np.asarray(site_coords(z), dtype=np.int64), (batch, 1))
    t = np.zeros(batch)
    tau = np.full(batch, np.inf)
    alive = np.ones(batch, dtype=bool)
    if max_norm(z) == 0:
        return np.zeros(batch)
    while alive.any():
        idx = np.nonzero(alive)[0]
        t[idx] += rng.exponential(size=len(idx))
        over = t[idx] > t_max
        alive[idx[over]] = False
        idx = idx[~over]
        if len(idx) == 0:
            continue
        u = rng.random(len(idx))
        ji = np.minimum(np.searchsorted(cum, u, side="right"), len(cum) - 1)
        pos[idx] += offs[ji]
        hit = (pos[idx] == 0).all(axis=1)
        tau[idx[hit]] = t[idx[hit]]
        alive[idx[hit]] = False
    return tau


@dataclass
class HittingCurve:
    z: Site
    times: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    n_walks: int


def estimate_F(z: Site, times, kernel: Kernel, n_walks: int,
               seed: int) -> HittingCurve:
    """Monte Carlo curve of F_z over a time grid with 4-sigma Wilson bands."""
    z = validate_site(z, kernel.d)
    times = np.asarray(sorted(float(t) for t in times))
    if len(times) == 0 or times[0] < 0 or not np.isfinite(times).all():
        raise ConfigError("need a finite nonnegative time grid")
    n_walks = json_count(n_walks, "n_walks", 1)
    t_max = float(times[-1])
    batch = 2000
    n_batches = math.ceil(n_walks / batch)
    sizes = [batch] * (n_batches - 1) + [n_walks - batch * (n_batches - 1)]
    tau = np.concatenate([_walk_batch(b, z, t_max, kernel, seed, size)
                          for b, size in enumerate(sizes)])
    lower = np.empty(len(times))
    upper = np.empty(len(times))
    for j, t in enumerate(times):
        k = int(np.sum(tau <= t))
        lower[j], upper[j] = _wilson(k, len(tau))
    return HittingCurve(z=z, times=times, lower=lower, upper=upper,
                        n_walks=len(tau))


# ----------------------------------------------------------- occupancy bound

@dataclass
class MbarReport:
    """Bracketed value of the hitting-sum bound at one (z, t)."""
    z: Site
    t: float
    n_particles: int
    K: int
    partial_lower: float
    partial_upper: float
    tail: float
    tail_method: str
    flags: tuple[str, ...] = ()

    @property
    def lower(self) -> float:
        return self.partial_lower

    @property
    def upper(self) -> float:
        return self.partial_upper + self.tail

    def to_json(self) -> dict:
        return {"z": list(site_coords(self.z)), "t": self.t,
                "n_particles": self.n_particles, "K": self.K,
                "partial_lower": self.partial_lower,
                "partial_upper": self.partial_upper, "tail": self.tail,
                "lower": self.lower, "upper": self.upper,
                "tail_method": self.tail_method, "flags": list(self.flags)}


def mbar(eta: Configuration, z: Site, t: float, rate: RateFn, kernel: Kernel,
         K: int | None = None) -> MbarReport:
    """Sum of F_{x_i - z}(h(i) t) over particles enumerated outward from z.

    The first K terms are bracketed exactly; the rest are dominated by the
    certified Gamma tail "exp-sum": a particle m range-steps away needs at
    least m jumps of its rate-1 clock, so F <= P(Gamma(m) <= s). The report
    names the tail "none" when K covers every particle. By default K counts
    the particles within max-norm distance 30 of z (8 when d > 1).
    """
    from scipy.special import gammainc
    if eta.d != kernel.d:
        raise ConfigError("configuration and kernel dimensions differ")
    if not 0 <= json_number(t, "t") < math.inf:
        raise ConfigError(f"need 0 <= t < inf, got t = {t!r}")
    parts = enumerate_particles(eta, z)
    n = len(parts)
    dists = [max_norm(site_sub(x, z)) for x in parts]
    if K is None:
        K = sum(1 for dd in dists if dd <= _exact_radius(kernel.d))
    elif json_number(K, "K", Integral) < 0:
        raise ConfigError(f"K must be >= 0, got {K}")
    K = min(int(K), n)

    flags: list[str] = []
    lo_sum = hi_sum = 0.0
    for i in range(K):
        if dists[i] == 0:
            lo_sum += 1.0         # already at the target, no clock involved
            hi_sum += 1.0
            continue
        # an unrepresentable or astronomically large clock bound degrades to
        # the trivial bracket 0 <= F <= 1, which keeps both sides valid
        try:
            s = rate.h(i + 1) * t
            lo, hi = exact_F_small(site_sub(parts[i], z), s, kernel)
        except RateRangeError:
            lo, hi = 0.0, 1.0
            flags.append("rate-overflow-term")
        except ConfigError:
            lo, hi = 0.0, 1.0
            flags.append("time-beyond-exact-bracket")
        lo_sum += lo
        hi_sum += hi

    tail = 0.0
    R = kernel.range
    for i in range(K, n):
        try:
            s = rate.h(i + 1) * t
        except RateRangeError:
            tail += 1.0
            flags.append("rate-overflow-term")
            continue
        # m range-steps need m jumps; a particle at z has F = 1
        m = math.ceil(dists[i] / R)
        tail += float(gammainc(m, s)) if m else 1.0

    return MbarReport(z=z, t=float(t), n_particles=n, K=K, partial_lower=lo_sum,
                      partial_upper=hi_sum, tail=tail, flags=tuple(flags),
                      tail_method="none" if K == n else "exp-sum")


# ------------------------------------------------------ exponential moments

def exp_moment_check(eta0: Configuration, rate: RateFn, kernel: Kernel,
                     z: Site, theta: float, T: float, replicas: int,
                     seed: int, threads: int = 1) -> Report:
    """Verify log E[exp(theta eta_s(z))] <= (e^theta - 1) * mbar(s) on the
    grid s = T/4, T/2, 3T/4, T.

    The empirical log-MGF gets a bootstrap (200 resamples, 99th percentile)
    upper limit per grid point; the bound uses the certified upper bracket of
    mbar. The first moment is checked against mbar directly as well.
    """
    z = validate_site(z, eta0.d)
    if not 0 < theta < math.inf:
        raise ConfigError(f"need 0 < theta < inf, got {theta!r}")
    replicas = json_count(replicas, "replicas", 1)
    grid = np.linspace(T / 4, T, 4)

    def replica(r):
        traj = simulate(eta0, rate, kernel, OPEN, T, HarrisNoise(seed, (r,)))
        return np.array([snap.count(z) for snap in snapshots(traj, grid)],
                        dtype=np.int64)

    rows = replica_map(replica, replicas, threads=threads)
    vals = np.stack(rows).astype(float)  # (R, G)

    mlo = np.empty(len(grid))
    mhi = np.empty(len(grid))
    for j, s in enumerate(grid):
        rep = mbar(eta0, z, s, rate, kernel, K=eta0.total())
        mlo[j], mhi[j] = rep.lower, rep.upper
    bounds = (math.exp(theta) - 1.0) * mhi

    R = vals.shape[0]
    rng = derived_rng(seed, TAG_CALIBRATE, 7)
    logmgf = np.empty(len(grid))
    logmgf_hi = np.empty(len(grid))
    for j in range(len(grid)):
        x = theta * vals[:, j]
        logmgf[j] = float(_logsumexp(x)) - math.log(R)
        # one (200, R) draw reads the stream as 200 draws of R would
        picks = rng.integers(0, R, size=(200, R))
        bs = _logsumexp(x[picks], axis=1) - math.log(R)
        logmgf_hi[j] = float(np.quantile(bs, 0.99))

    mgf_margin = float(np.max(logmgf_hi - bounds))
    mean_ok = True
    for j in range(len(grid)):
        m, se = _mean_se(vals[:, j])
        if m > mhi[j] + 4.0 * se:
            mean_ok = False
    passed = mgf_margin <= 0.0 and mean_ok
    return Report(test="exp_moment_bound", passed=bool(passed),
                  statistic=mgf_margin, threshold=0.0, seed=seed,
                  n_replicas=replicas,
                  extras={"grid": grid.tolist(), "theta": theta,
                          "logmgf": logmgf.tolist(),
                          "logmgf_boot_hi": logmgf_hi.tolist(),
                          "bound": bounds.tolist(),
                          "mbar_lower": mlo.tolist(),
                          "mbar_upper": mhi.tolist(),
                          "mean_within_band": bool(mean_ok),
                          "mean_occ": vals.mean(axis=0).tolist()})
