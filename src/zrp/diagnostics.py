"""Verification diagnostics: generator identities, martingale residuals,
stationarity (exact and statistical), coupling inequalities, flux laws.

Statistical checks report z-scores against 4*SE bands or chi-square p-values;
structural checks (order preservation, conservation, replay) are exact and
raise InvariantViolation or report zero-tolerance violation counts.
"""
from __future__ import annotations

import math
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .configuration import Configuration, move, states
from .engine import OPEN, BoundaryPolicy, periodic, route, simulate, simulate_gillespie
from .errors import ConfigError, InvariantViolation, json_count
from .kernel import Kernel, is_nearest_neighbour_1d, nn_kernel_1d
from .localfn import LocalFunction
from .measures import canonical_torus_measure, fugacity_measure, sample_box_config
from .noise import HarrisNoise
from .parallel import TAG_GILLESPIE, TAG_SAMPLE, derived_rng, replica_map
from .rates import RateFn
from .sites import (Site, box_sites, origin, site_add, site_coords, site_sub,
                    validate_site, wrap)

# --------------------------------------------------------------- generator

def _candidate_sources(f: LocalFunction, kernel: Kernel, policy: BoundaryPolicy):
    """Support of f plus every site that can send a particle into it."""
    out = set(f.support)
    for a in f.support:
        for z, _p in kernel.support():
            src = site_sub(a, z)
            if policy.kind == "periodic":
                src = wrap(src, 2 * policy.n + 1)
            out.add(src)
    return sorted(out, key=site_coords)


def _perturbed_value(f: LocalFunction, occ: dict, x: Site, k: int, dst) -> float:
    """f after moving one particle x -> dst (dst None = removal), restoring occ."""
    move(occ, x, dst)
    v = f.value(occ)
    if dst is not None:
        move(occ, dst, None)
    occ[x] = k
    return v


def _generator_apply_dict(f: LocalFunction, occ: dict, rate: RateFn,
                          kernel: Kernel, policy: BoundaryPolicy,
                          sources) -> float:
    g = rate.g
    support = set(f.support)
    f0 = f.value(occ)
    total = 0.0
    for x in sources:
        k = occ.get(x, 0)
        if k == 0:
            continue
        gx = g(k)
        if gx == 0.0:
            continue
        for z, p in kernel.support():
            dst, kind = route(policy, x, z)
            if kind is None:
                continue
            if kind == "kill":
                dst = None  # in no support
            if x not in support and dst not in support:
                continue
            total += gx * p * (_perturbed_value(f, occ, x, k, dst) - f0)
    return total


# ----------------------------------------------------------- report plumbing

def _mean_se(values: np.ndarray) -> tuple[float, float]:
    m = float(np.mean(values))
    if len(values) < 2:
        return m, math.inf
    se = float(np.std(values, ddof=1) / math.sqrt(len(values)))
    return m, se


@dataclass
class Report:
    test: str
    passed: bool
    statistic: float
    threshold: float
    seed: int | None = None
    n_replicas: int | None = None
    extras: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        out = {"test": self.test, "statistic": self.statistic,
               "threshold": self.threshold, "pass": bool(self.passed),
               "seed": self.seed, "n_replicas": self.n_replicas}
        out.update(self.extras)
        return out


# ------------------------------------------------------- martingale residual

def martingale_walk(f: LocalFunction, rate: RateFn, kernel: Kernel,
                    policy: BoundaryPolicy, T: float):
    """walk(traj) -> (M on the grid T/8, 2T/8, ..., T, int_0^T sum_{x in Abar}
    g(eta_s(x)) ds, f(eta_T)) along one trajectory. The Lf table is made once
    and shared by the trajectories a walk reads, one copy per worker."""
    for x in f.support:
        validate_site(x, kernel.d)
    grid = np.linspace(T / 8, T, 8)
    sources = _candidate_sources(f, kernel, policy)
    table = {}  # (Lf, sum of g at the sources) by the sources' occupancies

    def walk(traj):
        f0 = f.value(traj.initial.occ)
        integral = 0.0
        rate_mass = 0.0  # integral of sum_{x in Abar} g(eta_s(x)) ds
        gi = 0
        m_grid = np.empty(len(grid))
        starts = [0.0] + [ev[0] for ev in traj.events]
        for t0, t1, occ in zip(starts, starts[1:] + [T], states(traj, starts)):
            key = tuple(occ.get(x, 0) for x in sources)
            if key not in table:
                table[key] = (_generator_apply_dict(f, occ, rate, kernel, policy,
                                                    sources), sum(map(rate.g, key)))
            lf, mass = table[key]
            while gi < len(grid) and t0 <= grid[gi] < t1:
                m_grid[gi] = f.value(occ) - f0 - (integral + lf * (grid[gi] - t0))
                gi += 1
            dt = t1 - t0
            integral += lf * dt
            rate_mass += dt * mass
        fT = f.value(traj.final.occ)
        m_grid[gi:] = fT - f0 - integral
        return m_grid, rate_mass, fT

    return walk


def martingale_residual(f: LocalFunction, eta0: Configuration, rate: RateFn,
                        kernel: Kernel, policy: BoundaryPolicy, T: float,
                        replicas: int, seed: int, threads: int = 1) -> Report:
    """martingale_report of the martingale_walk rows of replicas from eta0."""
    replicas = json_count(replicas, "replicas", 2)  # a sample variance needs two
    walk = martingale_walk(f, rate, kernel, policy, T)
    rows = replica_map(lambda r: walk(simulate(eta0, rate, kernel, policy, T,
                                               HarrisNoise(seed, (r,)))),
                       replicas, threads=threads)
    return martingale_report(rows, f, T, seed)


def martingale_report(rows, f: LocalFunction, T: float, seed: int) -> Report:
    """E[M_t] for M_t = f(eta_t) - f(eta_0) - int_0^t (Lf)(eta_s) ds on the
    grid t = T/8, 2T/8, ..., T, from martingale_walk rows. Passes when
    |mean| <= 4 SE at the horizon and the empirical variance of M_T respects
    the optional-quadratic-variation bound 8 B^2 E[int sum_{x in Abar}
    g(eta_s(x)) ds] (within its own 4 SE band). The grid carries the mean
    path of M with its SEs."""
    grid = np.linspace(T / 8, T, 8)
    M = np.stack([row[0] for row in rows])
    mass = np.array([row[1] for row in rows])
    mT = M[:, -1]
    mean, se = _mean_se(mT)
    z = abs(mean) / se if se > 0 else (0.0 if mean == 0 else math.inf)

    var = float(np.var(mT, ddof=1))
    qv_bound = 8.0 * f.bound ** 2 * float(np.mean(mass))
    m4 = float(np.mean((mT - np.mean(mT)) ** 4))
    se_var = math.sqrt(max(m4 - var ** 2, 0.0) / len(mT))
    qv_ok = var <= qv_bound + 4.0 * se_var

    grid_mean = M.mean(axis=0)
    grid_se = M.std(axis=0, ddof=1) / math.sqrt(len(rows))
    return Report(
        test="martingale_residual", passed=bool(z <= 4.0 and qv_ok),
        statistic=z, threshold=4.0, seed=seed, n_replicas=len(rows),
        extras={"mean": mean, "se": se, "grid": grid.tolist(),
                "grid_mean": grid_mean.tolist(), "grid_se": grid_se.tolist(),
                "var_MT": var, "qv_bound": qv_bound, "qv_ok": bool(qv_ok),
                "f": f.label, "final_mean_f": float(np.mean([row[2] for row in rows]))})


# ------------------------------------------------------ exact stationarity

def stationarity_exact(rate: RateFn, kernel: Kernel, sites_per_dim: int,
                       d: int, N: int) -> Report:
    """Global balance residual of the conditioned product measure under the
    folded-kernel torus generator. Exact enumeration; residual should be
    rounding-level (threshold 1e-12 relative to the largest state flux)."""
    meas = canonical_torus_measure(rate, sites_per_dim, d, N)
    idx = {x: i for i, x in enumerate(meas.sites)}
    g = rate.g
    offsets = kernel.support()
    state_index = {st: i for i, st in enumerate(meas.states)}
    n_states = len(meas.states)
    inflow = np.zeros(n_states)
    outflow = np.zeros(n_states)
    for si, st in enumerate(meas.states):
        pi = meas.probs[si]
        for i, x in enumerate(meas.sites):
            k = st[i]
            if k == 0:
                continue
            gx = g(k)
            if gx == 0.0:
                continue
            for z, p in offsets:
                y = wrap(site_add(x, z), sites_per_dim)
                j = idx[y]
                if j == i:
                    continue
                lst = list(st)
                lst[i] -= 1
                lst[j] += 1
                ti = state_index[tuple(lst)]
                flux = pi * gx * p
                outflow[si] += flux
                inflow[ti] += flux
    residual = float(np.max(np.abs(inflow - outflow))) if n_states else 0.0
    scale = float(np.max(outflow)) if n_states else 0.0
    threshold = 1e-12 * scale
    passed = residual <= threshold if scale > 0 else residual == 0.0
    return Report(test="stationarity_exact", passed=bool(passed),
                  statistic=residual, threshold=threshold,
                  extras={"n_states": n_states, "scale": scale,
                          "sites": sites_per_dim ** d, "N": N})


# ------------------------------------------------ product start on a torus

def torus_row(eta0: Configuration, traj) -> tuple[int, int, int]:
    """Audit one torus run for exact mass and zero kills, and return what the
    torus diagnostics reduce: (origin count at 0, origin count at T,
    -1 -> 0 crossings)."""
    if traj.kill_count() != 0:
        raise InvariantViolation("kill event on a torus")
    if traj.final.total() != eta0.total():
        raise InvariantViolation(
            f"mass not conserved on torus: {eta0.total()} -> {traj.final.total()}")
    o = origin(eta0.d)
    crossings = sum(1 for ev in traj.events if ev[1] == -1 and ev[2] == 0)
    return eta0.count(o), traj.final.count(o), crossings


def _torus_rows(measure, rate: RateFn, kernel: Kernel, torus_n: int, T: float,
                replicas: int, seed: int, threads: int, N: int | None = None):
    """torus_row of each torus replica, from a product start of measure or,
    when N is given, from a pile of N particles at the origin."""
    d, policy = kernel.d, periodic(torus_n)

    def replica(r):
        if N is None:
            eta0 = sample_box_config(measure, torus_n, d,
                                     derived_rng(seed, TAG_SAMPLE, r))
        else:
            eta0 = Configuration(d, {origin(d): N})
        traj = simulate(eta0, rate, kernel, policy, T, HarrisNoise(seed, (r,)))
        return torus_row(eta0, traj)

    return replica_map(replica, replicas, threads=threads)


# -------------------------------------------------- statistical stationarity

def _sparse_merge(w: np.ndarray, floor: float) -> np.ndarray:
    """Mask of the chi-square cells of weights w that stay on their own; the
    others pool into one cell. Every cell w >= floor is kept; while the pool
    totals under floor and two or more cells are kept, the least kept cell
    (the last of equals, in the caller's order) joins the pool."""
    keep = w >= floor
    while (~keep).any() and w[~keep].sum() < floor and keep.sum() >= 2:
        kept = np.flatnonzero(keep)[::-1]
        keep[kept[np.argmin(w[kept])]] = False
    return keep


def _merged(v: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """The kept cells of v in order, then the pool if a cell is pooled."""
    return v[keep] if keep.all() else np.append(v[keep], v[~keep].sum())


def chi2_replicas(probs: np.ndarray, replicas: int) -> int:
    """Fewest replicas R >= replicas at which every cell that _sparse_merge
    leaves of probs * R expects >= 5. That holds exactly when the largest
    cell and the rest each expect >= 5: the largest cell is then kept, and
    the merge pools cells until the pool reaches 5 or only it is left."""
    top = float(probs.max())
    return max(replicas, math.ceil(5.0 / min(top, 1.0 - top)))


def _chi2_sf(stat: float, dof: int) -> float:
    """scipy.stats' chi2.sf(stat, dof) bit for bit, from the scipy.special
    kernel it calls: nan at dof < 1, as there."""
    from scipy.special import chdtrc
    return float(chdtrc(dof, stat)) if dof >= 1 else math.nan


def _chi2_one_sample(counts: np.ndarray, probs: np.ndarray):
    """Chi-square of counts against probs, the cells under 5 expected merged
    by _sparse_merge; every cell expects >= 5 from chi2_replicas replicas on."""
    exp = probs * counts.sum()
    keep = _sparse_merge(exp, 5.0)
    obs, ex = _merged(counts, keep), _merged(exp, keep)
    stat = float(np.sum((obs - ex) ** 2 / ex))
    dof = len(obs) - 1
    return stat, dof, _chi2_sf(stat, dof)


def stationarity_statistical(rate: RateFn, kernel: Kernel, phi: float,
                             torus_n: int, T: float, replicas: int, seed: int,
                             start: str = "grand", alpha: float = 0.01,
                             threads: int = 1) -> Report:
    """Simulate the torus from the product start ("grand") or from the same
    mass piled on the origin ("point", a negative control), and chi-square
    the time-T origin occupancy against the invariant marginal."""
    if start not in ("grand", "point"):
        raise ConfigError(f"unknown start {start!r} (choose 'grand' or 'point')")
    d = kernel.d
    measure = fugacity_measure(rate, phi)
    if measure.K == 0:
        raise ConfigError(f"the fugacity marginal at phi={phi} has one cell: "
                          "a chi-square needs two or more")
    replicas = json_count(replicas, "replicas", chi2_replicas(measure.pmf, 1))
    N = round(measure.density() * (2 * torus_n + 1) ** d)
    rows = _torus_rows(measure, rate, kernel, torus_n, T, replicas, seed,
                       threads, N if start == "point" else None)
    return stationarity_report(rows, measure, phi, torus_n, T, seed, start,
                               alpha)


def stationarity_report(rows, measure, phi: float, torus_n: int, T: float,
                        seed: int, start: str = "grand",
                        alpha: float = 0.01) -> Report:
    """Chi-square of the time-T origin occupancy in torus_row rows against
    the fugacity marginal."""
    rows = np.array(rows)
    k0, kT = rows[:, 0], rows[:, 1]
    kmax = int(max(kT.max(), k0.max(), measure.K))
    countsT = np.bincount(kT, minlength=kmax + 1)
    probs = np.zeros(kmax + 1)
    probs[:measure.K + 1] = measure.pmf
    probs[-1] += max(0.0, 1.0 - probs.sum())
    stat, dof, p = _chi2_one_sample(countsT, probs)
    return Report(test="stationarity_statistical", passed=bool(p >= alpha),
                  statistic=stat, threshold=alpha, seed=seed,
                  n_replicas=len(rows),
                  extras={"p_value": p, "dof": dof, "start": start,
                          "alpha": alpha, "torus_n": torus_n, "T": T,
                          "phi": phi, "histogram": countsT.tolist()})


# ----------------------------------------------------- engine cross-check

_MIN_POOLED = 10.0


def chi2_joint_two_sample(cells_a: dict, cells_b: dict):
    """Homogeneity chi-square over categorical cells (dict key -> count).
    Rare cells (pooled count < _MIN_POOLED) are merged by _sparse_merge,
    the cells taken by descending pooled count, then by str(key)."""
    keys = sorted(set(cells_a) | set(cells_b),
                  key=lambda k: (-(cells_a.get(k, 0) + cells_b.get(k, 0)), str(k)))
    a = np.array([cells_a.get(k, 0) for k in keys], dtype=float)
    b = np.array([cells_b.get(k, 0) for k in keys], dtype=float)
    keep = _sparse_merge(a + b, _MIN_POOLED)
    o1, o2 = _merged(a, keep), _merged(b, keep)
    if len(o1) < 2:
        raise ConfigError("the two-sample chi-square has one cell: it needs two or more")
    n1, n2 = o1.sum(), o2.sum()
    pool = (o1 + o2) / (n1 + n2)
    mask = pool > 0
    e1, e2 = pool * n1, pool * n2
    stat = float(np.sum((o1[mask] - e1[mask]) ** 2 / e1[mask])
                 + np.sum((o2[mask] - e2[mask]) ** 2 / e2[mask]))
    dof = int(mask.sum()) - 1
    return stat, dof, _chi2_sf(stat, dof)


def engine_agreement_check(eta0: Configuration, rate: RateFn, kernel: Kernel,
                           policy: BoundaryPolicy, T: float, replicas: int,
                           seed: int, alpha: float = 0.001,
                           threads: int = 1) -> Report:
    """Two-sample chi-square between the thinning construction and the
    total-rate clock sampler on the joint time-T occupancy of the window
    [-1, 1]^d. The two engines share nothing but the model, so agreement
    here checks the thinning logic end to end."""
    replicas = json_count(replicas, "replicas", 1)
    window = box_sites(1, kernel.d)

    def replica(r):
        th = simulate(eta0, rate, kernel, policy, T, HarrisNoise(seed, (r,)))
        tg = simulate_gillespie(eta0, rate, kernel, policy, T,
                                derived_rng(seed, TAG_GILLESPIE, r))
        return (tuple(th.final.count(x) for x in window),
                tuple(tg.final.count(x) for x in window))

    rows = replica_map(replica, replicas, threads=threads)
    cells_h = Counter(kh for kh, _ in rows)
    cells_g = Counter(kg for _, kg in rows)
    stat, dof, p = chi2_joint_two_sample(cells_h, cells_g)
    return Report(test="engine_agreement", passed=bool(p >= alpha),
                  statistic=stat, threshold=alpha, seed=seed,
                  n_replicas=replicas,
                  extras={"p_value": p, "dof": dof, "alpha": alpha,
                          "window": [list(site_coords(x)) for x in window],
                          "n_cells_harris": len(cells_h),
                          "n_cells_gillespie": len(cells_g)})


# ------------------------------------------------------------- j discrepancy

def _j_dicts(a: dict, b: dict) -> int:
    sites = set(a) | set(b) | {0}
    lo, hi = min(sites), max(sites)
    run = 0
    best_r = -(1 << 62)
    for x in range(0, hi + 1):
        run += a.get(x, 0) - b.get(x, 0)
        if run > best_r:
            best_r = run
    run = 0
    best_l = 0  # n = 0: empty left block
    for x in range(-1, lo - 1, -1):
        run += a.get(x, 0) - b.get(x, 0)
        if run > best_l:
            best_l = run
    return max(0, best_r + best_l)


def j_inequality_check(zeta0: Configuration, psi0: Configuration, rate: RateFn,
                       kernel: Kernel, T: float, replicas: int, seed: int,
                       threads: int = 1) -> Report:
    """Couple the two marginals through one noise field and verify, at every
    event instant, that the discrepancy never grows beyond its initial value
    plus the number of psi departures from the origin. Zero tolerance."""
    if is_nearest_neighbour_1d(kernel) is None:
        raise ConfigError("the discrepancy inequality needs a d=1 nearest-neighbour kernel")
    replicas = json_count(replicas, "replicas", 1)
    j0 = _j_dicts(zeta0.occ, psi0.occ)

    def replica(r):
        noise = HarrisNoise(seed, (r,))
        tz = simulate(zeta0, rate, kernel, OPEN, T, noise, tag="zeta")
        tp = simulate(psi0, rate, kernel, OPEN, T, noise, tag="psi")
        # a shared atom fires in both runs at one float time: check each instant whole
        times = sorted({ev[0] for ev in tz.events} | {ev[0] for ev in tp.events})
        departures = [ev[0] for ev in tp.events if ev[1] == 0]
        return sum(_j_dicts(occz, occp) > j0 + bisect_right(departures, t)
                   for t, occz, occp in zip(times, states(tz, times), states(tp, times)))

    rows = replica_map(replica, replicas, threads=threads)
    total = int(sum(rows))
    return Report(test="j_inequality", passed=total == 0, statistic=float(total),
                  threshold=0.0, seed=seed, n_replicas=replicas,
                  extras={"violations": total})


# ------------------------------------------------------------- Poisson flux

def _chi2_two_sided_z(stat: float, dof: int) -> float:
    """The normal |z| whose two-sided tail area equals that of stat under
    chi2(dof): scipy.stats' norm.isf(min(chi2.cdf, chi2.sf)), bit for bit."""
    from scipy.special import chdtr, ndtri
    q = min(float(chdtr(dof, stat)), _chi2_sf(stat, dof)) if dof >= 1 else math.nan
    # 0.0 - rather than a bare minus: norm.isf(0.5) is +0.0, not -0.0
    return float(0.0 - ndtri(q))


def poisson_flux_check(rate: RateFn, phi: float, torus_n: int, T: float,
                       replicas: int, seed: int, threads: int = 1) -> Report:
    """Under the stationary product start and totally asymmetric d=1 jumps,
    the count of -1 -> 0 crossings in [0, T] should be Poisson with mean
    phi*T: the mean inside a 4*SE band, and the index of dispersion D
    passing the two-sided dispersion test, (n-1) D against chi2(n-1), at the
    tail area of a 4*SE normal band."""
    if torus_n < 1:
        raise ConfigError("need torus radius >= 1")
    replicas = json_count(replicas, "replicas", 2)  # a sample variance needs two
    rows = _torus_rows(fugacity_measure(rate, phi), rate, nn_kernel_1d(1.0),
                       torus_n, T, replicas, seed, threads)
    return flux_report(rows, phi, torus_n, T, seed)


def flux_report(rows, phi: float, torus_n: int, T: float, seed: int) -> Report:
    """Poisson mean and dispersion tests on the crossings of torus_row rows."""
    replicas = len(rows)
    counts = np.array([row[2] for row in rows], dtype=float)
    mean, se = _mean_se(counts)
    target = phi * T
    z_mean = abs(mean - target) / se if se > 0 else math.inf
    var = float(np.var(counts, ddof=1))
    dispersion = var / mean if mean > 0 else math.inf
    # sqrt(2/(n-1)) is the right SE for D, but D is skewed to the right, so a
    # normal band on it fails too often in the upper tail
    z_disp = _chi2_two_sided_z((replicas - 1) * dispersion, replicas - 1)
    z = max(z_mean, z_disp)
    return Report(test="poisson_flux", passed=bool(z <= 4.0), statistic=z,
                  threshold=4.0, seed=seed, n_replicas=replicas,
                  extras={"mean": mean, "target_mean": target,
                          "dispersion": dispersion, "z_mean": z_mean,
                          "z_dispersion": z_disp, "start": "grand",
                          "torus_n": torus_n, "T": T, "phi": phi})


# -------------------------------------------------------- mass conservation

def mass_conservation_check(rate: RateFn, kernel: Kernel, phi: float,
                            torus_n: int, T: float, replicas: int, seed: int,
                            threads: int = 1) -> Report:
    """Torus runs conserve total mass exactly (audited per replica) and keep
    E[eta_T(origin)] at the invariant density, within 4 SE. The product start
    is stationary on the torus, so eta_T(origin) has the fugacity marginal
    and the SE is exact: sqrt(Var/replicas) with Var = sum (k - rho)^2 pmf(k)."""
    replicas = json_count(replicas, "replicas", 1)
    measure = fugacity_measure(rate, phi)
    rows = _torus_rows(measure, rate, kernel, torus_n, T, replicas, seed, threads)
    return mass_report(rows, measure, phi, seed)


def mass_report(rows, measure, phi: float, seed: int) -> Report:
    """Mean time-T origin occupancy of torus_row rows against the density,
    with the exact SE of the fugacity marginal."""
    replicas = len(rows)
    rho = measure.density()
    vals = np.array([row[1] for row in rows], dtype=float)
    mean = float(np.mean(vals))
    var = float(np.dot((np.arange(measure.K + 1) - rho) ** 2, measure.pmf))
    se = math.sqrt(var / replicas)
    z = abs(mean - rho) / se if se > 0 else (0.0 if mean == rho else math.inf)
    return Report(test="mass_conservation", passed=bool(z <= 4.0), statistic=z,
                  threshold=4.0, seed=seed, n_replicas=replicas,
                  extras={"torus_mean": mean, "density": rho, "se": se, "z": z,
                          "phi": phi})
