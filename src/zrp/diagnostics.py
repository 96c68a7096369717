"""Verification diagnostics: generator identities, martingale residuals,
stationarity (exact and statistical), coupling inequalities, flux laws.

Statistical checks report z-scores against 4*SE bands or chi-square p-values;
structural checks (order preservation, conservation, replay) are exact and
raise InvariantViolation or report zero-tolerance violation counts.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .configuration import Configuration, _apply_event, intervals, move
from .engine import OPEN, BoundaryPolicy, periodic, route, simulate
from .errors import ConfigError, InvariantViolation
from .kernel import Kernel, is_nearest_neighbour_1d, nn_kernel_1d
from .localfn import LocalFunction
from .measures import canonical_torus_measure, fugacity_measure, sample_box_config
from .noise import HarrisNoise
from .parallel import TAG_GILLESPIE, TAG_SAMPLE, derived_rng, replica_map
from .rates import RateFn
from .sites import Site, box_sites, fold_into_box, site_add, site_sub

# --------------------------------------------------------------- generator

def _candidate_sources(f: LocalFunction, kernel: Kernel, policy: BoundaryPolicy):
    """Support of f plus every site that can send a particle into it."""
    out = set(f.support)
    for a in f.support:
        for z, _p in kernel.support():
            src = site_sub(a, z)
            if policy.kind == "periodic":
                src = fold_into_box(src, policy.n)
            out.add(src)
    return sorted(out, key=lambda s: (s,) if isinstance(s, int) else s)


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
                          sources=None) -> float:
    g = rate.g
    if sources is None:
        sources = _candidate_sources(f, kernel, policy)
    support = f.support if isinstance(f.support, set) else set(f.support)
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
                if x not in support:
                    continue
                v = _perturbed_value(f, occ, x, k, None)
            else:
                if x not in support and dst not in support:
                    continue
                v = _perturbed_value(f, occ, x, k, dst)
            total += gx * p * (v - f0)
    return total


def generator_apply(f: LocalFunction, eta: Configuration, rate: RateFn,
                    kernel: Kernel, policy: BoundaryPolicy = OPEN) -> float:
    """(Lf)(eta): exact finite sum over the moves that can change f.

    For one particle at site x with f = min(eta(0), M): moving it away from 0
    contributes -g(1) * (mass of offsets leaving 0), matching the defining sum
    over ordered pairs with the no-op convention at empty sources.
    """
    if eta.d != kernel.d:
        raise ConfigError("configuration and kernel dimensions differ")
    occ = dict(eta.occ)
    return _generator_apply_dict(f, occ, rate, kernel, policy)


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

def _martingale_worker(r, f, eta0, rate, kernel, policy, T, seed, grid):
    noise = HarrisNoise(seed, (r,))
    traj = simulate(eta0, rate, kernel, policy, T, noise)
    g = rate.g
    sources = _candidate_sources(f, kernel, policy)
    f0 = f.value(eta0.occ)
    integral = 0.0
    rate_mass = 0.0  # integral of sum_{x in Abar} g(eta_s(x)) ds
    gi = 0
    m_grid = np.empty(len(grid))
    lf_grid = np.empty(len(grid))
    f_grid = np.empty(len(grid))
    for t0, t1, occ in intervals(traj):
        lf = _generator_apply_dict(f, occ, rate, kernel, policy, sources)
        while gi < len(grid) and t0 <= grid[gi] < t1:
            fv = f.value(occ)
            m_grid[gi] = fv - f0 - (integral + lf * (grid[gi] - t0))
            lf_grid[gi] = lf
            f_grid[gi] = fv
            gi += 1
        dt = t1 - t0
        integral += lf * dt
        rate_mass += dt * sum(g(occ.get(x, 0)) for x in sources)
    occT = dict(traj.final.occ)
    lfT = _generator_apply_dict(f, occT, rate, kernel, policy, sources)
    while gi < len(grid):
        fv = f.value(occT)
        m_grid[gi] = fv - f0 - integral
        lf_grid[gi] = lfT
        f_grid[gi] = fv
        gi += 1
    return m_grid, rate_mass, f_grid, lf_grid


def martingale_residual(f: LocalFunction, eta0: Configuration, rate: RateFn,
                        kernel: Kernel, policy: BoundaryPolicy, T: float,
                        replicas: int, seed: int,
                        threads: int = 1) -> Report:
    """E[M_t] for M_t = f(eta_t) - f(eta_0) - int_0^t (Lf)(eta_s) ds, on the
    grid t = T/8, 2T/8, ..., T.

    Passes when |mean| <= 4 SE at the horizon and the empirical variance of
    M_T respects the optional-quadratic-variation bound
    8 B^2 E[int sum_{x in Abar} g(eta_s(x)) ds] (within its own 4 SE band).
    """
    grid = np.linspace(T / 8, T, 8)
    rows = replica_map(_martingale_worker, replicas, threads=threads,
                       args=(f, eta0, rate, kernel, policy, T, seed, grid))
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
    grid_se = M.std(axis=0, ddof=1) / math.sqrt(replicas)
    return Report(
        test="martingale_residual", passed=bool(z <= 4.0 and qv_ok),
        statistic=z, threshold=4.0, seed=seed, n_replicas=replicas,
        extras={"mean": mean, "se": se, "grid": grid.tolist(),
                "grid_mean": grid_mean.tolist(), "grid_se": grid_se.tolist(),
                "var_MT": var, "qv_bound": qv_bound, "qv_ok": bool(qv_ok),
                "f": f.label, "final_mean_f": float(np.mean([row[2][-1] for row in rows]))})


def _forward_worker(r, f, eta0, rate, kernel, policy, T, seed, grid):
    m_grid, _mass, f_grid, lf_grid = _martingale_worker(
        r, f, eta0, rate, kernel, policy, T, seed, grid)
    # integral of Lf up to each grid point recovers from M and f:
    # I(tau) = f(tau) - f(0) - M(tau)
    f0 = f.value(eta0.occ)
    i_grid = f_grid - f0 - m_grid
    return f_grid, lf_grid, i_grid


def forward_equation_check(f: LocalFunction, eta0: Configuration, rate: RateFn,
                           kernel: Kernel, policy: BoundaryPolicy, T: float,
                           replicas: int, seed: int,
                           threads: int = 1) -> Report:
    """Windowed forward equation on the grid t = 0, T/8, ..., T: for interior
    grid windows, E[f(eta_{t+}) - f(eta_{t-})] = E[int Lf ds] exactly; the
    report also carries the central-difference dE[f]/dt against E[Lf] as
    curves.
    """
    grid = np.linspace(0.0, T, 9)
    rows = replica_map(_forward_worker, replicas, threads=threads,
                       args=(f, eta0, rate, kernel, policy, T, seed, grid))
    F = np.stack([row[0] for row in rows])
    L = np.stack([row[1] for row in rows])
    I = np.stack([row[2] for row in rows])

    zs = []
    for j in range(1, len(grid) - 1):
        d_r = F[:, j + 1] - F[:, j - 1] - (I[:, j + 1] - I[:, j - 1])
        m, se = _mean_se(d_r)
        zs.append(abs(m) / se if se > 0 else (0.0 if m == 0 else math.inf))
    zmax = max(zs)

    ef = F.mean(axis=0)
    elf = L.mean(axis=0)
    deriv = np.full(len(grid), np.nan)
    deriv[1:-1] = (ef[2:] - ef[:-2]) / (grid[2:] - grid[:-2])
    return Report(
        test="forward_equation", passed=bool(zmax <= 4.0), statistic=zmax,
        threshold=4.0, seed=seed, n_replicas=replicas,
        extras={"grid": grid.tolist(), "E_f": ef.tolist(),
                "E_Lf": elf.tolist(), "dEf_dt_central": deriv.tolist(),
                "window_z": zs, "f": f.label})


# ------------------------------------------------------ exact stationarity

def _torus_index_map(sites, sites_per_dim: int, d: int):
    idx = {x: i for i, x in enumerate(sites)}
    L = sites_per_dim

    def fold(x):
        if L % 2 == 1:
            return fold_into_box(x, L // 2)
        if isinstance(x, int):
            return x % L
        return tuple(c % L for c in x)

    return idx, fold


def stationarity_exact(rate: RateFn, kernel: Kernel, sites_per_dim: int,
                       d: int, N: int) -> Report:
    """Global balance residual of the conditioned product measure under the
    folded-kernel torus generator. Exact enumeration; residual should be
    rounding-level (threshold 1e-12 relative to the largest state flux)."""
    meas = canonical_torus_measure(rate, sites_per_dim, d, N)
    idx, fold = _torus_index_map(meas.sites, sites_per_dim, d)
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
                y = fold(site_add(x, z))
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
    origin: Site = 0 if eta0.d == 1 else (0,) * eta0.d
    crossings = sum(1 for ev in traj.events if ev[1] == -1 and ev[2] == 0)
    return eta0.count(origin), traj.final.count(origin), crossings


def _torus_worker(r, measure, rate, kernel, torus_n, T, seed, start, N):
    """torus_row of one torus replica from a product start ("grand") or from
    a pile of N particles at the origin ("point")."""
    d = kernel.d
    if start == "grand":
        eta0 = sample_box_config(measure, torus_n, d,
                                 derived_rng(seed, TAG_SAMPLE, r))
    else:
        eta0 = Configuration(d, {(0 if d == 1 else (0,) * d): N})
    noise = HarrisNoise(seed, (r,))
    traj = simulate(eta0, rate, kernel, periodic(torus_n), T, noise)
    return torus_row(eta0, traj)


# -------------------------------------------------- statistical stationarity

def _tail_merge(exp: np.ndarray) -> tuple[int, float]:
    """(hi, low): merging the right tail of expected counts exp from cell
    hi - 1 on leaves it >= 5, or two cells; low is the least kept cell."""
    hi = len(exp)
    while hi > 2 and exp[hi - 1:].sum() < 5.0:
        hi -= 1
    return hi, float(min(exp[:hi - 1].min(initial=np.inf), exp[hi - 1:].sum()))


def chi2_replicas(probs: np.ndarray, replicas: int) -> int:
    """Fewest replicas R >= replicas at which every cell _tail_merge keeps of
    probs * R expects >= 5; 10**18 if a kept cell has probability 0."""
    R = replicas
    while (low := _tail_merge(probs * R)[1]) < 5.0 and R < 10 ** 18:
        # below R * 5 / low replicas that cell, or a smaller one, stays under 5
        R = max(R + 1, int(min(5.0 * R / low, 1e18))) if low else 10 ** 18
    return R


def _chi2_one_sample(counts: np.ndarray, probs: np.ndarray):
    """Chi-square of counts against probs, the right tail merged by
    _tail_merge; every cell expects >= 5 from chi2_replicas replicas on."""
    from scipy.stats import chi2
    exp = probs * counts.sum()
    hi = _tail_merge(exp)[0]
    obs, ex = (np.append(v[:hi - 1], v[hi - 1:].sum()) for v in (counts, exp))
    stat = float(np.sum((obs - ex) ** 2 / ex))
    dof = len(obs) - 1
    return stat, dof, float(chi2.sf(stat, dof))


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
    M = (2 * torus_n + 1) ** d
    N = int(round(measure.density() * M))
    rows = replica_map(_torus_worker, replicas, threads=threads,
                       args=(measure, rate, kernel, torus_n, T, seed, start, N))
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
    Rare cells (pooled count < _MIN_POOLED) are merged into one."""
    from scipy.stats import chi2
    keys = sorted(set(cells_a) | set(cells_b),
                  key=lambda k: (-(cells_a.get(k, 0) + cells_b.get(k, 0)), str(k)))
    kept = [k for k in keys
            if cells_a.get(k, 0) + cells_b.get(k, 0) >= _MIN_POOLED]
    rest = [k for k in keys if k not in set(kept)]
    if rest or len(kept) < 2:
        # merge the sparse remainder; drop one kept cell into it if needed
        while len(kept) >= 2 and sum(cells_a.get(k, 0) + cells_b.get(k, 0)
                                     for k in rest) < _MIN_POOLED:
            rest.append(kept.pop())
        o1 = np.array([cells_a.get(k, 0) for k in kept]
                      + [sum(cells_a.get(k, 0) for k in rest)], dtype=float)
        o2 = np.array([cells_b.get(k, 0) for k in kept]
                      + [sum(cells_b.get(k, 0) for k in rest)], dtype=float)
    else:
        o1 = np.array([cells_a.get(k, 0) for k in kept], dtype=float)
        o2 = np.array([cells_b.get(k, 0) for k in kept], dtype=float)
    n1, n2 = o1.sum(), o2.sum()
    pool = (o1 + o2) / (n1 + n2)
    mask = pool > 0
    e1, e2 = pool * n1, pool * n2
    stat = float(np.sum((o1[mask] - e1[mask]) ** 2 / e1[mask])
                 + np.sum((o2[mask] - e2[mask]) ** 2 / e2[mask]))
    dof = int(mask.sum()) - 1
    return stat, dof, float(chi2.sf(stat, dof))


def _engine_pair_worker(r, eta0, rate, kernel, policy, T, seed, window):
    from .engine import simulate_gillespie
    noise = HarrisNoise(seed, (r,))
    th = simulate(eta0, rate, kernel, policy, T, noise)
    rng = derived_rng(seed, TAG_GILLESPIE, r)
    tg = simulate_gillespie(eta0, rate, kernel, policy, T, rng)
    key_h = tuple(th.final.count(x) for x in window)
    key_g = tuple(tg.final.count(x) for x in window)
    return key_h, key_g


def engine_agreement_check(eta0: Configuration, rate: RateFn, kernel: Kernel,
                           policy: BoundaryPolicy, T: float, replicas: int,
                           seed: int, alpha: float = 0.001,
                           threads: int = 1) -> Report:
    """Two-sample chi-square between the thinning construction and the
    total-rate clock sampler on the joint time-T occupancy of the window
    [-1, 1]^d. The two engines share nothing but the model, so agreement
    here checks the thinning logic end to end."""
    window = box_sites(1, kernel.d)
    rows = replica_map(_engine_pair_worker, replicas, threads=threads,
                       args=(eta0, rate, kernel, policy, T, seed, tuple(window)))
    cells_h: dict = {}
    cells_g: dict = {}
    for kh, kg in rows:
        cells_h[kh] = cells_h.get(kh, 0) + 1
        cells_g[kg] = cells_g.get(kg, 0) + 1
    stat, dof, p = chi2_joint_two_sample(cells_h, cells_g)
    return Report(test="engine_agreement", passed=bool(p >= alpha),
                  statistic=stat, threshold=alpha, seed=seed,
                  n_replicas=replicas,
                  extras={"p_value": p, "dof": dof, "alpha": alpha,
                          "window": [list((x,)) if isinstance(x, int) else list(x)
                                     for x in window],
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


def j_discrepancy(zeta: Configuration, psi: Configuration) -> int:
    """Largest positive excess of zeta over psi on any window [n, m] with
    n <= 0 <= m (d=1): the number of zeta particles with no psi partner
    reachable without crossing the origin."""
    if zeta.d != 1 or psi.d != 1:
        raise ConfigError("the discrepancy functional is d=1 only")
    return _j_dicts(dict(zeta.occ), dict(psi.occ))


def _j_worker(r, zeta0, psi0, rate, kernel, T, seed):
    noise = HarrisNoise(seed, (r,))
    tz = simulate(zeta0, rate, kernel, OPEN, T, noise, tag="zeta")
    tp = simulate(psi0, rate, kernel, OPEN, T, noise, tag="psi")
    occz = dict(zeta0.occ)
    occp = dict(psi0.occ)
    j0 = _j_dicts(occz, occp)
    ez, ep = tz.events, tp.events
    iz = ip = 0
    n_off_origin = 0
    violations = 0
    while iz < len(ez) or ip < len(ep):
        tz_next = ez[iz][0] if iz < len(ez) else math.inf
        tp_next = ep[ip][0] if ip < len(ep) else math.inf
        t = min(tz_next, tp_next)
        # a shared atom fires in both runs at the identical float time; apply
        # the whole instant before checking the inequality
        while iz < len(ez) and ez[iz][0] == t:
            _apply_event(occz, ez[iz])
            iz += 1
        while ip < len(ep) and ep[ip][0] == t:
            if ep[ip][1] == 0:
                n_off_origin += 1
            _apply_event(occp, ep[ip])
            ip += 1
        if _j_dicts(occz, occp) > j0 + n_off_origin:
            violations += 1
    return violations


def j_inequality_check(zeta0: Configuration, psi0: Configuration, rate: RateFn,
                       kernel: Kernel, T: float, replicas: int, seed: int,
                       threads: int = 1) -> Report:
    """Couple the two marginals through one noise field and verify, at every
    event instant, that the discrepancy never grows beyond its initial value
    plus the number of psi departures from the origin. Zero tolerance."""
    if is_nearest_neighbour_1d(kernel) is None:
        raise ConfigError("the discrepancy inequality needs a d=1 nearest-neighbour kernel")
    rows = replica_map(_j_worker, replicas, threads=threads,
                       args=(zeta0, psi0, rate, kernel, T, seed))
    total = int(sum(rows))
    return Report(test="j_inequality", passed=total == 0, statistic=float(total),
                  threshold=0.0, seed=seed, n_replicas=replicas,
                  extras={"violations": total})


# ------------------------------------------------------------- Poisson flux

def _chi2_two_sided_z(stat: float, dof: int) -> float:
    """The normal |z| whose two-sided tail area equals that of stat under
    chi2(dof)."""
    from scipy.stats import chi2, norm
    return float(norm.isf(min(chi2.cdf(stat, dof), chi2.sf(stat, dof))))


def poisson_flux_check(rate: RateFn, phi: float, torus_n: int, T: float,
                       replicas: int, seed: int, threads: int = 1) -> Report:
    """Under the stationary product start and totally asymmetric d=1 jumps,
    the count of -1 -> 0 crossings in [0, T] should be Poisson with mean
    phi*T: the mean inside a 4*SE band, and the index of dispersion D
    passing the two-sided dispersion test, (n-1) D against chi2(n-1), at the
    tail area of a 4*SE normal band."""
    if torus_n < 1:
        raise ConfigError("need torus radius >= 1")
    measure = fugacity_measure(rate, phi)
    rows = replica_map(_torus_worker, replicas, threads=threads,
                       args=(measure, rate, nn_kernel_1d(1.0), torus_n, T, seed,
                             "grand", 0))
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
    measure = fugacity_measure(rate, phi)
    rows = replica_map(_torus_worker, replicas, threads=threads,
                       args=(measure, rate, kernel, torus_n, T, seed, "grand", 0))
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
