import math

import numpy as np
import pytest

from zrp import acceptance, engine
from zrp import noise as noise_module
from zrp.configuration import Configuration, replay, snapshots, truncate
from zrp.engine import (
    OPEN,
    check_domination,
    killed,
    periodic,
    route,
    simulate,
    simulate_gillespie,
    simulate_pq_family,
    simulate_truncation_schedule,
)
from zrp.errors import ConfigError, InvariantViolation, RateRangeError
from zrp.kernel import make_kernel, nn_kernel_1d, symmetric_nn_kernel
from zrp.noise import HarrisNoise
from zrp.parallel import TAG_GILLESPIE, derived_rng
from zrp.rates import exp_rate, power_rate
from zrp.sites import box_sites

RATE = power_rate(2.0)
NN = nn_kernel_1d(0.5)


def _ones(n):
    """One particle on every site of [-n, n]."""
    return Configuration(1, {x: 1 for x in box_sites(n, 1)})


def test_open_run_conserves_mass():
    eta0 = Configuration(1, {-1: 2, 0: 3, 4: 1})
    traj = simulate(eta0, RATE, NN, OPEN, 3.0, HarrisNoise(1))
    assert traj.final.total() == eta0.total()
    assert traj.kill_count() == 0
    assert replay(traj) == traj.final


def test_periodic_run_conserves_mass_and_stays_in_box():
    eta0 = Configuration(1, {-2: 1, 0: 2, 2: 1})
    traj = simulate(eta0, RATE, NN, periodic(2), 5.0, HarrisNoise(2))
    assert traj.final.total() == eta0.total()
    assert all(-2 <= x <= 2 for x in traj.final.occ)
    kinds = {e[3] for e in traj.events}
    assert kinds <= {"jump", "periodic-wrap"}
    assert "periodic-wrap" in kinds  # T=5 on a 5-site ring crosses the seam
    assert replay(traj) == traj.final


def test_killed_run_loses_exactly_kill_count():
    eta0 = Configuration(1, {0: 3})
    traj = simulate(eta0, RATE, NN, killed(1), 4.0, HarrisNoise(3))
    assert traj.final.total() == eta0.total() - traj.kill_count()
    assert all(-1 <= x <= 1 for x in traj.final.occ)


# offset +3 folds back onto its own source on the 3-site ring {-1, 0, 1}
SELF_WRAP = make_kernel([(3, 0.5), (-1, 0.5)])


@pytest.mark.parametrize("engine", ["harris", "gillespie"])
def test_self_wrap_keeps_mass(engine):
    eta0 = Configuration(1, {0: 3})
    args = (eta0, power_rate(1.0), SELF_WRAP, periodic(1), 2.0)
    traj = (simulate(*args, HarrisNoise(6)) if engine == "harris"
            else simulate_gillespie(*args, derived_rng(6, TAG_GILLESPIE)))
    assert traj.event_count() > 0
    assert all(e[1] != e[2] for e in traj.events)
    assert traj.final.total() == eta0.total()
    assert replay(traj) == traj.final


def test_harris_determinism():
    eta0 = Configuration(1, {0: 2, 1: 1})
    a = simulate(eta0, RATE, NN, OPEN, 2.0, HarrisNoise(9, (4,)))
    b = simulate(eta0, RATE, NN, OPEN, 2.0, HarrisNoise(9, (4,)))
    assert a.events == b.events
    assert a.final == b.final


def test_gillespie_determinism_and_conservation():
    eta0 = Configuration(1, {0: 2, 1: 1})
    a = simulate_gillespie(eta0, RATE, NN, OPEN, 2.0, derived_rng(77, TAG_GILLESPIE))
    b = simulate_gillespie(eta0, RATE, NN, OPEN, 2.0, derived_rng(77, TAG_GILLESPIE))
    assert a.events == b.events
    assert a.final.total() == eta0.total()
    assert replay(a) == a.final


def test_event_times_strictly_increasing():
    traj = simulate(Configuration(1, {0: 4}), RATE, NN, OPEN, 2.0, HarrisNoise(5))
    times = [e[0] for e in traj.events]
    assert all(t1 > t0 for t0, t1 in zip(times, times[1:]))
    assert all(0.0 < t <= 2.0 for t in times)


def test_d2_run_moves_on_the_lattice():
    eta0 = Configuration(2, {(0, 0): 3})
    traj = simulate(eta0, RATE, symmetric_nn_kernel(2), OPEN, 2.0, HarrisNoise(6))
    assert traj.final.total() == 3
    assert traj.event_count() > 0
    assert replay(traj) == traj.final


def test_validation_errors():
    eta0 = Configuration(1, {0: 1})
    with pytest.raises(ConfigError):
        simulate(eta0, RATE, NN, OPEN, -1.0, HarrisNoise(0))
    with pytest.raises(ConfigError):
        simulate(eta0, RATE, symmetric_nn_kernel(2), OPEN, 1.0, HarrisNoise(0))
    with pytest.raises(ConfigError):
        simulate(Configuration(1, {5: 1}), RATE, NN, killed(2), 1.0, HarrisNoise(0))
    with pytest.raises(ConfigError):
        periodic(-1)
    with pytest.raises(ConfigError):
        killed(-2)


@pytest.mark.parametrize("make", [periodic, killed])
@pytest.mark.parametrize("n", [2.5, 2.0, True, math.nan])
def test_box_radius_must_be_a_whole_number(make, n):
    with pytest.raises(ConfigError, match="box radius .* is not an integer"):
        make(n)


@pytest.mark.parametrize("make", [periodic, killed])
def test_numpy_box_radius_is_stored_as_an_int(make):
    policy = make(np.int64(2))
    assert type(policy.n) is int
    assert policy == make(2) and policy.describe() == f"{policy.kind}(2)"
    eta0 = Configuration(1, {-2: 2, 1: 1})
    traj = simulate(eta0, RATE, nn_kernel_1d(0.7), policy, 3.0, HarrisNoise(8))
    assert traj.event_count() > 0
    assert {type(x) for e in traj.events for x in e[1:3]} == {int}
    assert traj.events == simulate(eta0, RATE, nn_kernel_1d(0.7), make(2), 3.0,
                                   HarrisNoise(8)).events


# (policy, kernel, start of run A, start of run B, route kinds A leaves in the
# table): a kill on killed(1), and the offset +3 of SELF_WRAP, which on
# periodic(1) folds back onto its own source (kind None)
WARM_CASES = [
    (OPEN, symmetric_nn_kernel(2), Configuration(2, {(1, 0): 3}),
     Configuration(2, {(0, 0): 2, (0, 1): 2}), {"jump"}),
    (killed(1), nn_kernel_1d(0.7), Configuration(1, {1: 3}),
     Configuration(1, {-1: 2, 0: 2}), {"jump", "kill"}),
    (periodic(1), SELF_WRAP, Configuration(1, {1: 3}),
     Configuration(1, {0: 2, -1: 1}), {"jump", "periodic-wrap", None}),
]


def _route_calls(monkeypatch) -> list:
    """Record every route() call; the shared tables start empty, so no
    earlier run's routes bypass the record."""
    calls = []

    def counting(policy, x, z):
        calls.append((x, z))
        return route(policy, x, z)

    engine._ROUTES.clear()
    monkeypatch.setattr(engine, "route", counting)
    return calls


@pytest.mark.parametrize("policy,kernel,eta_a,eta_b,kinds", WARM_CASES)
def test_a_warm_route_table_leaves_the_log_unchanged(policy, kernel, eta_a, eta_b,
                                                     kinds, monkeypatch):
    """Run B logs the same events from an empty route table as after an
    unrelated run A of the same model (other start, other noise) filled it."""
    def run(eta0, seed):
        return simulate(eta0, RATE, kernel, policy, 3.0, HarrisNoise(seed))

    calls = _route_calls(monkeypatch)
    cold, n_cold = run(eta_b, 11), len(calls)
    engine._ROUTES.clear()
    run(eta_a, 12)
    assert {kind for _, kind in engine._ROUTES[policy, kernel].values()} == kinds
    del calls[:]
    warm = run(eta_b, 11)
    assert warm.events == cold.events and warm.final == cold.final
    assert len(calls) < n_cold  # B took routes that A put in the table


def test_equal_kernels_built_two_ways_share_one_route_table(monkeypatch):
    spelled = make_kernel([(1, 0.5), (-1, 0.5)])
    assert spelled == NN and spelled is not NN
    eta0 = Configuration(1, {-1: 2, 0: 3, 2: 2})
    calls = _route_calls(monkeypatch)
    cold = simulate(eta0, RATE, spelled, killed(2), 3.0, HarrisNoise(4))
    n_cold = len(calls)
    engine._ROUTES.clear()
    simulate(Configuration(1, {1: 3}), RATE, NN, killed(2), 3.0, HarrisNoise(5))
    del calls[:]
    warm = simulate(eta0, RATE, spelled, killed(2), 3.0, HarrisNoise(4))
    assert len(engine._ROUTES) == 1
    assert warm.events == cold.events
    assert len(calls) < n_cold  # NN's routes served the run under spelled


def test_every_shared_route_is_the_route_of_its_jump(monkeypatch):
    _route_calls(monkeypatch)
    for policy, kernel, eta_a, eta_b, _ in WARM_CASES:
        for eta0, seed in ((eta_a, 1), (eta_b, 2)):
            simulate(eta0, RATE, kernel, policy, 3.0, HarrisNoise(seed))
            simulate_gillespie(eta0, RATE, kernel, policy, 3.0, derived_rng(seed, 0))
    simulate(Configuration(1, {0: 2}), RATE, SELF_WRAP, OPEN, 3.0, HarrisNoise(3))
    assert len(engine._ROUTES) == len(WARM_CASES) + 1
    for (policy, kernel), table in engine._ROUTES.items():
        jumps = kernel.jumps
        assert len(table) > len(jumps)
        for (x, i), hit in table.items():
            assert hit == route(policy, x, jumps[min(i, len(jumps) - 1)])


def test_shared_noise_preserves_sitewise_order():
    """Attractiveness under the common field.

    eta <= zeta sitewise at time 0 implies the same at all later times when
    both read the same atoms: an atom firing in the smaller state also fires
    in the larger one (g non-decreasing), and a fire only in the larger state
    has spare particles to move.
    """
    small = Configuration(1, {0: 1, 1: 1})
    big = Configuration(1, {-1: 1, 0: 2, 1: 1, 3: 2})
    assert check_domination([small], [big]) == []
    times = [0.25 * k for k in range(1, 9)]
    for seed_branch in range(25):
        nz = HarrisNoise(21, (seed_branch,))
        ts = simulate(small, RATE, NN, OPEN, 2.0, nz)
        tb = simulate(big, RATE, NN, OPEN, 2.0, nz)
        assert check_domination(snapshots(ts, times), snapshots(tb, times)) == []


def test_check_domination_reports_breaches():
    a = [Configuration(1, {0: 2})]
    b = [Configuration(1, {0: 1})]
    assert check_domination(a, b) == [(0, 0)]


def test_truncation_schedule_monotone():
    res = simulate_truncation_schedule(_ones(8), (2, 4, 8), RATE, NN, 1.0,
                                       HarrisNoise(33))
    assert res.schedule == (2, 4, 8)
    assert len(res.trajectories) == 3
    assert 0.0 <= res.stabilized_fraction <= 1.0
    # totals grow with the box for a density-1 profile
    totals = [t.initial.total() for t in res.trajectories]
    assert totals == sorted(totals)


class _Atoms:
    """Noise holding only the given atoms (t, site, y, u), all in band 0 of
    slab 0."""
    master, path = 0, ()

    def __init__(self, atoms):
        self.atoms = atoms

    def slab_atoms(self, sites, counts, ahead, slab, t_hi):
        return ([a for a in self.atoms if slab == 0 and a[1] in sites and a[0] <= t_hi],
                ([], [], [], {}))

    def band_atoms(self, site, b0, b1, slab, t_lo, t_hi):
        return [a for a in self.atoms
                if a[1] == site and b0 == slab == 0 < b1 and t_lo < a[0] <= t_hi]


@pytest.mark.parametrize("reverse", [False, True])
def test_the_engine_orders_a_slabs_atoms(reverse):
    # slab_atoms promises no order; simulate's heap pops (t, site, y, u), so
    # exact ties in t fall to the site, then the height. Such ties happen: at
    # slab 2^40 times are multiples of 2^-12. u >= 0.5 jumps right under NN.
    atoms = [(0.6, 0, 0.5, 0.75),   # 0 -> 1; empty site 1's atoms come by its rise
             (0.7, 1, 0.5, 0.75),   # a rise atom tied in t with a slab-start atom
             (0.7, 2, 0.5, 0.25),
             (0.8, 2, 0.9, 0.75),   # two atoms tied at one site: the lower
             (0.8, 2, 0.3, 0.25)]   # fires, and the site is empty for the other
    traj = simulate(Configuration(1, {0: 1, 2: 1}), RATE, NN, OPEN, 1.0,
                    _Atoms(sorted(atoms, reverse=reverse)))
    assert [ev[:3] for ev in traj.events] == [(0.6, 0, 1), (0.7, 1, 2), (0.7, 2, 1),
                                              (0.8, 2, 1)]


@pytest.mark.parametrize("atoms,fraction,origin_ok", [
    # level n=2 alone holds site 2, whose particle steps to 1 at t=0.55:
    # sites -1 and 0 agree with level n=1 at every snapshot, site 1 does not
    ([(0.55, 2, 0.5, 0.0)], 2 / 3, True),
    # then on to the origin at t=0.65: only site -1 agrees throughout
    ([(0.35, 2, 0.5, 0.0), (0.65, 1, 0.5, 0.0)], 1 / 3, False),
])
def test_truncation_schedule_stabilized_window(atoms, fraction, origin_ok):
    # u = 0 jumps left under NN
    res = simulate_truncation_schedule(Configuration(1, {0: 1, 2: 1}), (1, 2), RATE,
                                       NN, 1.0, _Atoms(atoms))
    assert res.stabilized_fraction == fraction
    assert res.origin_stabilized is origin_ok


@pytest.mark.parametrize("T", [0.11, 0.21, 0.49, 0.92, 1.62, 3.36])
def test_truncation_schedule_default_snapshots_end_at_T(T):
    res = simulate_truncation_schedule(_ones(2), (1, 2), RATE, NN, T, HarrisNoise(5))
    assert len(res.snapshot_times) == 10
    assert res.snapshot_times[-1] == T


def test_truncation_schedule_rejects_bad_schedule():
    with pytest.raises(ConfigError):
        simulate_truncation_schedule(_ones(4), (4, 4), RATE, NN, 1.0,
                                     HarrisNoise(0))
    with pytest.raises(ConfigError):
        simulate_truncation_schedule(_ones(4), (4,), RATE, NN, 1.0,
                                     HarrisNoise(0))


@pytest.mark.parametrize("schedule,match", [
    ((1.7, 3.2), "truncation schedule box radius 1.7 is not an integer"),
    ((1, math.inf), "truncation schedule box radius inf"),
    ((1, 3), "base site -5 lies outside the largest box, n=3"),
    ((2.0, 5), "truncation schedule box radius 2.0 is not an integer"),
])
def test_truncation_schedule_rejects_lost_levels_and_mass(schedule, match):
    # 11 particles on [-5, 5]: a largest box of radius 3 would drop 4 of them;
    # a level is a box radius, so 2.0 is refused as periodic(2.0) is
    with pytest.raises(ConfigError, match=match):
        simulate_truncation_schedule(_ones(5), schedule, RATE, NN, 1.0, HarrisNoise(0))
    res = simulate_truncation_schedule(_ones(5), (np.int64(2), 5), RATE, NN, 1.0,
                                       HarrisNoise(0))
    assert res.schedule == (2, 5) and type(res.schedule[0]) is int


def test_pq_family_sandwich_and_sorted_labels():
    eta0 = Configuration(1, {-2: 1, 0: 2, 1: 1})
    res = simulate_pq_family(eta0, RATE, 1.5, HarrisNoise(44),
                             [(1.0, 0.0), (0.7, 0.3), (0.5, 0.5), (0.0, 1.0)])
    assert res.labels == sorted(res.labels)
    lo = res.positions[(0.0, 1.0)]
    hi = res.positions[(1.0, 0.0)]
    for pq, arr in res.positions.items():
        assert np.all(arr >= lo) and np.all(arr <= hi)
        # left-to-right labelling survives the dynamics in every member
        assert np.all(np.diff(arr, axis=1) >= 0)


def test_pq_family_adds_extremes():
    eta0 = Configuration(1, {0: 1})
    res = simulate_pq_family(eta0, RATE, 0.5, HarrisNoise(45), [(0.6, 0.4)])
    assert (1.0, 0.0) in res.pq_values
    assert (0.0, 1.0) in res.pq_values


def test_pq_family_breach_is_a_hard_failure(monkeypatch):
    # shift the first member's snapshots (here the (0.5, 0.5) run) far right
    calls = []

    def shifted(traj, times):
        calls.append(None)
        snaps = snapshots(traj, times)
        if len(calls) > 1:
            return snaps
        return [Configuration(1, {x + 100: k for x, k in s.occ.items()})
                for s in snaps]

    monkeypatch.setattr(engine, "snapshots", shifted)
    with pytest.raises(InvariantViolation, match=r"pq=\(0.5, 0.5\)"):
        simulate_pq_family(Configuration(1, {0: 2}), RATE, 1.0, HarrisNoise(0),
                           [(0.5, 0.5)])


def test_pq_sandwich_counts_the_breaking_replicas(monkeypatch):
    def breaks_on_odd_replicas(eta0, rate, T, noise, pq):
        if noise.path[0] % 2:
            raise InvariantViolation("order violated")

    monkeypatch.setattr(acceptance, "simulate_pq_family", breaks_on_odd_replicas)
    res = acceptance.criterion_pq_sandwich(1, threads=1, smoke=True)
    assert not res.passed
    assert res.details["violations"] == res.statistic == 50


def test_pq_family_validation():
    eta0 = Configuration(1, {0: 1})
    with pytest.raises(ConfigError):
        simulate_pq_family(eta0, RATE, 1.0, HarrisNoise(0), [(0.6, 0.6)])
    with pytest.raises(ConfigError):
        simulate_pq_family(eta0, RATE, 1.0, HarrisNoise(0), [(1.0 + 1e-13, 0.0)])
    with pytest.raises(ConfigError):
        simulate_pq_family(eta0, RATE, 1.0, HarrisNoise(0), [(math.nan, 0.5)])
    with pytest.raises(ConfigError):
        simulate_pq_family(Configuration(2, {(0, 0): 1}), RATE, 1.0,
                           HarrisNoise(0), [(1.0, 0.0)])
    with pytest.raises(ConfigError, match="snapshot times decrease"):
        simulate_pq_family(eta0, RATE, 1.0, HarrisNoise(0), [(0.5, 0.5)],
                           snapshot_times=(1.0, 0.5))
    # p + q may miss 1 by up to 1e-12: 2^-39 is past that, 2^-40 within
    with pytest.raises(ConfigError):
        simulate_pq_family(eta0, RATE, 1.0, HarrisNoise(0), [(0.5, 0.5 + 2.0 ** -39)])
    res = simulate_pq_family(eta0, RATE, 1.0, HarrisNoise(0), [(0.5, 0.5 + 2.0 ** -40)])
    assert (0.5, 0.5 + 2.0 ** -40) in res.pq_values


def test_pq_family_mark_convention():
    # sample_jump's inverse cdf over the support (-1, +1): u >= q goes right
    for u, dst in ((0.24, -1), (0.25, 1), (0.26, 1)):
        res = simulate_pq_family(Configuration(1, {0: 1}), power_rate(1.0), 1.0,
                                 _Atoms([(0.5, 0, 0.5, u)]), [(0.75, 0.25)])
        assert [ev[:3] for ev in res.trajectories[(0.75, 0.25)].events] == [(0.5, 0, dst)]


@pytest.mark.parametrize("policy", [OPEN, killed(30), periodic(30)])
def test_batched_slab_starts_leave_events_unchanged(policy, monkeypatch):
    eta0 = _ones(30)
    runs = []
    for cutoff in (1, 10 ** 9):   # every slab start batched, none batched
        monkeypatch.setattr(noise_module, "_BATCH_MIN", cutoff)
        runs.append(simulate(eta0, RATE, nn_kernel_1d(0.6), policy, 3.7,
                             HarrisNoise(47, (1,))).events)
    assert len(runs[0]) > 100
    assert runs[0] == runs[1]


@pytest.mark.parametrize("run", [
    lambda eta0, T: simulate(eta0, RATE, NN, OPEN, T, HarrisNoise(0)),
    lambda eta0, T: simulate_gillespie(eta0, RATE, NN, OPEN, T, np.random.default_rng(0)),
])
def test_engines_reject_a_zero_horizon(run):
    with pytest.raises(ConfigError, match="horizon T must be positive"):
        run(Configuration(1, {0: 1}), 0.0)


class _SlabLog:
    """Wraps a HarrisNoise and records the slab of every request."""

    def __init__(self, noise):
        self.noise, self.master, self.path = noise, noise.master, noise.path
        self.slabs = set()
        self.rises = []  # (b0, b1) of every band_atoms call

    def slab_atoms(self, sites, counts, ahead, slab, t_hi):
        self.slabs.add(slab)
        return self.noise.slab_atoms(sites, counts, ahead, slab, t_hi)

    def band_atoms(self, site, b0, b1, slab, t_lo, t_hi):
        self.slabs.add(slab)
        self.rises.append((b0, b1))
        return self.noise.band_atoms(site, b0, b1, slab, t_lo, t_hi)


@pytest.mark.parametrize("T", [0.3, 1.0, 2.0, 2.5])
def test_no_slab_at_or_past_the_horizon_is_drawn(T):
    # an integer T ends the run at a slab start, whose atoms all lie past T
    # but for a time word of exactly 0
    noise = _SlabLog(HarrisNoise(52))
    traj = simulate(_ones(30), RATE, nn_kernel_1d(0.6), periodic(30), T, noise)
    assert traj.event_count() > 0
    assert noise.slabs == set(range(math.ceil(T)))


def test_a_rise_hashes_only_the_bands_its_spares_lack(monkeypatch):
    # every slab start batched, so most rises find spares in their span
    monkeypatch.setattr(noise_module, "_BATCH_MIN", 1)
    noise = _SlabLog(HarrisNoise(47, (1,)))
    simulate(_ones(30), RATE, nn_kernel_1d(0.6), periodic(30), 3.7, noise)
    assert len(noise.rises) > 50
    assert all(b0 < b1 for b0, b1 in noise.rises)


def test_start_past_the_band_budget_fails_before_any_slab():
    # g(60) = e^60 needs band 87; the budget check runs before slab 0
    noise = _SlabLog(HarrisNoise(0))
    with pytest.raises(RateRangeError, match="MAX_BAND"):
        simulate(Configuration(1, {0: 60}), exp_rate(1, 1), NN, OPEN, 1.0, noise)
    assert noise.slabs == set()


@pytest.mark.parametrize("T", [-1.0, math.inf, math.nan])
def test_pq_family_rejects_a_bad_horizon_before_any_run(T):
    noise = _SlabLog(HarrisNoise(0))
    with pytest.raises(ConfigError):
        simulate_pq_family(Configuration(1, {0: 1}), RATE, T, noise,
                           [(0.5, 0.5)])
    assert noise.slabs == set()


@pytest.mark.parametrize("times", [(0.5, 1.5), (-0.1,)])
def test_pq_family_rejects_snapshot_times_outside_the_run(times):
    with pytest.raises(ConfigError):
        simulate_pq_family(Configuration(1, {0: 1}), RATE, 1.0, HarrisNoise(0),
                           [(0.5, 0.5)], snapshot_times=times)


def test_pq_extremes_follow_single_marginal():
    """The (1,0) member is the totally asymmetric process driven by the same
    atoms as an unlabeled run with the degenerate right-only kernel."""
    eta0 = Configuration(1, {-1: 1, 0: 2})
    noise = HarrisNoise(46, (2,))
    fam = simulate_pq_family(eta0, RATE, 1.0, noise, [(1.0, 0.0)])
    solo = simulate(eta0, RATE, nn_kernel_1d(1.0), OPEN, 1.0, noise)
    occ_fam = {}
    for lab, x in enumerate(fam.positions[(1.0, 0.0)][-1]):
        occ_fam[int(x)] = occ_fam.get(int(x), 0) + 1
    assert occ_fam == snapshots(solo, [fam.snapshot_times[-1]])[0].occ
