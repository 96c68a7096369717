"""Event logs and reports pinned by sha256, per (configuration, seed).

These hashes fix the exact events CSV that the Harris engine writes for a few
seeded runs across the open, killed and periodic policies in d=1 and d=2, the
Gillespie sampler's logs for four of those runs, a longer torus run from a
sampled product start (batched slab starts, rises served from their
spare bands and rises hashed past them into band 4, wraps), the two coupled-run drivers,
the sorted particle positions of the (p,q) family at its snapshots, and the
JSON of one small run of the engine cross-check, the moment check, the
occupancy bound under each tail method and the martingale residual of AC6's
capped-occupancy combinations in d=1 and d=2. A refactor of the event loop or of
the diagnostics must leave them unchanged; only a deliberate change of the
noise format or of the jump rule may regenerate them, and it must say so.
"""
import hashlib
import json

import numpy as np
import pytest

from zrp import noise as noise_module
from zrp.configuration import Configuration, events_csv_string
from zrp.diagnostics import engine_agreement_check, martingale_residual
from zrp.engine import (OPEN, killed, periodic, simulate, simulate_gillespie,
                        simulate_pq_family, simulate_truncation_schedule)
from zrp.hitting import exp_moment_check, mbar
from zrp.kernel import nn_kernel_1d, symmetric_nn_kernel
from zrp.localfn import capped_occupancy
from zrp.measures import fugacity_measure, sample_box_config
from zrp.noise import HarrisNoise
from zrp.parallel import TAG_GILLESPIE, TAG_SAMPLE, derived_rng
from zrp.rates import exp_rate, power_rate
from zrp.sites import box_sites


def _sha(trajs) -> str:
    h = hashlib.sha256()
    for traj in trajs:
        h.update(events_csv_string(traj).encode())
    return h.hexdigest()


def _pq_family():
    return simulate_pq_family(Configuration(1, {-1: 1, 0: 2, 2: 1}),
                              power_rate(2), 2.5, HarrisNoise(108, (0,)),
                              [(0.7, 0.3)])


def _single(eta0, rate, kernel, policy, T, master):
    return [simulate(eta0, rate, kernel, policy, T, HarrisNoise(master, (0,)))]


def _gillespie(eta0, rate, kernel, policy, T, seed):
    return [simulate_gillespie(eta0, rate, kernel, policy, T,
                               derived_rng(seed, TAG_GILLESPIE))]


D1_OPEN = (Configuration(1, {-1: 2, 0: 3, 4: 1}), power_rate(2),
           nn_kernel_1d(0.7), OPEN, 3.0)
D1_KILLED = (Configuration(1, {0: 3, 1: 1, -2: 2}), exp_rate(1.0, 0.4),
             nn_kernel_1d(0.5), killed(2), 4.0)
D1_PERIODIC = (Configuration(1, {-2: 1, 0: 2, 2: 1, 3: 2}), power_rate(2),
               nn_kernel_1d(0.5), periodic(3), 5.0)
def _d1_torus_long():
    """A product start at phi=1 on periodic(40), run to T=6."""
    eta0 = sample_box_config(fugacity_measure(power_rate(2), 1.0), 40, 1,
                             derived_rng(109, TAG_SAMPLE))
    return (eta0, power_rate(2), nn_kernel_1d(0.5), periodic(40), 6.0)


D2_PERIODIC = (Configuration(2, {(0, 0): 2, (2, -1): 1, (-2, 2): 2}),
               power_rate(2), symmetric_nn_kernel(2), periodic(2), 3.0)

CASES = {
    "d1-open": lambda: _single(*D1_OPEN, 101),
    "d1-killed": lambda: _single(*D1_KILLED, 102),
    "d1-periodic": lambda: _single(*D1_PERIODIC, 103),
    "d1-torus-long": lambda: _single(*_d1_torus_long(), 109),
    "d2-open": lambda: _single(
        Configuration(2, {(0, 0): 3, (1, 0): 1}), power_rate(2),
        symmetric_nn_kernel(2), OPEN, 2.0, 104),
    "d2-killed": lambda: _single(
        Configuration(2, {(0, 0): 2, (1, -1): 1, (-1, 1): 2}), power_rate(1.5),
        symmetric_nn_kernel(2), killed(1), 3.0, 105),
    "d2-periodic": lambda: _single(*D2_PERIODIC, 106),
    "gillespie-d1-open": lambda: _gillespie(*D1_OPEN, 111),
    "gillespie-d1-killed": lambda: _gillespie(*D1_KILLED, 112),
    "gillespie-d1-periodic": lambda: _gillespie(*D1_PERIODIC, 113),
    "gillespie-d2-periodic": lambda: _gillespie(*D2_PERIODIC, 116),
    "truncation-schedule": lambda: simulate_truncation_schedule(
        Configuration(1, {x: 1 for x in box_sites(4, 1)}), (2, 4), power_rate(2),
        nn_kernel_1d(0.5), 2.0,
        HarrisNoise(107, (0,))).trajectories,
    "pq-family": lambda: list(_pq_family().trajectories.values()),
}

GOLDEN = {
    "d1-killed": "d78a30b2541abd036f84147c171102ca684548f7e871fca8d0afb1379fdc35d2",
    "d1-open": "a5eb22aaae1a047cc3274491893da60acbd2d72400d2c0b892b062340726b455",
    "d1-periodic": "e74dc895a9b7ce8c58b492c1b8b9d33e9f98924573873077cb4e42d24584c7ae",
    "d1-torus-long": "72ef995bd357fcf53619049bbc76dc655fdef58d51ba68987bd5772e95b78398",
    "d2-killed": "df3f2987b36ec95d1be4f2e301a3a969ad058d5f43079d3cfe7bb9b5e1908f13",
    "d2-open": "e63713bb124456c0927af1a059e403a83faa13010c02bfef64dfc85018be9fe5",
    "d2-periodic": "9daaa1eebfab0edc0cced7c799493f5dd401d3952828597f83c13d398172b138",
    "gillespie-d1-killed": "d030a9825a5dee10626c597d8b7da87291272454339b4388c28e7938a75df1bf",
    "gillespie-d1-open": "3b00edda3dd61934b4a39a7e0efa6e5f560eee83a37a9fa0ff96f2b153d87479",
    "gillespie-d1-periodic": "c0e5cfa2572197374483c08b9d40d094aec3096f4adefa88a330efa0216bfcb2",
    "gillespie-d2-periodic": "09779f21e516efa9c3aa0c3d445efe518f88cf16b62583757a992ebf38f4137f",
    "pq-family": "7a11b2a0e1a1d0a8f34ae8cd5656354133880310d3374abe54f2429f17247912",
    "truncation-schedule": "c3b48ed9608eb5489affa2209b7325e94f879f035737328000ce2a15e86dbd8c",
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_event_log_matches_golden(name):
    trajs = CASES[name]()
    assert sum(t.event_count() for t in trajs) > 0
    assert _sha(trajs) == GOLDEN[name]


@pytest.mark.parametrize("cutoff", [1, 10 ** 9])   # every slab start batched, none
@pytest.mark.parametrize("name", sorted(CASES))
def test_event_log_golden_holds_at_any_batch_cutoff(name, cutoff, monkeypatch):
    monkeypatch.setattr(noise_module, "_BATCH_MIN", cutoff)
    assert _sha(CASES[name]()) == GOLDEN[name]


def test_d1_torus_long_covers_batches_rises_and_wraps(monkeypatch):
    """The golden must keep exercising batched slab starts, rises served from
    their spare bands, rises that hash bands past the spare up to band 4, and
    periodic wraps."""
    batched, log = [], []
    band_atoms, slab_batch = HarrisNoise.band_atoms, HarrisNoise._slab_batch

    class Spans(dict):
        def pop(self, site, default=None):
            if site in self:
                log.append(("spare", site, self[site][2]))
            return dict.pop(self, site, default)

    def counted_rise(self, site, b0, b1, *args):
        log.append(("hash", site, b0, b1))
        return band_atoms(self, site, b0, b1, *args)

    def counted_batch(self, sites, counts, *args):
        batched.append(sum(counts))
        log.append(("batch",))
        atoms, (ts, ys, us, spans) = slab_batch(self, sites, counts, *args)
        return atoms, (ts, ys, us, Spans(spans))

    monkeypatch.setattr(HarrisNoise, "band_atoms", counted_rise)
    monkeypatch.setattr(HarrisNoise, "_slab_batch", counted_batch)
    (traj,) = CASES["d1-torus-long"]()
    assert len(batched) == 6 and min(batched) >= 64   # so every hash is a rise
    tops, served, past = {}, 0, 0
    for e in log:
        if e[0] == "batch":
            tops = {}
        elif e[0] == "spare":
            tops[e[1]], served = e[2], served + 1
        else:  # a later rise of a site whose spare is spent starts at its top
            past += tops.get(e[1]) == e[2] < e[3]
    assert served > 100 and past > 10
    assert max(e[3] for e in log if e[0] == "hash") >= 5
    assert any(e[3] == "periodic-wrap" for e in traj.events)


# the (p,q) family's sorted positions, every member's array in member order
POSITION_CASES = {
    "pq-family": _pq_family,
    "drift-family-demo": lambda: simulate_pq_family(
        Configuration(1, {-2: 1, 0: 2, 3: 1}), power_rate(2.0), 2.0,
        HarrisNoise(314, ()), [(0.25, 0.75), (0.5, 0.5), (0.75, 0.25)],
        snapshot_times=(2.0,)),
}

POSITION_GOLDEN = {
    "drift-family-demo": "de3e7ebbd6a4adfe42df0c52de462959bf2354c6067d3fb3d85ac87bb5d27c08",
    "pq-family": "ff55e188bf04b24aa9bc20585ef102d885148b321d18237047691e869bcef4b1",
}


@pytest.mark.parametrize("name", sorted(POSITION_CASES))
def test_pq_positions_match_golden(name):
    res = POSITION_CASES[name]()
    h = hashlib.sha256()
    for pq in res.pq_values:
        h.update(np.ascontiguousarray(res.positions[pq], dtype="<i8").tobytes())
    assert h.hexdigest() == POSITION_GOLDEN[name]


MBAR_ETA = Configuration(1, {0: 1, 2: 1, -3: 2, 40: 1})
# the capped-occupancy combinations of AC6 in d=1 and d=2, 40 replicas
MARTINGALE_D1 = (capped_occupancy(0, 10), Configuration(1, {-1: 2, 0: 1, 1: 2}),
                 power_rate(2), nn_kernel_1d(0.5), OPEN, 1.0, 40, 203)
MARTINGALE_D2 = (capped_occupancy((0, 0), 10),
                 Configuration(2, {(0, 0): 2, (1, 0): 1, (0, -1): 1}),
                 power_rate(2), symmetric_nn_kernel(2), OPEN, 1.0, 40, 204)

REPORTS = {
    "engine-agreement": lambda threads=1: engine_agreement_check(
        Configuration(1, {0: 2, 1: 1}), power_rate(2), nn_kernel_1d(0.7),
        killed(2), 0.75, 60, 201, threads=threads),
    "exp-moment": lambda threads=1: exp_moment_check(
        Configuration(1, {-1: 1, 0: 1, 1: 1}), power_rate(2),
        nn_kernel_1d(0.5), 0, 0.5, 1.0, 40, 202, threads=threads),
    "mbar-exp-sum": lambda: mbar(MBAR_ETA, 0, 1.0, power_rate(2),
                                 nn_kernel_1d(0.5), K=3),
    "mbar-none": lambda: mbar(MBAR_ETA, 0, 1.0, power_rate(2),
                              nn_kernel_1d(0.5), K=MBAR_ETA.total()),
    "martingale-d1-capped": lambda threads=1: martingale_residual(*MARTINGALE_D1,
                                                                 threads=threads),
    "martingale-d2-capped": lambda threads=1: martingale_residual(*MARTINGALE_D2,
                                                                 threads=threads),
}

REPORT_GOLDEN = {
    "engine-agreement": "86c0b1f801599303ddce78f3dc9b3c95b9394ccb8790aa32b8e6a71e612f9c79",
    "exp-moment": "7e9cbea672e43e79db58bc62721f1eb72698504ffaedfd7f8cf0d73689dafb51",
    "mbar-exp-sum": "521194e94c8800424b1d076b18ce750048c99d4f882d51d9e488878783c5dd38",
    "mbar-none": "80ac367dad7d0e42c8bfdc1c0e0747abf0d9abf04bd6baecc509f37ff888df9b",
    "martingale-d1-capped": "3f98d9d9c9e523dc0526fd42cb6e23ab2e7c9aeb8e584b58cc8418cfb919e450",
    "martingale-d2-capped": "9cc5178c732c4853488572112288e8d359fca8f05d5e4a2f5e32c8f3d5d78ac7",
}


def _report_sha256(name, **kwargs):
    blob = json.dumps(REPORTS[name](**kwargs).to_json(), sort_keys=True,
                      allow_nan=False)
    return hashlib.sha256(blob.encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(REPORTS))
def test_report_matches_golden(name):
    assert _report_sha256(name) == REPORT_GOLDEN[name]


@pytest.mark.parametrize("name", ["martingale-d1-capped", "martingale-d2-capped"])
def test_martingale_report_does_not_depend_on_threads(name):
    # in one process the replicas share one Lf table, at 2 and 3 workers
    # each worker has its own copy; the sums must not tell
    for threads in (2, 3):
        assert _report_sha256(name, threads=threads) == REPORT_GOLDEN[name]


# exp-moment's 40 replicas split 14/13/13 at 3 workers
@pytest.mark.parametrize("threads", [2, 3])
@pytest.mark.parametrize("name", ["engine-agreement", "exp-moment"])
def test_report_does_not_depend_on_threads(name, threads):
    assert _report_sha256(name, threads=threads) == REPORT_GOLDEN[name]
