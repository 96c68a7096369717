"""Event logs and reports pinned by sha256, per (configuration, seed).

These hashes fix the exact events CSV that the Harris engine writes for a few
seeded runs across the open, killed and periodic policies in d=1 and d=2, plus
the two coupled-run drivers, and the JSON of one small run of the engine
cross-check, the moment and forward-equation checks and the occupancy bound
under each tail method. A refactor of the event loop or of the diagnostics
must leave them unchanged; only a deliberate change of the noise format may
regenerate them, and it must say so.
"""
import hashlib
import json

import pytest

from zrp.configuration import Configuration, events_csv_string
from zrp.diagnostics import engine_agreement_check, forward_equation_check
from zrp.engine import (OPEN, killed, periodic, simulate, simulate_pq_family,
                        simulate_truncation_schedule)
from zrp.hitting import exp_moment_check, mbar
from zrp.kernel import nn_kernel_1d, symmetric_nn_kernel
from zrp.localfn import capped_occupancy
from zrp.noise import HarrisNoise
from zrp.rates import exp_rate, power_rate
from zrp.sites import box_sites


def _sha(trajs) -> str:
    h = hashlib.sha256()
    for traj in trajs:
        h.update(events_csv_string(traj).encode())
    return h.hexdigest()


def _single(eta0, rate, kernel, policy, T, master):
    return [simulate(eta0, rate, kernel, policy, T, HarrisNoise(master, (0,)))]


CASES = {
    "d1-open": lambda: _single(
        Configuration(1, {-1: 2, 0: 3, 4: 1}), power_rate(2), nn_kernel_1d(0.7),
        OPEN, 3.0, 101),
    "d1-killed": lambda: _single(
        Configuration(1, {0: 3, 1: 1, -2: 2}), exp_rate(1.0, 0.4),
        nn_kernel_1d(0.5), killed(2), 4.0, 102),
    "d1-periodic": lambda: _single(
        Configuration(1, {-2: 1, 0: 2, 2: 1, 3: 2}), power_rate(2),
        nn_kernel_1d(0.5), periodic(3), 5.0, 103),
    "d2-open": lambda: _single(
        Configuration(2, {(0, 0): 3, (1, 0): 1}), power_rate(2),
        symmetric_nn_kernel(2), OPEN, 2.0, 104),
    "d2-killed": lambda: _single(
        Configuration(2, {(0, 0): 2, (1, -1): 1, (-1, 1): 2}), power_rate(1.5),
        symmetric_nn_kernel(2), killed(1), 3.0, 105),
    "d2-periodic": lambda: _single(
        Configuration(2, {(0, 0): 2, (2, -1): 1, (-2, 2): 2}), power_rate(2),
        symmetric_nn_kernel(2), periodic(2), 3.0, 106),
    "truncation-schedule": lambda: simulate_truncation_schedule(
        Configuration(1, {x: 1 for x in box_sites(4, 1)}), (2, 4), power_rate(2),
        nn_kernel_1d(0.5), 2.0,
        HarrisNoise(107, (0,))).trajectories,
    "pq-family": lambda: list(simulate_pq_family(
        Configuration(1, {-1: 1, 0: 2, 2: 1}), power_rate(2), 2.5,
        HarrisNoise(108, (0,)), [(0.7, 0.3)]).trajectories.values()),
}

GOLDEN = {
    "d1-killed": "d78a30b2541abd036f84147c171102ca684548f7e871fca8d0afb1379fdc35d2",
    "d1-open": "a5eb22aaae1a047cc3274491893da60acbd2d72400d2c0b892b062340726b455",
    "d1-periodic": "e74dc895a9b7ce8c58b492c1b8b9d33e9f98924573873077cb4e42d24584c7ae",
    "d2-killed": "df3f2987b36ec95d1be4f2e301a3a969ad058d5f43079d3cfe7bb9b5e1908f13",
    "d2-open": "e63713bb124456c0927af1a059e403a83faa13010c02bfef64dfc85018be9fe5",
    "d2-periodic": "9daaa1eebfab0edc0cced7c799493f5dd401d3952828597f83c13d398172b138",
    "pq-family": "d018eec80c53b61f4f6485de842ee27a9af21bf07389ac399ee99ac68838f658",
    "truncation-schedule": "c3b48ed9608eb5489affa2209b7325e94f879f035737328000ce2a15e86dbd8c",
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_event_log_matches_golden(name):
    trajs = CASES[name]()
    assert sum(t.event_count() for t in trajs) > 0
    assert _sha(trajs) == GOLDEN[name]


MBAR_ETA = Configuration(1, {0: 1, 2: 1, -3: 2, 40: 1})

REPORTS = {
    "engine-agreement": lambda: engine_agreement_check(
        Configuration(1, {0: 2, 1: 1}), power_rate(2), nn_kernel_1d(0.7),
        killed(2), 0.75, 60, 201),
    "exp-moment": lambda: exp_moment_check(
        Configuration(1, {-1: 1, 0: 1, 1: 1}), power_rate(2),
        nn_kernel_1d(0.5), 0, 0.5, 1.0, 40, 202),
    "forward-equation": lambda: forward_equation_check(
        capped_occupancy(0, 10), Configuration(1, {-1: 1, 0: 2}),
        power_rate(2), nn_kernel_1d(0.5), OPEN, 1.0, 40, 203),
    "mbar-exp-sum": lambda: mbar(MBAR_ETA, 0, 1.0, power_rate(2),
                                 nn_kernel_1d(0.5), K=3),
    "mbar-doob": lambda: mbar(MBAR_ETA, 0, 1.0, power_rate(2),
                              nn_kernel_1d(0.5), K=3, tail_method="doob",
                              seed=204),
    "mbar-none": lambda: mbar(MBAR_ETA, 0, 1.0, power_rate(2),
                              nn_kernel_1d(0.5), tail_method="none"),
}

REPORT_GOLDEN = {
    "engine-agreement": "86c0b1f801599303ddce78f3dc9b3c95b9394ccb8790aa32b8e6a71e612f9c79",
    "exp-moment": "7e9cbea672e43e79db58bc62721f1eb72698504ffaedfd7f8cf0d73689dafb51",
    "forward-equation": "8dc9cd1ecd9e64f2a50397367cd0ef4ef7363cd1c82b1a1e86d60d118bd39b17",
    "mbar-doob": "f6af21ee169f4ababe18c855ba2edf992d01795ee10413edd9b33940cdf54115",
    "mbar-exp-sum": "521194e94c8800424b1d076b18ce750048c99d4f882d51d9e488878783c5dd38",
    "mbar-none": "80ac367dad7d0e42c8bfdc1c0e0747abf0d9abf04bd6baecc509f37ff888df9b",
}


@pytest.mark.parametrize("name", sorted(REPORTS))
def test_report_matches_golden(name):
    blob = json.dumps(REPORTS[name]().to_json(), sort_keys=True)
    assert hashlib.sha256(blob.encode()).hexdigest() == REPORT_GOLDEN[name]
