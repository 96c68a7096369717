"""Acceptance gate: the thirteen verification criteria at full budgets.

Each test runs one criterion exactly as `zrp suite acceptance` does (same
per-criterion seed derivation from DEFAULT_SEED) and prints one pass/fail
line.  Run with -s to see the lines as they complete; the README's Tests
section gives their measured time.
Statistical criteria carry acceptance bands sized so a correct build fails
each one well under one time in a hundred, so a red here is either a real
regression or a rare seed fluke: rerun with a different --seed via the CLI
before digging.
"""

import time

from zrp import acceptance
from zrp.acceptance import DEFAULT_SEED


def _check(fn, idx):
    t0 = time.monotonic()
    res = fn(DEFAULT_SEED + 101 * idx, threads=1, smoke=False)
    res.seconds = time.monotonic() - t0
    tag = "PASS" if res.passed else "FAIL"
    print(f"[{tag}] {res.cid}: {res.name} "
          f"(statistic={res.statistic:g}, {res.seconds:.1f}s)", flush=True)
    assert res.passed, (
        f"{res.cid} {res.name}: statistic={res.statistic!r} "
        f"details={res.details!r}")
    return res


def test_ac01_fugacity_identity():
    _check(acceptance.criterion_fugacity_identity, 1)


def test_ac02_poisson_special_case():
    _check(acceptance.criterion_poisson_marginal, 2)


def test_ac03_exact_canonical_balance():
    _check(acceptance.criterion_exact_balance, 3)


def test_ac04_statistical_stationarity():
    _check(acceptance.criterion_statistical_stationarity, 4)


def test_ac05_truncation_monotonicity():
    _check(acceptance.criterion_truncation_monotone, 5)


def test_ac06_martingale_residual():
    _check(acceptance.criterion_martingale, 6)


def test_ac07_engine_cross_validation():
    _check(acceptance.criterion_engine_agreement, 7)


def test_ac08_discrepancy_inequality():
    _check(acceptance.criterion_j_inequality, 8)


def test_ac09_drift_family_sandwich():
    _check(acceptance.criterion_pq_sandwich, 9)


def test_ac10_hitting_curve_closed_form():
    _check(acceptance.criterion_hitting_curve, 10)


def test_ac11_occupancy_moment_bound():
    _check(acceptance.criterion_moment_bound, 11)


def test_ac12_poisson_flux_law():
    _check(acceptance.criterion_poisson_flux, 12)


def test_ac13_seeded_determinism():
    _check(acceptance.criterion_determinism, 13)
