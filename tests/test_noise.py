"""Shared-noise field and rng derivation.

The whole verification programme leans on one property: the atom field is a
pure function of (master seed, path, site, band, slab). Coupled runs at
different truncation levels or drift parameters must read identical atoms, and
raising a rate cap must only reveal new atoms, never disturb old ones.
"""
import math
import random
from bisect import bisect_right

import numpy as np
import pytest
from scipy.stats import chisquare, kstest, poisson

from zrp.errors import RateRangeError
from zrp.noise import (_BATCH_MIN, MAX_BAND, TIME_SLAB, HarrisNoise, _band,
                       _fold, _prefix, _word, band_bounds, bands_for)
from zrp.parallel import TAG_HARRIS, derived_rng, resolve_threads, seed_path


def test_band_layout():
    assert band_bounds(0) == (0.0, 1.0)
    assert band_bounds(1) == (1.0, 2.0)
    assert band_bounds(3) == (4.0, 8.0)
    # ceilings stack: m bands top out at 2^(m-1)
    assert band_bounds(0)[1] == 1.0
    assert band_bounds(3)[1] == 8.0


def test_bands_for_covers_cap():
    assert bands_for(0.0) == 0
    assert bands_for(0.3) == 1
    assert bands_for(1.0) == 1
    assert bands_for(1.5) == 2
    for cap in (0.5, 1.0, 7.0, 9.0, 100.0):
        m = bands_for(cap)
        assert band_bounds(m - 1)[1] >= cap


def test_bands_past_the_budget_are_refused():
    assert bands_for(2.0 ** MAX_BAND) == MAX_BAND + 1
    with pytest.raises(RateRangeError, match="needs noise band 21"):
        bands_for(2.0 ** MAX_BAND * 1.001)
    # g(60) = e^60 would need band 87, a CDF list of about 2^86 floats
    with pytest.raises(RateRangeError, match="noise band 87 is past MAX_BAND"):
        HarrisNoise(0).window(0, 87, 0)


def test_band_intervals_tile_the_halfline():
    tops = [band_bounds(b)[1] for b in range(8)]
    bots = [band_bounds(b)[0] for b in range(8)]
    assert bots[0] == 0.0
    for lo, hi in zip(tops[:-1], bots[1:]):
        assert lo == hi


def test_window_is_deterministic():
    n1 = HarrisNoise(99, (3,))
    n2 = HarrisNoise(99, (3,))
    for key in ((0, 0, 0), (5, 2, 1), (-7, 1, 4)):
        t1, y1, u1 = n1.window(*key)
        t2, y2, u2 = n2.window(*key)
        assert np.array_equal(t1, t2)
        assert np.array_equal(y1, y2)
        assert np.array_equal(u1, u2)


def test_window_fields_in_range():
    n = HarrisNoise(4, ())
    total = 0
    for band in range(3):
        for slab in range(3):
            t, y, u = (np.asarray(v) for v in n.window(0, band, slab))
            total += len(t)
            lo, hi = band_bounds(band)
            assert np.all((t >= slab) & (t < slab + 1))
            # window order is whatever the sampler produced; the engines
            # re-sort through a heap, so no ordering promise here
            assert np.all((y >= lo) & (y < hi))
            assert np.all((u >= 0) & (u < 1))
    assert total > 0


def test_windows_differ_across_keys_and_masters():
    n = HarrisNoise(12)
    a = n.window(0, 0, 0)[0]
    b = n.window(1, 0, 0)[0]
    c = HarrisNoise(13).window(0, 0, 0)[0]
    # equality of whole atom vectors across distinct keys would be a seeding bug
    assert not (len(a) == len(b) and np.array_equal(a, b))
    assert not (len(a) == len(c) and np.array_equal(a, c))


def test_child_paths_are_independent_but_reproducible():
    r1 = HarrisNoise(7, (0,)).window(0, 0, 0)
    r2 = HarrisNoise(7, (1,)).window(0, 0, 0)
    again = HarrisNoise(7, (0,)).window(0, 0, 0)
    assert np.array_equal(r1[0], again[0])
    assert not (len(r1[0]) == len(r2[0]) and np.array_equal(r1[0], r2[0]))


def test_atom_counts_match_band_area():
    # band 2 spans heights [2,4) over one unit of time: mean 2 atoms per window
    n = HarrisNoise(31)
    counts = [len(n.window(x, 2, 0)[0]) for x in range(2000)]
    mean = float(np.mean(counts))
    assert abs(mean - 2.0) < 4 * math.sqrt(2.0 / len(counts))


def test_window_counts_are_poisson_in_band_area():
    n = HarrisNoise(41, (2,))
    for band in range(5):
        lo, hi = band_bounds(band)
        counts = np.array([len(n.window(x, band, 3)[0]) for x in range(4000)])
        pmf = poisson.pmf(np.arange(60), hi - lo)
        # pool the upper tail into the last cell, keeping every cell >= 5
        top = int(np.nonzero(pmf * len(counts) >= 5)[0][-1])
        expected = np.append(pmf[:top], 1.0 - pmf[:top].sum()) * len(counts)
        observed = np.bincount(np.minimum(counts, top), minlength=top + 1)
        assert chisquare(observed, expected).pvalue > 1e-4, band


def test_atom_coordinates_are_uniform():
    n = HarrisNoise(42)
    times, heights, marks = [], [], []
    for x in range(1500):
        for band, slab in ((0, 0), (2, 5), (3, 1)):
            lo, hi = band_bounds(band)
            t, y, u = n.window(x, band, slab)
            times += [v - slab for v in t]
            heights += [(v - lo) / (hi - lo) for v in y]
            marks += u
    for sample in (times, heights, marks):
        assert len(sample) > 10000
        assert kstest(sample, "uniform").pvalue > 1e-4


def _window_stats(noise, site, band, slab):
    t, y, u = noise.window(site, band, slab)
    return len(t), sum(u), sum(t) - slab * len(t)


@pytest.mark.parametrize("neighbour", ["site", "slab", "band", "path"])
def test_neighbouring_windows_are_uncorrelated(neighbour):
    zero, one = HarrisNoise(43, (0,)), HarrisNoise(43, (1,))
    a, b = [], []
    for x in range(3000):
        a.append(_window_stats(zero, x, 2, 4))
        other = {"site": (zero, x + 1, 2, 4),
                 "slab": (zero, x, 2, 5),
                 "band": (zero, x, 3, 4),
                 "path": (one, x, 2, 4)}[neighbour]
        b.append(_window_stats(*other))
    a, b = np.array(a), np.array(b)
    for j in range(a.shape[1]):
        r = np.corrcoef(a[:, j], b[:, j])[0, 1]
        assert abs(r) < 4 / math.sqrt(len(a)), (neighbour, j, r)


def test_window_does_not_depend_on_request_order():
    keys = [(x, band, slab) for x in (-3, 0, 7) for band in range(4)
            for slab in range(3)]
    n1, n2 = HarrisNoise(44, (1,)), HarrisNoise(44, (1,))
    forward = {k: n1.window(*k) for k in keys}
    order = np.random.default_rng(0).permutation(len(keys))
    backward = {keys[i]: n2.window(*keys[i]) for i in order[::-1]}
    assert forward == backward


@pytest.mark.parametrize("site", [0, -3, (4, -7), (0, 0)])
@pytest.mark.parametrize("band,slab", [(0, 0), (3, 2), (5, 999_983)])
def test_window_time_range_filters_the_window(site, band, slab):
    noise = HarrisNoise(50, (1,))
    ts, ys, us = noise.window(site, band, slab)
    atoms = list(zip(ts, ys, us))
    # bounds outside the slab, inside it, and on each atom's time
    cuts = [-math.inf, slab - 0.5, slab, slab + 0.375, slab + 1.0, slab + 2.5,
            math.inf] + ts
    for lo in cuts:
        for hi in cuts:
            got = noise.window(site, band, slab, lo, hi)
            assert list(zip(*got)) == [a for a in atoms if lo < a[0] <= hi]
            assert all(type(v) is list for v in got)
    if ts:  # the lower bound is open, the upper closed
        assert ts[0] not in noise.window(site, band, slab, ts[0], math.inf)[0]
        assert ts[0] in noise.window(site, band, slab, -math.inf, ts[0])[0]


def _reference_window(master, path, site, band, slab, t_lo, t_hi):
    """The module docstring's derivation, one _fold or _word per word."""
    h = 0
    for v in (master, TAG_HARRIS, len(path)) + path:
        limbs = [(v >> s) & (2 ** 64 - 1) for s in range(0, max(v.bit_length(), 1), 64)]
        for w in [len(limbs)] + limbs:
            h = _fold(h, w)
    coords = (site,) if isinstance(site, int) else site
    for c in coords:
        h = _fold(h, 2 * c if c >= 0 else -2 * c - 1)   # zigzag
    h = _fold(h, slab << 16 | band << 8 | len(coords))
    n = bisect_right(_band(band)[0], _word(h, 1))
    lo, hi = band_bounds(band)
    atoms = [(slab * TIME_SLAB + _word(h, 3 * j + 2) * TIME_SLAB,
              lo + (hi - lo) * _word(h, 3 * j + 3), _word(h, 3 * j + 4))
             for j in range(n)]
    return [a for a in atoms if t_lo < a[0] <= t_hi]


def test_window_matches_the_reference_derivation():
    rnd = random.Random(14)
    # more (master, len(path)) prefixes than the memo holds, single-limb and
    # 70-bit masters alike, so prefixes are evicted and folded again
    size = _prefix.cache_info().maxsize
    masters = [0, 7] + [rnd.getrandbits(rnd.choice([40, 70])) for _ in range(size)]
    _prefix.cache_clear()
    prefixes = set()
    for trial in range(600):
        master = rnd.choice(masters)
        path = tuple(rnd.getrandbits(rnd.choice([3, 64, 66]))
                     for _ in range(rnd.randrange(3)))
        prefixes.add((master, len(path)))
        noise = HarrisNoise(master, path)
        coords = [rnd.choice([rnd.randint(-50, 50), rnd.randint(-2 ** 70, 2 ** 70),
                              rnd.choice([2 ** 63, -2 ** 63 - 1, 2 ** 64, -2 ** 64])])
                  for _ in range(rnd.choice([1, 2]))]
        site = coords[0] if len(coords) == 1 else tuple(coords)
        band, slab = rnd.randrange(10), rnd.choice([0, 1, rnd.randrange(2 ** 40)])
        t_lo, t_hi = -math.inf, math.inf
        if trial % 2:
            t_lo, t_hi = sorted(slab + rnd.uniform(-0.2, 1.2) for _ in range(2))
        want = _reference_window(master, path, site, band, slab, t_lo, t_hi)
        got = noise.window(site, band, slab, t_lo, t_hi)
        assert list(zip(*got)) == want, (master, path, site, band, slab)
        # a second request reads the site's folded key from the noise object
        assert noise.window(site, band, slab, t_lo, t_hi) == got
    info = _prefix.cache_info()  # a miss past the distinct prefixes is a re-fold
    assert info.misses > len(prefixes) > size and info.hits > 0


def _time_ranges(atoms, slab):
    """Bounds outside the slab, inside it and on atom times."""
    mid = atoms[len(atoms) // 2][0] if atoms else slab + 0.5
    return [(slab - 1.0, slab + 0.25), (slab + 0.25, slab + 0.75),
            (mid, slab + 3.0), (slab - 2.0, mid), (mid, mid),
            (slab + 1.0, math.inf)]


def _scalar_slab(noise, sites, counts, slab):
    atoms = [(t, x, y, u) for x, m in zip(sites, counts) for b in range(m)
             for t, y, u in zip(*noise.window(x, b, slab))]
    return sorted(atoms)


@pytest.mark.parametrize("d", [1, 2, 3])
# at slab 2^40 times are multiples of 2^-12, so atoms tie in t and the sort
# must fall back to tuple order
@pytest.mark.parametrize("slab", [0, 999_983, 2 ** 40])
@pytest.mark.parametrize("n_sites", [0, 3, 120])
def test_slab_atoms_equal_window(d, slab, n_sites):
    rng = np.random.default_rng(d * 1000 + n_sites)
    coords = {tuple(int(c) for c in rng.integers(-40, 40, d)) for _ in range(n_sites)}
    sites = [c[0] if d == 1 else c for c in sorted(coords)]
    counts = [int(m) for m in rng.integers(0, 14, len(sites))]   # bands 0-12
    # 3 sites stay below the batch cutoff, 120 sites go far above it
    assert (sum(counts) >= _BATCH_MIN) == (n_sites == 120)
    noise = HarrisNoise(48, (d, 2))
    got = noise.slab_atoms(sites, counts, slab, -math.inf, math.inf)
    assert got == _scalar_slab(noise, sites, counts, slab)
    assert all(type(v) is float for a in got for v in (a[0], a[2], a[3]))
    for lo, hi in _time_ranges(got, slab):
        assert noise.slab_atoms(sites, counts, slab, lo, hi) == \
            [a for a in got if lo < a[0] <= hi]


@pytest.mark.parametrize("wide", [-2 ** 63, 2 ** 63 - 1, 2 ** 63, -2 ** 63 - 1, 2 ** 70])
def test_slab_atoms_at_and_past_int64(wide, monkeypatch):
    # coordinates of any width batch, exactly as window() draws them
    sites = [wide] + list(range(_BATCH_MIN))
    noise = HarrisNoise(49)
    batched = []
    slab_batch = HarrisNoise._slab_batch

    def counted_batch(self, sites, *args):
        batched.append(sites[0])
        return slab_batch(self, sites, *args)

    monkeypatch.setattr(HarrisNoise, "_slab_batch", counted_batch)
    got = noise.slab_atoms(sites, [2] * len(sites), 5, -math.inf, math.inf)
    assert batched == [wide]
    assert got == _scalar_slab(noise, sites, [2] * len(sites), 5)
    for lo, hi in _time_ranges(got, 5):
        assert noise.slab_atoms(sites, [2] * len(sites), 5, lo, hi) == \
            [a for a in got if lo < a[0] <= hi]


def test_derived_rng_streams():
    a = derived_rng(10, 1, 2).random(4)
    b = derived_rng(10, 1, 2).random(4)
    c = derived_rng(10, 1, 3).random(4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_seed_path_rejects_junk():
    assert seed_path(1, 2) == (1, 2)
    assert seed_path(np.int64(3)) == (3,)
    with pytest.raises(ValueError):
        seed_path(1.5)
    with pytest.raises(ValueError):
        seed_path(-1)


def test_resolve_threads():
    assert resolve_threads(1) == 1
    assert resolve_threads(4) == 4
    assert resolve_threads() >= 1
