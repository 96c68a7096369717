"""Site arithmetic on the integer lattice.

Convention used across the package: in d=1 a site is a plain int, in d>=2 a
site is a d-tuple of ints. JSON/CSV always spell a site as a coordinate list,
e.g. [0] or [1, -2]; the loaders convert back. Keeping ints in d=1 keeps the
event loop's dict and heap operations cheap.

This module alone decides that spelling and the torus labels. Other modules
convert with site_from_coords and site_coords and never branch on the site
type. A torus of side L is labelled -(L // 2) .. L - 1 - L // 2 on every axis,
and wrap() folds a site onto it; the periodic box [-n, n]^d has side 2n + 1.
"""
from __future__ import annotations

from numbers import Integral

from .errors import ConfigError, json_number

Site = int | tuple[int, ...]


def origin(d: int) -> Site:
    return 0 if d == 1 else (0,) * d


def site_coords(x: Site) -> tuple[int, ...]:
    return (x,) if isinstance(x, int) else x


def site_from_coords(coords, d: int) -> Site:
    coords = tuple(int(json_number(c, "site coordinate", Integral)) for c in coords)
    if len(coords) != d:
        raise ConfigError(f"site {list(coords)} has {len(coords)} coordinates, expected d={d}")
    return coords[0] if d == 1 else coords


def site_add(x: Site, z: Site) -> Site:
    if isinstance(x, int):
        return x + z
    return tuple(a + b for a, b in zip(x, z))


def site_sub(x: Site, z: Site) -> Site:
    if isinstance(x, int):
        return x - z
    return tuple(a - b for a, b in zip(x, z))


def max_norm(x: Site) -> int:
    if isinstance(x, int):
        return abs(x)
    return max(abs(a) for a in x)


def in_box(x: Site, n: int) -> bool:
    """Max-norm box [-n, n]^d."""
    return max_norm(x) <= n


def wrap(x: Site, side: int) -> Site:
    """x on the torus of side `side` per axis, each coordinate taken mod side
    onto -(side // 2) .. side - 1 - side // 2; [-n, n]^d for side 2n + 1."""
    h = side // 2
    if isinstance(x, int):
        return (x + h) % side - h
    return tuple((a + h) % side - h for a in x)


def torus_sites(side: int, d: int) -> list[Site]:
    """All sites of the torus of side `side`, in the labels wrap() gives, in
    lexicographic order."""
    axis = range(-(side // 2), side - side // 2)
    if d == 1:
        return list(axis)
    sites = [()]
    for _ in range(d):
        sites = [s + (c,) for s in sites for c in axis]
    return sites


def box_sites(n: int, d: int) -> list[Site]:
    """All sites of [-n, n]^d in lexicographic order."""
    return torus_sites(2 * n + 1, d)


def validate_site(x, d: int) -> Site:
    if d == 1:
        if isinstance(x, bool) or not isinstance(x, int):
            raise ConfigError(f"d=1 sites must be ints, got {x!r}")
        return x
    if not (isinstance(x, tuple) and len(x) == d and all(isinstance(c, int) for c in x)):
        raise ConfigError(f"d={d} sites must be {d}-tuples of ints, got {x!r}")
    return x
