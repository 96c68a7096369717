"""Site arithmetic on the integer lattice.

Convention used across the package: in d=1 a site is a plain int, in d>=2 a
site is a d-tuple of ints. JSON/CSV always spell a site as a coordinate list,
e.g. [0] or [1, -2]; the loaders convert back. Keeping ints in d=1 keeps the
event loop's dict and heap operations cheap.
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


def fold_into_box(x: Site, n: int) -> Site:
    """Wrap x onto the torus [-n, n]^d, identifying coordinates mod 2n+1."""
    side = 2 * n + 1
    if isinstance(x, int):
        return (x + n) % side - n
    return tuple((a + n) % side - n for a in x)


def box_sites(n: int, d: int) -> list[Site]:
    """All sites of [-n, n]^d in lexicographic order."""
    if d == 1:
        return list(range(-n, n + 1))
    sites = [()]
    for _ in range(d):
        sites = [s + (c,) for s in sites for c in range(-n, n + 1)]
    return sites


def validate_site(x, d: int) -> Site:
    if d == 1:
        if isinstance(x, bool) or not isinstance(x, int):
            raise ConfigError(f"d=1 sites must be ints, got {x!r}")
        return x
    if not (isinstance(x, tuple) and len(x) == d and all(isinstance(c, int) for c in x)):
        raise ConfigError(f"d={d} sites must be {d}-tuples of ints, got {x!r}")
    return x
