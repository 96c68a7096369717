"""Exception types shared across the package, and the number checks the
JSON loaders and the library's entry points share.

The CLI maps these to exit codes: ConfigError -> 1, diagnostic failures
(reported, not raised) -> 2, InvariantViolation -> 3. RateRangeError -> 1 as
a config error on 'rate'; mid-run, it leaves the files an exit 3 leaves.
"""
import math
from numbers import Integral, Real


class ZRPError(Exception):
    pass


class ConfigError(ZRPError, ValueError):
    """Invalid user input: kernel/rate/config/experiment specs."""


class RateRangeError(ZRPError, ValueError):
    """Rate function evaluated outside its representable range."""


class CertificationError(ZRPError, ValueError):
    """A truncation / tail bound could not be certified at the requested tolerance."""


class InvariantViolation(ZRPError, RuntimeError):
    """An internal exactness guarantee failed (replay mismatch, broken coupling order...)."""


class WorkerError(ZRPError, RuntimeError):
    """A replica worker process ended without reporting its results."""


def brief(value) -> str:
    """repr(value), its middle cut out past 80 characters, so that an error
    echoing a spec stays short."""
    text = repr(value)
    return text if len(text) <= 80 else f"{text[:40]} ... {text[-40:]}"


def json_number(value, what: str, kind: type = Real):
    """value as an int (kind Integral) or a float (kind Real), else a
    ConfigError naming it as what. A JSON true is not a number, and neither a
    string nor an integer past float range is taken; numpy numbers are."""
    if isinstance(value, bool) or not isinstance(value, kind):
        want = "an integer" if kind is Integral else "a number"
        raise ConfigError(f"{what} {brief(value)} is not {want}")
    try:
        number = float(value)
    except OverflowError:
        raise ConfigError(f"{what} is past float range") from None
    return int(value) if kind is Integral else number


def json_count(value, what: str, least: int) -> int:
    """value, a whole number >= least, as a plain int: a count or a seed."""
    n = json_number(value, what, Integral)
    if n < least:
        raise ConfigError(f"need {what} >= {least}, got {n}")
    return n


def json_positive(value, what: str) -> float:
    """value, a positive finite number, as a float: a horizon or a parameter."""
    x = json_number(value, what)
    if not 0 < x < math.inf:
        raise ConfigError(f"{what} must be positive and finite, got {value!r}")
    return x


def json_time(value, what: str) -> float:
    """value, a finite number >= 0, as a float: a time."""
    x = json_number(value, what)
    if not 0 <= x < math.inf:
        raise ConfigError(f"need 0 <= {what} < inf, got {what} = {value!r}")
    return x
