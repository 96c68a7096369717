"""Exception types shared across the package, and the number check the
JSON loaders share.

The CLI maps these to exit codes: ConfigError -> 1, diagnostic failures
(reported, not raised) -> 2, InvariantViolation -> 3. RateRangeError -> 1 as
a config error on 'rate'; mid-run, it leaves the files an exit 3 leaves.
"""
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


def json_number(value, what: str, kind: type = Real):
    """value itself if it is a number of kind (Integral or Real), else a
    ConfigError naming it as what. A JSON true is not a number and a string
    is not converted; numpy numbers are accepted."""
    if isinstance(value, bool) or not isinstance(value, kind):
        want = "an integer" if kind is Integral else "a number"
        raise ConfigError(f"{what} {value!r} is not {want}")
    return value
