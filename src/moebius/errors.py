"""Exception types shared across the package, and the one check of the
integer inputs (counts, orders, indices) at its public entry points."""

from numbers import Integral


class MoebiusError(Exception):
    """Base class for all errors raised by this package."""


class InputError(MoebiusError, ValueError):
    """Invalid argument or malformed input data (CLI exit code 2)."""


class NumericalError(MoebiusError, RuntimeError):
    """An iteration failed to converge or a result is numerically unusable
    (CLI exit code 3)."""


class CapacityError(InputError):
    """A run refused as too large for its caps or basis: arrays past the
    byte cap, a sweep past the work cap, a Mathieu truncation or
    Gauss-Legendre order past its cap, longitudinal energies that overflow,
    or more indices or an expansion than a basis can hold."""


def require_int(name: str, value, least=None, most=None) -> None:
    """``InputError`` unless ``value`` is an integer (a numpy one too, a
    bool not) in [least, most], an end given as None left open."""
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise InputError(f"{name} must be an integer, got {value!r}")
    if most is not None and not least <= value <= most:
        raise InputError(f"{name} must be in [{least}, {most}], got {value}")
    if least is not None and value < least:
        raise InputError(f"{name} must be >= {least}, got {value}")
