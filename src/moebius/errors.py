"""Exception types shared across the package."""


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
