"""Exception hierarchy shared by all hostlab modules, and `integer`, which reads
an integer input or raises InputError.

Exit-code mapping used by the CLI: InputError (and subclasses) -> 2,
ResourceError and its subclasses (PrecisionError, ResolutionError) -> 3, hard
invariant failures -> 1.  A ResourceError's diagnostics go to stderr with it.
"""

import numbers


class HostlabError(Exception):
    """Base class for all errors raised by this package."""


class InputError(HostlabError):
    """Invalid parameter or configuration value."""


class NullCylinderError(InputError):
    """Conditioning on a cylinder of zero mass (never silently replaced)."""


class ResourceError(HostlabError):
    """A computation would exceed a declared resource budget; carries diagnostics."""

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = dict(diagnostics or {})


class ResolutionError(ResourceError):
    """Discretization level too coarse for the requested radius."""


class PrecisionError(ResourceError):
    """Arithmetic precision exhausted (orbit budget or ambiguous floor)."""


def integer(value, name: str) -> int:
    """value as an int: an int, a numpy int or an integral float.  2.5, nan, inf, True
    or a string is an InputError, never truncated or parsed."""
    if isinstance(value, bool) or not (isinstance(value, numbers.Integral) or isinstance(
            value, numbers.Real) and float(value).is_integer()):
        raise InputError(f"{name} must be an integer, got {value!r}")
    return int(value)
