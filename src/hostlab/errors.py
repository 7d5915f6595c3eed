"""Exception hierarchy shared by all hostlab modules.

Exit-code mapping used by the CLI: InputError (and subclasses) -> 2,
ResourceError and its subclasses (PrecisionError, ResolutionError) -> 3, hard
invariant failures -> 1.  A ResourceError's diagnostics go to stderr with it.
"""


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

