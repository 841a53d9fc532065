"""Exception hierarchy for twinwalk.

Every error raised by the library derives from TwinWalkError so callers can
catch the whole family at once. The classes are the categories a caller can
act on differently; the command line maps them to exit codes (InputError and
IndexOutOfRangeError 2, ConvergenceFailureError 3, WitnessFailedError 1).
"""


class TwinWalkError(Exception):
    """Base class for all twinwalk errors."""


class InputError(TwinWalkError, ValueError):
    """An argument or document is rejected: malformed, out of its domain, or
    failing a precondition of the construction it is given to."""


class IndexOutOfRangeError(TwinWalkError, IndexError):
    """A vertex index is outside [0, n)."""


class ConvergenceFailureError(TwinWalkError, ArithmeticError):
    """The eigensolver got non-finite input or did not converge."""


class WitnessFailedError(TwinWalkError):
    """An expected transfer witness was not confirmed numerically."""


class SizeNotMultipleOfFourWarning(UserWarning):
    """Vertex count is not a multiple of 4; no transfer is guaranteed."""
