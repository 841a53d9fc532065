"""Exception hierarchy for twinwalk.

Every error raised by the library derives from TwinWalkError so callers can
catch the whole family at once; every rejected input is an InputError, even
when a builtin (json, int, numpy's seeding) rejected it first, and a vertex
out of range is the InputError subclass IndexOutOfRangeError. The classes
are the categories a caller can act on differently; the command line
catches only these and maps them to exit codes: 2 for an InputError
(IndexOutOfRangeError included), 3 for a ConvergenceFailureError and 1 for
a WitnessFailedError.
"""


class TwinWalkError(Exception):
    """Base class for all twinwalk errors."""


class InputError(TwinWalkError, ValueError):
    """An argument or document is rejected: malformed, out of its domain, or
    failing a precondition of the construction it is given to."""


class IndexOutOfRangeError(InputError, IndexError):
    """A vertex index is outside [0, n); also an IndexError."""


class ConvergenceFailureError(TwinWalkError, ArithmeticError):
    """The eigensolver got non-finite input or did not converge."""


class WitnessFailedError(TwinWalkError):
    """An expected transfer witness was not confirmed numerically."""
