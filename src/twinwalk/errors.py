"""Exception hierarchy for twinwalk.

Every error raised by the library derives from TwinWalkError so callers can
catch the whole family at once. Errors that correspond to bad indices or bad
values additionally subclass the matching builtin.
"""


class TwinWalkError(Exception):
    """Base class for all twinwalk errors."""


class IndexOutOfRangeError(TwinWalkError, IndexError):
    """A vertex index is outside [0, n)."""


class SelfLoopError(TwinWalkError, ValueError):
    """An edge joins a vertex to itself."""


class DuplicateEdgeError(TwinWalkError, ValueError):
    """The same unordered vertex pair appears twice in an edge list."""


class NonPositiveWeightError(TwinWalkError, ValueError):
    """A base-graph edge weight is zero, negative or not finite, or the
    weights are so large that the Laplacian's norm overflows."""


class EqualVerticesError(TwinWalkError, ValueError):
    """Two vertex arguments that must differ are equal."""


class ConvergenceFailureError(TwinWalkError, ArithmeticError):
    """The eigensolver got non-finite input or did not converge."""


class TwinViolationError(TwinWalkError, ValueError):
    """A vertex pair required to be twins is not."""


class AsymmetricSetError(TwinWalkError, ValueError):
    """A circulant connection set is not closed under negation mod n."""


class ContainsZeroError(TwinWalkError, ValueError):
    """A circulant connection set contains 0."""


class NotProperDivisorError(TwinWalkError, ValueError):
    """d does not properly divide n."""


class OddModulusError(TwinWalkError, ValueError):
    """An operation requiring even modulus received an odd one."""


class NotDisjointError(TwinWalkError, ValueError):
    """Vertex pairs that must be pairwise disjoint share a vertex."""


class NotIntegralError(TwinWalkError, ValueError):
    """The graph is not Laplacian integral."""


class PreconditionFailedError(TwinWalkError, ValueError):
    """A named family precondition does not hold."""


class WitnessFailedError(TwinWalkError):
    """An expected transfer witness was not confirmed numerically."""


class ParseError(TwinWalkError, ValueError):
    """Malformed JSON input."""


class SizeNotMultipleOfFourWarning(UserWarning):
    """Vertex count is not a multiple of 4; no transfer is guaranteed."""
