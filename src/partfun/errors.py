"""Exception types shared across the package.

Every domain error raised by the library is a subclass of PartfunError, so
callers (and the CLI) can distinguish bad input from genuine bugs.  Each
class carries the exit status the CLI returns for it: 2 for every
InputError (the input is malformed or outside a documented range), 1 for
any other PartfunError (a computation on valid input could not finish or
check out, e.g. the budget ran out).
"""


class PartfunError(Exception):
    """Base of every domain error; the CLI exits 1 unless a subclass says otherwise."""

    exit_code = 1


class InputError(PartfunError):
    """The input is malformed or outside a documented range."""

    exit_code = 2


class BadParameter(InputError):
    """A numeric or structural argument is outside its documented range."""


class DuplicateNode(InputError):
    """Interpolation nodes must be pairwise distinct."""


class BadPartition(InputError):
    """Blocks do not form a partition of the vertex set."""


class LabelMismatch(InputError):
    """Two labeled graphs with different label arities cannot be glued."""


class DimensionMismatch(InputError):
    """Matrix dimension does not match spins, weights or companion objects."""


class PinningConflict(InputError):
    """A configuration does not extend the given pinning."""


class BudgetExceeded(PartfunError):
    """Brute-force enumeration would exceed the configured budget."""


class AsymmetricTensor(InputError):
    """Hypergraph weight tensors must be symmetric under index permutation."""


class ArityMismatch(InputError):
    """Tensor arity differs from the hypergraph's uniformity."""


class NotSymmetric(InputError):
    """The operation is only defined for symmetric matrices."""


class NegativeEntries(InputError):
    """A non-negative matrix was required."""


class ParallelEdges(InputError):
    """The structural 0-1 classifier accepts loops but not parallel edges."""


class NotTractable(PartfunError):
    """The fast evaluator only runs on matrices classified tractable."""


class FactorizationFailure(PartfunError):
    """Internal consistency error: a rank-1 block failed to factor exactly."""


class TooLarge(InputError):
    """Enumeration guard (Bell numbers, labeled-graph bases) was exceeded."""


class RingUnsupported(InputError):
    """The operation does not support this coefficient ring."""


class NotSimple(InputError):
    """Flows are only defined on simple graphs."""


class UnsupportedModulus(InputError):
    """Prime transforms accept integer primes, or X for polynomial matrices."""


class NotPowerMatrix(InputError):
    """Renaming requires every nonzero entry to be a power of X."""


class OracleFailure(PartfunError):
    """An evaluation oracle returned a value outside its contract."""


class DegeneratePoint(PartfunError):
    """No usable evaluation point was found (should be unreachable)."""


class FormatError(InputError):
    """A graph or matrix file could not be parsed."""
