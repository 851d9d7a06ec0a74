"""Exception hierarchy for the metricdim package."""


class MetricDimError(Exception):
    """Base class for every error this package raises on purpose."""


# graph construction and editing

class InvalidLabelError(MetricDimError):
    """Vertex label is empty, not a string, contains whitespace or starts with `#`."""


class SelfLoopError(MetricDimError):
    """An edge may not join a vertex to itself."""


class EdgeExistsError(MetricDimError):
    """Attempt to add an edge that is already present."""


class EdgeMissingError(MetricDimError):
    """Attempt to remove an edge that is not present."""


class UnknownVertexError(MetricDimError):
    """A named vertex does not occur in the graph."""


# resolving-set computations

class EmptyLandmarksError(MetricDimError):
    """Metric codes need at least one landmark."""


class DisconnectedError(MetricDimError):
    """Operation requires a connected graph."""


class ExceededError(MetricDimError):
    """No resolving set exists within the requested size limit."""


class BudgetError(MetricDimError):
    """Search stopped by its node or time budget."""


class BlockOverlapError(MetricDimError):
    """Lower-bound blocks must be pairwise disjoint."""


class NotResolvingError(MetricDimError):
    """The supplied witness does not resolve the graph."""


class DisconnectsGraphError(MetricDimError):
    """Removing the edge would disconnect the graph."""


# family generators

class WindowTooSmallError(MetricDimError):
    """Strip truncations need at least two columns."""


class EmptyWitnessError(MetricDimError):
    """The witness set must be nonempty."""


class ConflictingStringsError(MetricDimError):
    """The index strings must be pairwise conflict-free."""


class NotARampError(MetricDimError):
    """The indicated digit of the string is not 2."""


# ternary strings

class LengthMismatchError(MetricDimError):
    """Ternary strings must share one length."""


class EqualStringsError(MetricDimError):
    """Pairwise string operations need distinct strings."""


class TooLargeError(MetricDimError):
    """Instance too large for the exhaustive search."""
