"""The exceptions some caller dispatches on by name.

Input the library rejects on purpose (a bad label, a self-loop, a missing
vertex, a disconnected graph, a window too small, ...) raises `ValueError`,
and its message is the line the CLI prints after `error: ` before it exits
with 2. A class lives here only if code outside the raising module tells
it apart from that: the CLI maps `BudgetError` to exit 3 (perfbench also
catches it) and the other two to exit 1.
"""


class BudgetError(Exception):
    """Search stopped by its node or time budget."""


class ExceededError(Exception):
    """No resolving set exists within the requested size limit."""


class NotResolvingError(Exception):
    """The supplied witness does not resolve the graph."""
