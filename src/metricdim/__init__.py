"""Resolving sets, metric dimension, and edge-perturbation tooling."""

from .errors import BudgetError, ExceededError, NotResolvingError
from .families import (
    KiteSpec,
    NonbinarySpec,
    StripSpec,
    StripVertex,
    TailSpec,
    cross_side_distance,
    kite_graph,
    nonbinary_graph,
    nonbinary_page_blocks,
    nonbinary_ramp_midpoints,
    ramp_midpoint_code,
    same_side_distance,
    strip_canonical_set,
    strip_graph,
    strip_unresolved_pair,
    tail_graph,
)
from .graph import (
    UNREACHABLE,
    Distance,
    Graph,
    add_edge,
    bfs_distances,
    build_graph,
    format_edge_list,
    is_connected,
    max_degree,
    parse_edge_list,
    remove_edge,
    to_dot,
)
from .perturb import (
    EditOp,
    EditSequence,
    EditStep,
    apply_edit_sequence,
    augment_addition,
    augment_removal,
    parse_edit_sequence,
)
from .resolving import (
    DimensionResult,
    block_lower_bound_check,
    find_unresolved_pair,
    is_resolving,
    metric_code,
    metric_dimension_exact,
    metric_dimension_reference,
)
from .ternary import (
    canonical_conflict_free,
    is_conflict_free,
    max_conflict_free_bruteforce,
)

__version__ = "0.1.0"
