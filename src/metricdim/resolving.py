"""Metric codes, resolving-set verification, and exact metric dimension.

The exact search enumerates candidate landmark sets by increasing size and,
within one size, in lexicographic label order, so the reported witness is
always the least one. A landmark set resolves the graph exactly when every
unordered vertex pair is separated by some landmark, which turns the search
into a covering problem over vertex pairs. Pruning is coverage-based: a
branch dies as soon as a still-unseparated pair has no potential separator
left among the remaining candidates (this subsumes the classic twin-pair
rule: a twin pair is separated only by its own two members).

`metric_dimension_reference` is the unpruned baseline the pruned search is
audited against; it shares nothing with the fast path beyond the distance
layer (`Graph.distances`).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Iterable, Sequence

from .errors import (
    BlockOverlapError,
    BudgetError,
    DisconnectedError,
    EmptyLandmarksError,
    ExceededError,
)
from .graph import Distance, Graph, is_connected, max_degree


@dataclass(frozen=True)
class DimensionResult:
    """Outcome of an exact metric-dimension search."""

    dimension: int
    witness: tuple[str, ...]
    exhaustive: bool
    nodes_explored: int


def metric_code(
    graph: Graph, landmarks: Iterable[str], vertex: str
) -> tuple[Distance, ...]:
    """Distance vector of `vertex` to the ordered `landmarks`."""
    landmarks = tuple(landmarks)
    if not landmarks:
        raise EmptyLandmarksError("need at least one landmark")
    i = graph.index_of(vertex)
    return tuple(graph.distances(w)[i] for w in landmarks)


def _code_table(graph: Graph, landmarks: Iterable[str]) -> list[tuple[Distance, ...]]:
    """Code of every vertex w.r.t. `landmarks`, indexed like `graph.vertices()`."""
    rows = [graph.distances(w) for w in landmarks]
    return list(zip(*rows)) if rows else [()] * graph.vertex_count


def is_resolving(graph: Graph, landmarks: Iterable[str]) -> bool:
    """Whether all vertices get pairwise distinct codes w.r.t. `landmarks`."""
    codes = _code_table(graph, landmarks)
    return len(set(codes)) == len(codes)


def find_unresolved_pair(
    graph: Graph, landmarks: Iterable[str]
) -> tuple[str, str] | None:
    """Lexicographically least vertex pair sharing a code, or None."""
    codes = _code_table(graph, landmarks)
    groups: dict[tuple[Distance, ...], list[str]] = {}
    for v, code in zip(graph.vertices(), codes):  # sorted, so groups stay sorted
        groups.setdefault(code, []).append(v)
    candidates = [(g[0], g[1]) for g in groups.values() if len(g) >= 2]
    return min(candidates) if candidates else None


def _separation_masks(
    rows: Sequence[Sequence[int]], tick: Callable[[], None]
) -> tuple[list[int], int]:
    """Per-vertex bitmask over vertex pairs: bit set iff the vertex separates the pair.

    Pair (i, j), i < j, occupies bit offset[i] + (j - i - 1). A vertex fails
    to separate exactly the pairs it sees at equal distance, so the mask is
    built by grouping the distance row. `tick` is called before each row.
    """
    n = len(rows)
    npairs = n * (n - 1) // 2
    full = (1 << npairs) - 1
    offset = [0] * n
    acc = 0
    for i in range(n):
        offset[i] = acc
        acc += n - i - 1
    masks = []
    for row in rows:
        tick()
        by_distance: dict[int, list[int]] = {}
        for i, d in enumerate(row):
            by_distance.setdefault(d, []).append(i)
        same = 0
        for group in by_distance.values():
            for pos, i in enumerate(group):
                base = offset[i] - i - 1
                for j in group[pos + 1 :]:
                    same |= 1 << (base + j)
        masks.append(full ^ same)
    return masks, full


def _min_size_from_degree(delta: int) -> int:
    """Smallest k not excluded by the max-degree bound (degree <= 3^k - 1)."""
    k = 1
    while 3**k - 1 < delta:
        k += 1
    return k


def metric_dimension_exact(
    graph: Graph,
    max_k: int | None = None,
    *,
    node_budget: int | None = None,
    time_budget: float | None = None,
) -> DimensionResult:
    """Exact metric dimension with the lexicographically least minimum witness.

    Sizes are tried in increasing order starting from the degree lower
    bound; within a size, candidate sets are visited in lexicographic order
    over the sorted vertex labels, and the first resolving set found is
    returned. Raises Exceeded when no resolving set of size <= max_k
    exists, and Budget when the node or time budget runs out first; the
    time budget also covers building the distance rows and separators.
    """
    deadline = time.monotonic() + time_budget if time_budget is not None else None

    def check_time() -> None:
        if deadline is not None and time.monotonic() > deadline:
            raise BudgetError(f"time budget {time_budget}s exhausted")

    if not is_connected(graph):
        raise DisconnectedError("exact dimension requires a connected graph")
    verts = graph.vertices()
    n = len(verts)
    if n == 0:
        return DimensionResult(0, (), True, 0)
    if max_k is None:
        max_k = max(1, n - 1)
    if max_k < 1:
        raise ValueError("max_k must be at least 1")
    if n == 1:
        return DimensionResult(1, verts, True, 0)
    rows = []
    for v in verts:
        check_time()
        rows.append(graph.distances(v))
    masks, full = _separation_masks(rows, check_time)

    suffix_or = [0] * (n + 1)
    for i in range(n - 1, -1, -1):
        suffix_or[i] = suffix_or[i + 1] | masks[i]

    nodes = 0

    def search(start: int, need: int, covered: int) -> list[int] | None:
        nonlocal nodes
        uncovered = full & ~covered
        if need == 0:
            return [] if not uncovered else None
        if uncovered & ~suffix_or[start]:
            return None  # some pair has no separator left
        for v in range(start, n - need + 1):
            nodes += 1
            if node_budget is not None and nodes > node_budget:
                raise BudgetError(f"node budget {node_budget} exhausted")
            if nodes % 4096 == 0:
                check_time()
            rest = search(v + 1, need - 1, covered | masks[v])
            if rest is not None:
                return [v, *rest]
        return None

    for k in range(_min_size_from_degree(max_degree(graph)), min(max_k, n) + 1):
        picked = search(0, k, 0)
        if picked is not None:
            witness = tuple(verts[i] for i in picked)
            return DimensionResult(k, witness, True, nodes)
    raise ExceededError(f"no resolving set of size <= {max_k}")


def metric_dimension_reference(graph: Graph, max_k: int | None = None) -> DimensionResult:
    """Unpruned exhaustive baseline: try every subset by size, then lex order.

    Audit oracle for `metric_dimension_exact`; deliberately shares nothing
    with it beyond the distance layer.
    """
    if not is_connected(graph):
        raise DisconnectedError("exact dimension requires a connected graph")
    verts = graph.vertices()
    n = len(verts)
    if n == 0:
        return DimensionResult(0, (), True, 0)
    if max_k is None:
        max_k = max(1, n - 1)
    checked = 0
    for k in range(1, min(max_k, n) + 1):
        for combo in combinations(verts, k):
            checked += 1
            if is_resolving(graph, combo):
                return DimensionResult(k, combo, True, checked)
    raise ExceededError(f"no resolving set of size <= {max_k}")


def block_lower_bound_check(
    graph: Graph,
    blocks: Sequence[Iterable[str]],
    reps: Sequence[str],
) -> bool:
    """Certify that any resolving set must hit all blocks except at most one.

    True iff for every pair of blocks, no vertex outside their union
    separates the two representatives. A True answer certifies that the
    metric dimension is at least (number of blocks) - 1.
    """
    frozen = [frozenset(b) for b in blocks]
    for block in frozen:
        for v in block:
            graph._require(v)
    for a, b in combinations(frozen, 2):
        if a & b:
            raise BlockOverlapError(f"blocks share vertices: {sorted(a & b)}")
    if len(reps) != len(frozen):
        raise ValueError("need exactly one representative per block")
    for rep, block in zip(reps, frozen):
        graph._require(rep)
        if rep not in block:
            raise ValueError(f"representative {rep!r} not in its block")
    verts = graph.vertices()
    rep_rows = [graph.distances(rep) for rep in reps]
    for i, j in combinations(range(len(frozen)), 2):
        excluded = frozen[i] | frozen[j]
        for x, di, dj in zip(verts, rep_rows[i], rep_rows[j]):
            if di != dj and x not in excluded:
                return False
    return True
