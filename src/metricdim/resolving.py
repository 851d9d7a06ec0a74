"""Metric codes, resolving-set verification, and exact metric dimension.

A landmark set resolves the graph exactly when every unordered vertex pair
is separated by some landmark (a vertex at different distances from the
two), so the exact search is a covering problem over vertex pairs. It runs
on one separator set per pair, in two phases. The first finds the
dimension k: sizes are tried upward from the degree bound, and each
feasibility test branches on the uncovered pair with the fewest separators
left, as in the covering view of Chartrand, Eroh, Johnson and Oellermann.
The second fills the witness one position at a time with the least vertex
whose remainder is still feasible, so the reported witness is always the
lexicographically least minimum resolving set.

`metric_dimension_reference` is the unpruned baseline the exact search is
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
    """Outcome of an exact metric-dimension search.

    `exhaustive` is always True: a search that cannot finish raises
    `BudgetError` instead of returning. It stays because the `dim` JSON
    key of the same name is part of `metric-dim/1`, which perfbench's gate
    reads, and perfbench's tests build this class from its four fields.
    """

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


def _code_classes(graph: Graph, landmarks: Iterable[str]) -> list[int]:
    """Class of every vertex w.r.t. `landmarks`, indexed like `graph.vertices()`.

    Two vertices share a class iff they share a code; a class is named by
    the least index in it. Every landmark is checked first; rows are then
    read in landmark order, each splitting the classes by distance, only
    until every vertex has a class of its own.
    """
    landmarks = tuple(landmarks)
    for w in landmarks:
        graph.index_of(w)
    n = graph.vertex_count
    classes = [0] * n
    for w in landmarks:
        ids: dict[tuple[int, Distance], int] = {}
        classes = list(map(ids.setdefault, zip(classes, graph.distances(w)), range(n)))
        if len(ids) == n:
            break
    return classes


def is_resolving(graph: Graph, landmarks: Iterable[str]) -> bool:
    """Whether all vertices get pairwise distinct codes w.r.t. `landmarks`."""
    return len(set(_code_classes(graph, landmarks))) == graph.vertex_count


def find_unresolved_pair(
    graph: Graph, landmarks: Iterable[str]
) -> tuple[str, str] | None:
    """Lexicographically least vertex pair sharing a code, or None."""
    classes = _code_classes(graph, landmarks)
    # (least index of the class, a later member): vertices are sorted, so
    # the least such pair is the least unresolved label pair
    pair = min(((c, j) for j, c in enumerate(classes) if c != j), default=None)
    verts = graph.vertices()
    return None if pair is None else (verts[pair[0]], verts[pair[1]])


def _pair_separators(
    rows: Sequence[Sequence[int]], tick: Callable[[], None]
) -> list[int]:
    """Separator set of every vertex pair, as a vertex bitmask.

    Pair (i, j), i < j, sits at index offset[i] + j; bit w of its entry is
    set iff vertex w separates i and j. Every pair starts at all vertices and
    each source clears its own bit on the pairs it sees at equal distance, so
    the cost is the number of equal-distance pairs. `tick` is called before
    each row.
    """
    n = len(rows)
    offset = [i * (2 * n - i - 3) // 2 - 1 for i in range(n)]
    seps = [(1 << n) - 1] * (n * (n - 1) // 2)
    for w, row in enumerate(rows):
        tick()
        bit = 1 << w
        levels: list[list[int]] = [[] for _ in range(max(row) + 1)]
        for i, d in enumerate(row):
            levels[d].append(i)
        for group in levels:
            if len(group) < 2:
                continue
            for pos, i in enumerate(group):
                base = offset[i]
                for j in group[pos + 1 :]:
                    seps[base + j] ^= bit
    return seps


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
    bound; the first size k whose pairs can be covered is the dimension.
    The witness is then built position by position from the sorted vertex
    labels, each time taking the least vertex after the previous one from
    which the rest can still be covered by later vertices. `nodes_explored`
    counts the feasibility nodes of both phases. Raises Exceeded when no
    resolving set of size <= max_k exists, and Budget when the node or time
    budget runs out first; the time budget also covers building the
    distance rows and separators.
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
    # Pairs with equal separator sets need covering only once.
    pairs = list(dict.fromkeys(_pair_separators(rows, check_time)))

    nodes = 0

    def feasible(uncovered: list[int], allowed: int, need: int) -> bool:
        """Whether at most `need` vertices of `allowed` separate every pair in `uncovered`.

        Branches on the pair with the fewest allowed separators, one child per
        separator in ascending order; a tried separator is left out of
        `allowed` for its later siblings. The stack holds one frame per open
        node: its pairs, the vertices its children may still use, their
        need, and its untried separators.
        """
        nonlocal nodes
        stack: list[tuple[list[int], int, int, int]] = []
        while True:
            nodes += 1
            if node_budget is not None and nodes > node_budget:
                raise BudgetError(f"node budget {node_budget} exhausted")
            check_time()
            if not uncovered:
                return True
            if need == 1:
                common = allowed
                for mask in uncovered:
                    common &= mask
                    if not common:
                        break
                if common:
                    return True
            elif need > 1:
                counts = [(mask & allowed).bit_count() for mask in uncovered]
                fewest = min(counts)
                if fewest:
                    hardest = uncovered[counts.index(fewest)]
                    stack.append((uncovered, allowed, need - 1, hardest & allowed))
            while stack:
                parent, allowed, need, untried = stack.pop()
                if untried:
                    break
            else:
                return False
            vertex = untried & -untried
            allowed ^= vertex
            stack.append((parent, allowed, need, untried ^ vertex))
            uncovered = [mask for mask in parent if not mask & vertex]

    everyone = (1 << n) - 1
    for k in range(_min_size_from_degree(max_degree(graph)), min(max_k, n) + 1):
        if feasible(pairs, everyone, k):
            break
    else:
        raise ExceededError(f"no resolving set of size <= {max_k}")

    # Fill the witness position by position with the least vertex whose
    # remainder can still be completed from later vertices.
    picked: list[int] = []
    for need in range(k - 1, -1, -1):
        for v in range(picked[-1] + 1 if picked else 0, n):
            vertex = 1 << v
            rest = [mask for mask in pairs if not mask & vertex]
            if feasible(rest, everyone & ~(2 * vertex - 1), need):
                break
        picked.append(v)
        pairs = rest
    return DimensionResult(k, tuple(verts[i] for i in picked), True, nodes)


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
            graph.index_of(v)
    for a, b in combinations(frozen, 2):
        if a & b:
            raise BlockOverlapError(f"blocks share vertices: {sorted(a & b)}")
    if len(reps) != len(frozen):
        raise ValueError("need exactly one representative per block")
    for rep, block in zip(reps, frozen):
        graph.index_of(rep)
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
