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
lexicographically least minimum resolving set. Both phases, and building
the separators, are skipped when the first labels already resolve at the
proven lower bound (see `metric_dimension_exact`).

`metric_dimension_reference` is the unpruned baseline the exact search is
audited against; it shares nothing with the fast path beyond the distance
layer (`Graph.distances`).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Iterable, Sequence

from .errors import BudgetError, ExceededError
from .graph import Distance, Graph, is_connected, max_degree


@dataclass(frozen=True)
class DimensionResult:
    """Outcome of an exact metric-dimension search.

    The `dim` command prints these fields, in this order, as its JSON.
    `exhaustive` is always True: a search that cannot finish raises
    `BudgetError` instead of returning. It stays because the `dim` JSON
    key of the same name is part of `metric-dim/1`, which perfbench's gate
    reads, and perfbench's tests build this class from its four fields.
    `nodes_explored` counts the feasibility nodes of both search phases; a
    result certified by the first-k0 check before any search reports 1.
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
        raise ValueError("need at least one landmark")
    i = graph.index_of(vertex)
    return tuple(graph.distances(w)[i] for w in landmarks)


def _code_classes(
    graph: Graph, landmarks: Iterable[str], apart: bool = True
) -> tuple[list[int], int]:
    """Class of every vertex w.r.t. `landmarks`, and the number of rows read.

    Classes are indexed like `graph.vertices()`. Two vertices share a class
    iff they share a code; a class is named by the least index in it. Every
    landmark is checked first. With `apart`, each landmark starts in a
    class of its own: its own row, the only one holding 0 at its position,
    would set it apart from every other vertex. Rows are then read in
    landmark order, each splitting the classes by distance, only until the
    non-landmarks are pairwise apart. Without `apart`, every vertex starts
    in one class and rows are read until every vertex has its own, so
    `read` is the length of the shortest prefix of `landmarks` that
    resolves, when one does.
    """
    landmarks = tuple(landmarks)
    marks = list(map(graph.index_of, landmarks))
    n = graph.vertex_count
    classes = [0] * n
    if apart:
        for i in marks:
            classes[i] = n + i  # taken by no other vertex; the first row read renames it i
        if classes.count(0) < 2:  # no two non-landmarks to tell apart
            return list(range(n)), 0
    read = 0
    for read, w in enumerate(landmarks, 1):
        ids: dict[tuple[int, Distance], int] = {}
        classes = list(map(ids.setdefault, zip(classes, graph.distances(w)), range(n)))
        if len(ids) == n:
            break
    return classes, read


def is_resolving(graph: Graph, landmarks: Iterable[str]) -> bool:
    """Whether all vertices get pairwise distinct codes w.r.t. `landmarks`.

    A landmark's own row sets it apart, so rows are read only until the
    non-landmarks are pairwise apart.
    """
    return len(set(_code_classes(graph, landmarks)[0])) == graph.vertex_count


def find_unresolved_pair(
    graph: Graph, landmarks: Iterable[str]
) -> tuple[str, str] | None:
    """Lexicographically least vertex pair sharing a code, or None."""
    classes, _ = _code_classes(graph, landmarks)
    # (least index of the class, a later member): vertices are sorted, so
    # the least such pair is the least unresolved label pair
    pair = min(((c, j) for j, c in enumerate(classes) if c != j), default=None)
    verts = graph.vertices()
    return None if pair is None else (verts[pair[0]], verts[pair[1]])


def _pair_separators(graph: Graph, tick: Callable[[], None]) -> list[int]:
    """Distinct separator sets of the vertex pairs, as vertex bitmasks.

    Bit w of a set is set iff vertex w separates the pair. Pairs with equal
    sets need covering only once, so each set is listed once, in the order
    of its first pair (i, j), i < j. `tick` is called before each distance
    row is read. Each source marks itself on the pairs it sees at equal
    distance, so the cost is the number of equal-distance pairs; marking
    the non-separators keeps most entries small, and only the distinct
    marked sets are complemented.
    """
    n = graph.vertex_count
    offset = [i * (2 * n - i - 3) // 2 - 1 for i in range(n)]
    blind = [0] * (n * (n - 1) // 2)  # non-separators of pair (i, j) at offset[i] + j
    for w, source in enumerate(graph.vertices()):
        tick()
        row = graph.distances(source)
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
                    blind[base + j] |= bit
    everyone = (1 << n) - 1
    return [everyone ^ mask for mask in dict.fromkeys(blind)]


def _min_size_from_degree(delta: int) -> int:
    """Smallest k not excluded by the max-degree bound (degree <= 3^k - 1)."""
    k = 1
    while 3**k - 1 < delta:
        k += 1
    return k


def _one_covers(pairs: list[int], taken: int, allowed: int) -> bool:
    """Whether one vertex of `allowed` separates every pair that `taken` does not.

    `pairs` are separator bitmasks and `taken` a vertex bitmask (0: none);
    the AND stops at the first pair that leaves no candidate.
    """
    for mask in pairs:
        if not mask & taken:
            allowed &= mask
            if not allowed:
                return False
    return True


def metric_dimension_exact(
    graph: Graph,
    max_k: int | None = None,
    *,
    node_budget: int | None = None,
    time_budget: float | None = None,
) -> DimensionResult:
    """Exact metric dimension with the lexicographically least minimum witness.

    k0 is a proven lower bound: the least k with max degree <= 3^k - 1
    (Khuller, Raghavachari and Rosenfeld), raised to 2 unless the graph is
    a path, since only paths have dimension 1 (Chartrand, Eroh, Johnson
    and Oellermann). If the first k0 labels resolve the graph they are the
    answer, returned as one node before any separator is built. Otherwise
    sizes are tried in increasing order from k0; the first size k whose
    pairs can be covered is the dimension. The witness is then built
    position by position from the sorted vertex labels, each time taking
    the least vertex after the previous one from which the rest can still
    be covered by later vertices. `nodes_explored` counts the feasibility
    nodes of both phases; the first-k0 check counts none when it fails.
    Raises ExceededError when no resolving set of size <= max_k exists (at
    once when max_k < k0), and BudgetError when the node or time budget
    runs out first; the time budget also covers building the distance
    rows and separators. A NaN time budget raises ValueError; inf sets no
    limit.
    """
    if time_budget is not None and math.isnan(time_budget):
        raise ValueError(f"time budget {time_budget} is not a number")
    deadline = time.monotonic() + time_budget if time_budget is not None else None

    def check_time() -> None:
        if deadline is not None and time.monotonic() > deadline:
            raise BudgetError(f"time budget {time_budget}s exhausted")

    if not is_connected(graph):
        raise ValueError("exact dimension requires a connected graph")
    verts = graph.vertices()
    n = len(verts)
    if n == 0:
        return DimensionResult(0, (), True, 0)
    if max_k is None:
        max_k = max(1, n - 1)
    if max_k < 1:
        raise ValueError("max_k must be at least 1")
    k0 = _min_size_from_degree(max_degree(graph))
    if k0 == 1 and graph.edge_count != n - 1:
        k0 = 2  # connected with degree <= 2 but not a path: a cycle, dimension 2
    if k0 > max_k:
        raise ExceededError(f"no resolving set of size <= {max_k}")
    check_time()
    nodes = 0

    def visit() -> None:
        nonlocal nodes
        nodes += 1
        if node_budget is not None and nodes > node_budget:
            raise BudgetError(f"node budget {node_budget} exhausted")
        check_time()

    # k0 is a lower bound and no k0-set precedes the first k0 labels, so if
    # they resolve they are the lex-least minimum witness: one node. A
    # one-vertex graph (the trivial path, k0 = 1) always ends here.
    if is_resolving(graph, verts[:k0]):
        visit()
        return DimensionResult(k0, verts[:k0], True, nodes)
    pairs = _pair_separators(graph, check_time)

    def feasible(uncovered: list[int], allowed: int, need: int) -> bool:
        """Whether at most `need` vertices of `allowed` separate every pair in `uncovered`.

        Branches on the pair with the fewest allowed separators, one child per
        separator in ascending order; a tried separator is left out of
        `allowed` for its later siblings. The stack holds one frame per open
        node: its pairs, the vertices its children may still use, their
        need, and its untried separators. Children that need one vertex are
        tested in place, against the parent's pairs, without building their
        own pair list; each still counts as a node and checks both budgets.
        """
        stack: list[tuple[list[int], int, int, int]] = []
        while True:
            visit()
            if not uncovered:
                return True
            if need == 1:
                if _one_covers(uncovered, 0, allowed):
                    return True
            elif need > 1:
                counts = [(mask & allowed).bit_count() for mask in uncovered]
                fewest = min(counts)
                if fewest:
                    hardest = uncovered[counts.index(fewest)]
                    stack.append((uncovered, allowed, need - 1, hardest & allowed))
            while stack:
                parent, allowed, need, untried = stack.pop()
                if need == 1:  # test each child in place, building no pair list
                    while untried:
                        vertex = untried & -untried
                        untried ^= vertex
                        allowed ^= vertex
                        visit()
                        if _one_covers(parent, vertex, allowed):
                            return True
                elif untried:
                    break
            else:
                return False
            vertex = untried & -untried
            allowed ^= vertex
            stack.append((parent, allowed, need, untried ^ vertex))
            uncovered = [mask for mask in parent if not mask & vertex]

    everyone = (1 << n) - 1
    for k in range(k0, min(max_k, n) + 1):
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


def metric_dimension_reference(graph: Graph) -> DimensionResult:
    """Unpruned exhaustive baseline: try every subset by size, then lex order.

    Audit oracle for `metric_dimension_exact`; deliberately shares nothing
    with it beyond the distance layer.
    """
    if not is_connected(graph):
        raise ValueError("exact dimension requires a connected graph")
    verts = graph.vertices()
    n = len(verts)
    if n == 0:
        return DimensionResult(0, (), True, 0)
    checked = 0
    for k in range(1, n + 1):
        for combo in combinations(verts, k):
            checked += 1
            if is_resolving(graph, combo):
                return DimensionResult(k, combo, True, checked)
    raise AssertionError("the whole vertex set always resolves")


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
            raise ValueError(f"blocks share vertices: {sorted(a & b)}")
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
