"""Undirected simple graphs over string labels.

A graph is frozen once built: edits return new values, so a graph and its
edited variant can be held side by side. Its edges are stored once, as each
vertex's sorted neighbour indices into the sorted labels. Index order is
label order, so every label view (neighbours, edges) is read off those
integers already sorted, which makes every iteration order (and everything
derived from one) deterministic. Labels are checked once, when a graph is
built; an edit keeps its parent's vertex set, so it reuses the parent's
labels and index and checks nothing again.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Iterable, Iterator, Sequence


class _Unreachable:
    """Distance sentinel for vertices in another component.

    Deliberately not an integer: it compares equal only to itself and any
    arithmetic on it raises, so it can never be mistaken for a distance.
    """

    __slots__ = ()

    def __repr__(self) -> str:
        return "UNREACHABLE"


UNREACHABLE = _Unreachable()

Distance = int | _Unreachable


def validate_label(label: object) -> str:
    """Return `label` if it is a usable vertex label, else raise."""
    if not isinstance(label, str) or not label:
        raise ValueError(f"vertex label must be a nonempty string, got {label!r}")
    if label.split() != [label]:
        raise ValueError(f"vertex label may not contain whitespace: {label!r}")
    if label.startswith("#"):
        # the edge-list format reads such a line as a comment
        raise ValueError(f"vertex label may not start with '#': {label!r}")
    return label


class Graph:
    """Immutable undirected simple graph.

    Not a checking constructor: graphs come from `build_graph` (or the
    parser, generators and families built on it) and from the edits.
    Neighbours are held only as vertex indices (positions in `vertices()`);
    the label views are derived from them. `distances(source)` runs its BFS
    over those integers the first time a source is asked for, then caches
    the row. On a dense graph (average degree at least `_DENSE_DEGREE`) the
    BFS runs level by level on neighbour bitmasks, built on the first row.
    Edits build a new graph with an empty cache and no masks, so neither a
    row nor a mask outlives the edges it was measured on.
    """

    __slots__ = ("_index", "_masks", "_nbrs", "_rows", "_verts")

    def __init__(
        self, verts: tuple[str, ...], index: dict[str, int], nbrs: tuple[tuple[int, ...], ...]
    ) -> None:
        """Wrap fields that are already valid, without checking them.

        `verts` are sorted, checked labels and `index` maps each to its
        position; `nbrs` holds each vertex's sorted, symmetric, loop-free
        neighbour indices.
        """
        self._verts = verts
        self._index = index
        self._nbrs = nbrs
        self._rows: dict[str, tuple[Distance, ...]] = {}
        self._masks: list[int] | None = None  # decided on the first row; [] if sparse

    @property
    def vertex_count(self) -> int:
        return len(self._verts)

    @property
    def edge_count(self) -> int:
        return sum(map(len, self._nbrs)) // 2

    def vertices(self) -> tuple[str, ...]:
        return self._verts

    def neighbors(self, vertex: str) -> tuple[str, ...]:
        return tuple(map(self._verts.__getitem__, self._nbrs[self.index_of(vertex)]))

    def degree(self, vertex: str) -> int:
        return len(self._nbrs[self.index_of(vertex)])

    def has_edge(self, u: str, v: str) -> bool:
        i = self.index_of(u)
        return self.index_of(v) in self._nbrs[i]

    def edges(self) -> Iterator[tuple[str, str]]:
        """Edges as (smaller, larger) label pairs, in lexicographic order."""
        verts = self._verts
        for i, neighbors in enumerate(self._nbrs):
            for j in neighbors:
                if i < j:
                    yield (verts[i], verts[j])

    def index_of(self, vertex: str) -> int:
        """Position of `vertex` in `vertices()` and in every distance row."""
        i = self._index.get(vertex)
        if i is None:
            raise ValueError(f"no vertex {vertex!r}")
        return i

    def distances(self, source: str) -> tuple[Distance, ...]:
        """BFS distances from `source`, indexed like `vertices()`.

        Vertices in other components get the UNREACHABLE sentinel. The row
        is computed once per source and cached.
        """
        row = self._rows.get(source)
        if row is None:
            start = self.index_of(source)
            nbrs = self._nbrs
            dist: list[Distance] = [UNREACHABLE] * len(nbrs)
            dist[start] = 0
            masks = self._masks
            if masks is None:
                masks = self._masks = _dense_masks(nbrs)
            if masks:
                # level by level: `reach` is every neighbour of the frontier,
                # and the next frontier is what no earlier level has seen
                seen, reach, d = 1 << start, masks[start], 0
                while new := reach & ~seen:
                    d += 1
                    seen |= new
                    reach = 0
                    while new:  # visit the new frontier lowest bit first
                        low = new & -new
                        y = low.bit_length() - 1
                        dist[y] = d
                        reach |= masks[y]
                        new ^= low
            else:
                queue = [start]
                for x in queue:  # the list grows while it is walked: a FIFO queue
                    dx = dist[x] + 1
                    for y in nbrs[x]:
                        if dist[y] is UNREACHABLE:
                            dist[y] = dx
                            queue.append(y)
            row = self._rows[source] = tuple(dist)
        return row

    def __contains__(self, label: object) -> bool:
        return label in self._index

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self._verts == other._verts and self._nbrs == other._nbrs

    def __repr__(self) -> str:
        return f"Graph({self.vertex_count} vertices, {self.edge_count} edges)"


# Average degree from which rows are computed on neighbour bitmasks: below
# it, a list BFS touches few edges per vertex and beats the bit operations.
_DENSE_DEGREE = 16


def _dense_masks(nbrs: tuple[tuple[int, ...], ...]) -> list[int]:
    """Each vertex's neighbours as a bitmask, or [] if the graph is sparse."""
    if sum(map(len, nbrs)) < _DENSE_DEGREE * len(nbrs):
        return []
    bits = [1 << i for i in range(len(nbrs))]
    return [sum(map(bits.__getitem__, nb)) for nb in nbrs]  # distinct bits: sum is OR


def build_graph(
    edges: Iterable[Sequence[str]], isolated: Iterable[str] = ()
) -> Graph:
    """Build a graph from unordered label pairs (tuples or two-item lists).

    Duplicate pairs collapse into one edge; `isolated` lists vertices that
    appear in no edge. Each distinct label is checked once, after staging;
    a label is hashed only once it is known to be a string.
    """
    staged: defaultdict[str, set[str]] = defaultdict(set)
    for label in isolated:
        if not isinstance(label, str):
            validate_label(label)
        staged[label]  # staged with no neighbours yet
    for u, v in edges:
        if u == v or not isinstance(u, str) or not isinstance(v, str):
            # raise as a check of each label in order would have: a bad
            # label staged so far or in this pair first, else the loop
            for label in (*staged, u, v):
                validate_label(label)
            raise ValueError(f"self-loop at {u!r}")
        staged[u].add(v)
        staged[v].add(u)
    for label in staged:
        validate_label(label)
    verts = tuple(sorted(staged))
    index = {v: i for i, v in enumerate(verts)}
    nbrs = tuple(tuple(sorted(map(index.__getitem__, staged[v]))) for v in verts)
    return Graph(verts, index, nbrs)


def add_edge(graph: Graph, u: str, v: str) -> Graph:
    """Return a new graph with the edge (u, v) added."""
    if u == v:
        raise ValueError(f"self-loop at {u!r}")
    if graph.has_edge(u, v):
        raise ValueError(f"edge {u!r} -- {v!r} already present")
    i, j = graph._index[u], graph._index[v]
    nbrs = list(graph._nbrs)
    nbrs[i] = tuple(sorted(nbrs[i] + (j,)))
    nbrs[j] = tuple(sorted(nbrs[j] + (i,)))
    return Graph(graph._verts, graph._index, tuple(nbrs))


def remove_edge(graph: Graph, u: str, v: str) -> Graph:
    """Return a new graph with the edge (u, v) removed."""
    if u == v:
        raise ValueError(f"self-loop at {u!r}")
    if not graph.has_edge(u, v):
        raise ValueError(f"edge {u!r} -- {v!r} not present")
    i, j = graph._index[u], graph._index[v]
    nbrs = list(graph._nbrs)
    nbrs[i] = tuple(x for x in nbrs[i] if x != j)
    nbrs[j] = tuple(x for x in nbrs[j] if x != i)
    return Graph(graph._verts, graph._index, tuple(nbrs))


def bfs_distances(graph: Graph, source: str) -> dict[str, Distance]:
    """Exact unweighted shortest-path distances from `source`, by label.

    Vertices in other components get the UNREACHABLE sentinel.
    """
    return dict(zip(graph.vertices(), graph.distances(source)))


def is_connected(graph: Graph) -> bool:
    """Whether the graph has one component (empty graph counts as connected)."""
    verts = graph.vertices()
    return not verts or UNREACHABLE not in graph.distances(verts[0])


def max_degree(graph: Graph) -> int:
    return max(map(len, graph._nbrs), default=0)


def parse_edge_list(text: str) -> Graph:
    """Parse the edge-list text format.

    One edge per line as two whitespace-separated labels; a line with a
    single label declares an isolated vertex; lines starting with `#` are
    comments; blank lines are ignored.
    """
    edges: list[list[str]] = []
    singles: list[str] = []
    # one split per line: its first token starts with '#' iff its stripped
    # text does
    for lineno, tokens in enumerate(map(str.split, text.splitlines()), start=1):
        if not tokens or tokens[0][0] == "#":
            continue
        if len(tokens) == 2:
            edges.append(tokens)
        elif len(tokens) == 1:
            singles.append(tokens[0])
        else:
            raise ValueError(f"line {lineno}: expected one or two labels, got {len(tokens)}")
    return build_graph(edges, isolated=singles)


def format_edge_list(graph: Graph) -> str:
    """Serialize to the edge-list format; output is label-sorted and stable."""
    lines = [v for v in graph.vertices() if graph.degree(v) == 0]
    lines.extend(f"{u} {v}" for u, v in graph.edges())
    return "\n".join(lines) + ("\n" if lines else "")


def to_dot(graph: Graph) -> str:
    """Serialize to an undirected DOT graph, vertices and edges sorted."""

    def quote(label: str) -> str:
        return '"' + label.replace("\\", "\\\\").replace('"', '\\"') + '"'

    lines = ["graph {"]
    lines.extend(f"  {quote(v)};" for v in graph.vertices())
    lines.extend(f"  {quote(u)} -- {quote(v)};" for u, v in graph.edges())
    lines.append("}")
    return "\n".join(lines) + "\n"
