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

from typing import Iterable, Iterator

from .errors import (
    EdgeExistsError,
    EdgeMissingError,
    InvalidLabelError,
    SelfLoopError,
    UnknownVertexError,
)


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
        raise InvalidLabelError(f"vertex label must be a nonempty string, got {label!r}")
    if any(ch.isspace() for ch in label):
        raise InvalidLabelError(f"vertex label may not contain whitespace: {label!r}")
    if label.startswith("#"):
        # the edge-list format reads such a line as a comment
        raise InvalidLabelError(f"vertex label may not start with '#': {label!r}")
    return label


class Graph:
    """Immutable undirected simple graph.

    Not a checking constructor: graphs come from `build_graph` (or the
    parser, generators and families built on it) and from the edits.
    Neighbours are held only as vertex indices (positions in `vertices()`);
    the label views are derived from them. `distances(source)` runs its BFS
    over those integers the first time a source is asked for, then caches
    the row. Edits build a new graph with an empty cache, so a row never
    outlives the edges it was measured on.
    """

    __slots__ = ("_index", "_nbrs", "_rows", "_verts")

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
            raise UnknownVertexError(f"no vertex {vertex!r}")
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


def build_graph(
    edges: Iterable[tuple[str, str]], isolated: Iterable[str] = ()
) -> Graph:
    """Build a graph from unordered label pairs.

    Duplicate pairs collapse into one edge; `isolated` lists vertices that
    appear in no edge. Each distinct label is checked once, after staging;
    a label is hashed only once it is known to be a string.
    """
    staged: dict[str, set[str]] = {}
    for label in isolated:
        if not isinstance(label, str):
            validate_label(label)
        staged.setdefault(label, set())
    for u, v in edges:
        if u == v or not isinstance(u, str) or not isinstance(v, str):
            # raise as a check of each label in order would have: a bad
            # label staged so far or in this pair first, else the loop
            for label in (*staged, u, v):
                validate_label(label)
            raise SelfLoopError(f"self-loop at {u!r}")
        staged.setdefault(u, set()).add(v)
        staged.setdefault(v, set()).add(u)
    for label in staged:
        validate_label(label)
    verts = tuple(sorted(staged))
    index = {v: i for i, v in enumerate(verts)}
    nbrs = tuple(tuple(sorted(map(index.__getitem__, staged[v]))) for v in verts)
    return Graph(verts, index, nbrs)


def add_edge(graph: Graph, u: str, v: str) -> Graph:
    """Return a new graph with the edge (u, v) added."""
    if u == v:
        raise SelfLoopError(f"self-loop at {u!r}")
    if graph.has_edge(u, v):
        raise EdgeExistsError(f"edge {u!r} -- {v!r} already present")
    i, j = graph._index[u], graph._index[v]
    nbrs = list(graph._nbrs)
    nbrs[i] = tuple(sorted(nbrs[i] + (j,)))
    nbrs[j] = tuple(sorted(nbrs[j] + (i,)))
    return Graph(graph._verts, graph._index, tuple(nbrs))


def remove_edge(graph: Graph, u: str, v: str) -> Graph:
    """Return a new graph with the edge (u, v) removed."""
    if u == v:
        raise SelfLoopError(f"self-loop at {u!r}")
    if not graph.has_edge(u, v):
        raise EdgeMissingError(f"edge {u!r} -- {v!r} not present")
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
    edges: list[tuple[str, str]] = []
    singles: list[str] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        if len(tokens) == 1:
            singles.append(tokens[0])
        elif len(tokens) == 2:
            edges.append((tokens[0], tokens[1]))
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
