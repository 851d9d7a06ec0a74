"""Undirected simple graphs over string labels.

A graph is frozen once built: edits return new values, so a graph and its
edited variant can be held side by side. Adjacency lists are kept sorted,
which makes every iteration order (and everything derived from one)
deterministic. Labels are checked once, when a graph is built; an edit keeps
its parent's vertex set, so it reuses the parent's vertex index and checks
nothing again.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Iterable, Iterator, Mapping

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

    Besides the sorted label adjacency, a graph keeps the same adjacency as
    vertex indices (positions in `vertices()`), and `distances(source)` runs
    its BFS over those integers the first time a source is asked for, then
    caches the row. Edits build a new graph with an empty cache, so a row
    never outlives the edges it was measured on.
    """

    __slots__ = ("_adj", "_edge_count", "_index", "_nbrs", "_rows")

    def __init__(self, adjacency: Mapping[str, Iterable[str]]) -> None:
        staged: dict[str, set[str]] = {}
        for label, neighbors in adjacency.items():
            validate_label(label)
            staged[label] = set(neighbors)
        for v, neighbors in staged.items():
            if v in neighbors:
                raise SelfLoopError(f"self-loop at {v!r}")
            for u in neighbors:
                if u not in staged or v not in staged[u]:
                    raise ValueError(f"asymmetric adjacency between {v!r} and {u!r}")
        self._fill({v: tuple(sorted(staged[v])) for v in sorted(staged)}, None)

    @classmethod
    def _trusted(cls, adj: dict[str, tuple[str, ...]], index: dict[str, int] | None = None) -> Graph:
        """Wrap adjacency that is already valid, without checking it.

        `adj` must be label-sorted, with sorted, symmetric, loop-free lists
        over checked labels. An edit passes its parent's `index`, since the
        vertex set is the same.
        """
        graph = cls.__new__(cls)
        graph._fill(adj, index)
        return graph

    def _fill(self, adj: dict[str, tuple[str, ...]], index: dict[str, int] | None) -> None:
        self._adj = adj
        self._index = index = {v: i for i, v in enumerate(adj)} if index is None else index
        self._nbrs = tuple(tuple(map(index.__getitem__, ns)) for ns in adj.values())
        self._edge_count = sum(map(len, self._nbrs)) // 2
        self._rows: dict[str, tuple[Distance, ...]] = {}

    @property
    def vertex_count(self) -> int:
        return len(self._adj)

    @property
    def edge_count(self) -> int:
        return self._edge_count

    @property
    def adjacency(self) -> Mapping[str, tuple[str, ...]]:
        """Read-only view of the sorted adjacency lists."""
        return MappingProxyType(self._adj)

    def vertices(self) -> tuple[str, ...]:
        return tuple(self._adj)

    def neighbors(self, vertex: str) -> tuple[str, ...]:
        self._require(vertex)
        return self._adj[vertex]

    def degree(self, vertex: str) -> int:
        self._require(vertex)
        return len(self._adj[vertex])

    def has_edge(self, u: str, v: str) -> bool:
        self._require(u)
        self._require(v)
        return v in self._adj[u]

    def edges(self) -> Iterator[tuple[str, str]]:
        """Edges as (smaller, larger) label pairs, in lexicographic order."""
        for v, neighbors in self._adj.items():
            for u in neighbors:
                if v < u:
                    yield (v, u)

    def index_of(self, vertex: str) -> int:
        """Position of `vertex` in `vertices()` and in every distance row."""
        self._require(vertex)
        return self._index[vertex]

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

    def _require(self, vertex: str) -> None:
        if vertex not in self._adj:
            raise UnknownVertexError(f"no vertex {vertex!r}")

    def __contains__(self, label: object) -> bool:
        return label in self._adj

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self._adj == other._adj

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
    return Graph._trusted({v: tuple(sorted(staged[v])) for v in sorted(staged)})


def add_edge(graph: Graph, u: str, v: str) -> Graph:
    """Return a new graph with the edge (u, v) added."""
    if u == v:
        raise SelfLoopError(f"self-loop at {u!r}")
    if graph.has_edge(u, v):
        raise EdgeExistsError(f"edge {u!r} -- {v!r} already present")
    adj = dict(graph._adj)
    adj[u] = tuple(sorted(adj[u] + (v,)))
    adj[v] = tuple(sorted(adj[v] + (u,)))
    return Graph._trusted(adj, graph._index)


def remove_edge(graph: Graph, u: str, v: str) -> Graph:
    """Return a new graph with the edge (u, v) removed."""
    if u == v:
        raise SelfLoopError(f"self-loop at {u!r}")
    if not graph.has_edge(u, v):
        raise EdgeMissingError(f"edge {u!r} -- {v!r} not present")
    adj = dict(graph._adj)
    adj[u] = tuple(x for x in adj[u] if x != v)
    adj[v] = tuple(x for x in adj[v] if x != u)
    return Graph._trusted(adj, graph._index)


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
    if graph.vertex_count == 0:
        return 0
    return max(len(ns) for ns in graph.adjacency.values())


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
