"""Undirected simple graphs over string labels.

A graph is frozen once built: edits return new values, so a graph and its
edited variant can be held side by side. Its edges are stored once, as one
neighbour bitmask per vertex over the positions of the sorted labels. Bit
order is label order, so every label view (neighbours, edges) is read off
those bits lowest first already sorted, which makes every iteration order
(and everything derived from one) deterministic. Labels are checked once,
when a graph is built; an edit keeps its parent's vertex set, so it reuses
the parent's labels and index and checks nothing again.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Iterable, Iterator, Sequence

# Distance for vertices in another component: not an integer, equal only to
# itself, and arithmetic or ordering on it raises.
UNREACHABLE = None

Distance = int | None


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
    parser, generators and families built on it) and from the edits. The
    adjacency is one integer per vertex: bit j of `_masks[i]` is set iff the
    vertices at positions i and j of `vertices()` are adjacent; the label
    views are derived from those bits. `distances(source)` runs a
    level-by-level BFS on the masks the first time a source is asked for,
    then caches the row. Edits build a new graph with an empty cache, so no
    row outlives the edges it was measured on.
    """

    __slots__ = ("_index", "_masks", "_rows", "_verts")

    def __init__(self, verts: tuple[str, ...], index: dict[str, int], masks: list[int]) -> None:
        """Wrap fields that are already valid, without checking them.

        `verts` are sorted, checked labels and `index` maps each to its
        position; `masks` holds each vertex's symmetric, loop-free neighbour
        bitmask. The list is never mutated once wrapped.
        """
        self._verts = verts
        self._index = index
        self._masks = masks
        self._rows: dict[str, tuple[Distance, ...]] = {}

    @property
    def vertex_count(self) -> int:
        return len(self._verts)

    @property
    def edge_count(self) -> int:
        return sum(map(int.bit_count, self._masks)) // 2

    def vertices(self) -> tuple[str, ...]:
        return self._verts

    def neighbors(self, vertex: str) -> tuple[str, ...]:
        return tuple(map(self._verts.__getitem__, _bits(self._masks[self.index_of(vertex)])))

    def degree(self, vertex: str) -> int:
        return self._masks[self.index_of(vertex)].bit_count()

    def has_edge(self, u: str, v: str) -> bool:
        i = self.index_of(u)
        return self._masks[i] >> self.index_of(v) & 1 == 1

    def edges(self) -> Iterator[tuple[str, str]]:
        """Edges as (smaller, larger) label pairs, in lexicographic order."""
        verts = self._verts
        for i, mask in enumerate(self._masks):
            for j in _bits(mask >> i << i):  # only the neighbours above i
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
            masks = self._masks
            dist: list[Distance] = [UNREACHABLE] * len(masks)
            dist[start] = 0
            # level by level: `reach` is every neighbour of the frontier,
            # and the next frontier is what no earlier level has seen
            unseen = ((1 << len(masks)) - 1) ^ (1 << start)
            reach, d = masks[start], 0
            while new := reach & unseen:
                d += 1
                unseen ^= new
                reach = 0
                while new:  # highest bit first; order within a level moves no distance
                    y = new.bit_length() - 1
                    dist[y] = d
                    reach |= masks[y]
                    new ^= 1 << y
            row = self._rows[source] = tuple(dist)
        return row

    def __contains__(self, label: object) -> bool:
        return label in self._index

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self._verts == other._verts and self._masks == other._masks

    def __repr__(self) -> str:
        return f"Graph({self.vertex_count} vertices, {self.edge_count} edges)"


def _bits(mask: int) -> list[int]:
    """Positions of the set bits of `mask`, lowest first."""
    found = []
    while mask:  # taken highest first, which needs no negation per bit
        y = mask.bit_length() - 1
        found.append(y)
        mask ^= 1 << y
    found.reverse()
    return found


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
    bits = [1 << i for i in range(len(verts))]
    # distinct bits: their sum is their OR
    masks = [sum(map(bits.__getitem__, map(index.__getitem__, staged[v]))) for v in verts]
    return Graph(verts, index, masks)


def add_edge(graph: Graph, u: str, v: str) -> Graph:
    """Return a new graph with the edge (u, v) added."""
    if u == v:
        raise ValueError(f"self-loop at {u!r}")
    if graph.has_edge(u, v):
        raise ValueError(f"edge {u!r} -- {v!r} already present")
    return _flip(graph, u, v)


def remove_edge(graph: Graph, u: str, v: str) -> Graph:
    """Return a new graph with the edge (u, v) removed."""
    if u == v:
        raise ValueError(f"self-loop at {u!r}")
    if not graph.has_edge(u, v):
        raise ValueError(f"edge {u!r} -- {v!r} not present")
    return _flip(graph, u, v)


def _flip(graph: Graph, u: str, v: str) -> Graph:
    """A new graph on `graph`'s vertices with the pair (u, v) toggled."""
    i, j = graph._index[u], graph._index[v]
    masks = graph._masks.copy()  # the parent's list is never mutated
    masks[i] ^= 1 << j
    masks[j] ^= 1 << i
    return Graph(graph._verts, graph._index, masks)


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
    return max(map(int.bit_count, graph._masks), default=0)


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
