"""Generators for the graph families under study, with their distance oracles.

The two-row strip graphs live on vertices v<column>_<side> (side 0 or 1);
edges join any two vertices at column gap at most i, and the "primed"
variants add cross edges at gap exactly i+1. The infinite families are
represented by finite column windows. `same_side_distance` and
`cross_side_distance` are the closed-form distance oracles for the primed
strips.

The kite family is a hub with m branches, each carrying a twin "diamond"
pair and a long tail, whose far endpoints all meet a second hub; the
returned missing edge joins the two hubs. The page/ramp family indexes
paths ("pages") by conflict-free ternary strings and wires their far ends
to digit hubs via length-1 or length-2 ramps; the returned missing edge
joins the apex c to the page hub w0.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .graph import Graph, build_graph
from .ternary import is_conflict_free, validate_ternary


@dataclass(frozen=True, order=True)
class StripVertex:
    """Vertex v<column>_<side> of a strip graph."""

    column: int
    side: int

    def __post_init__(self) -> None:
        if self.column < 0:
            raise ValueError(f"column must be nonnegative, got {self.column}")
        if self.side not in (0, 1):
            raise ValueError(f"side must be 0 or 1, got {self.side}")

    @property
    def label(self) -> str:
        return f"v{self.column}_{self.side}"


@dataclass(frozen=True)
class StripSpec:
    """Strip family parameters: column gap i, primed variant, window width."""

    i: int
    primed: bool
    n_cols: int

    def __post_init__(self) -> None:
        if self.i < 0:
            raise ValueError(f"i must be nonnegative, got {self.i}")
        if self.n_cols < 2:
            raise ValueError(f"need at least 2 columns, got {self.n_cols}")


def strip_graph(spec: StripSpec) -> Graph:
    """Finite window of the strip family described by `spec`."""

    def lab(column: int, side: int) -> str:
        return StripVertex(column, side).label

    edges: list[tuple[str, str]] = []
    for a in range(spec.n_cols):
        edges.append((lab(a, 0), lab(a, 1)))
        for gap in range(1, spec.i + 1):
            c = a + gap
            if c >= spec.n_cols:
                break
            for b in (0, 1):
                edges.append((lab(a, b), lab(c, b)))
                edges.append((lab(a, b), lab(c, 1 - b)))
        if spec.primed:
            c = a + spec.i + 1
            if c < spec.n_cols:
                edges.append((lab(a, 0), lab(c, 1)))
                edges.append((lab(a, 1), lab(c, 0)))
    return build_graph(edges)


def _strip_oracle(i: int, k: int, bump_parity: int) -> int:
    if i < 1:
        raise ValueError(f"gap parameter i must be positive, got {i}")
    if k < 0:
        raise ValueError(f"column gap must be nonnegative, got {k}")
    q, r = divmod(k, i + 1)
    ceiling = q + (1 if r else 0)
    if r == 0 and q % 2 == bump_parity:
        return ceiling + 1
    return ceiling


def same_side_distance(i: int, k: int) -> int:
    """Distance in the primed strip between same-side vertices k columns apart.

    Equals ceil(k / (i+1)), plus one exactly when k / (i+1) is an odd
    integer.
    """
    return _strip_oracle(i, k, 1)


def cross_side_distance(i: int, k: int) -> int:
    """Distance in the primed strip between opposite-side vertices k columns
    apart: ceil(k / (i+1)), plus one exactly when k / (i+1) is an even
    integer (including k = 0).
    """
    return _strip_oracle(i, k, 0)


def strip_canonical_set(i: int) -> tuple[StripVertex, ...]:
    """The 2i+1 leftmost-wedge landmarks, row 0 columns 0..i then row 1
    columns 0..i-1."""
    if i < 1:
        raise ValueError(f"i must be positive, got {i}")
    row0 = tuple(StripVertex(a, 0) for a in range(i + 1))
    row1 = tuple(StripVertex(a, 1) for a in range(i))
    return row0 + row1


def strip_unresolved_pair(witness: Iterable[StripVertex]) -> tuple[StripVertex, StripVertex]:
    """The column pair that a finite witness cannot split in the unprimed strip.

    In the strip of any gap i >= 1, with k one past the witness's maximum
    column, both vertices of column k sit at distance ceil((k - a) / i) from
    every witness vertex in column a, so (v_k0, v_k1) share their code.
    """
    witness = tuple(witness)
    if not witness:
        raise ValueError("witness must be nonempty")
    k = max(w.column for w in witness) + 1
    return (StripVertex(k, 0), StripVertex(k, 1))


@dataclass(frozen=True)
class KiteSpec:
    """Kite family parameters: branch count m and tail length."""

    branches: int = 5
    tail_len: int = 4

    def __post_init__(self) -> None:
        if self.branches < 2:
            raise ValueError(f"need at least 2 branches, got {self.branches}")
        if self.tail_len < 1:
            raise ValueError(f"tail length must be positive, got {self.tail_len}")


def kite_graph(spec: KiteSpec) -> tuple[Graph, tuple[str, ...], tuple[str, str]]:
    """Kite graph plus its suggested witness and the critical missing edge.

    Branch j hangs off hub u as: head h<j>, a diamond pair d<j>_0 / d<j>_1
    (both adjacent to the head and to merge vertex m<j>), then a tail of
    `tail_len` edges ending in a<j>; every a<j> is adjacent to the second
    hub v. The suggested witness takes one diamond vertex per branch; the
    missing edge is (u, v).
    """
    edges: list[tuple[str, str]] = []
    suggested: list[str] = []
    for j in range(1, spec.branches + 1):
        head, d0, d1, merge = f"h{j}", f"d{j}_0", f"d{j}_1", f"m{j}"
        edges += [("u", head), (head, d0), (head, d1), (d0, merge), (d1, merge)]
        prev = merge
        for s in range(1, spec.tail_len):
            t = f"t{j}_{s}"
            edges.append((prev, t))
            prev = t
        edges.append((prev, f"a{j}"))
        edges.append((f"a{j}", "v"))
        suggested.append(d0)
    return build_graph(edges), tuple(suggested), ("u", "v")


@dataclass(frozen=True)
class NonbinarySpec:
    """Page/ramp family parameters: digit count d and page index strings."""

    d: int
    strings: tuple[str, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "strings", tuple(self.strings))
        if self.d < 1:
            raise ValueError(f"d must be positive, got {self.d}")
        if not self.strings:
            raise ValueError("need at least one page string")


def _page_labels(x: str) -> tuple[str, str, str, str, str]:
    return (f"a_{x}", f"p_{x}_1", f"p_{x}_2", f"p_{x}_3", f"b_{x}")


def nonbinary_graph(spec: NonbinarySpec) -> tuple[Graph, tuple[str, ...], tuple[str, str]]:
    """Page/ramp graph plus its witness (w0..wd) and the missing edge (c, w0).

    Each index string x gets a page: a 4-edge path from a_x to b_x, with a_x
    joined to the page hub w0. For each digit position j (1-based), b_x is
    joined to digit hub wj directly when x(j) = 1, or through a ramp
    midpoint r_x_j when x(j) = 2; x(j) = 0 makes no connection. The apex c
    is adjacent to every digit hub.
    """
    for x in spec.strings:
        validate_ternary(x)
        if len(x) != spec.d:
            raise ValueError(f"string {x!r} does not have length {spec.d}")
    if len(set(spec.strings)) != len(spec.strings):
        raise ValueError("page strings must be distinct")
    if not is_conflict_free(spec.strings):
        raise ValueError("page strings must be pairwise conflict-free")
    edges: list[tuple[str, str]] = []
    for x in spec.strings:
        a, p1, p2, p3, b = _page_labels(x)
        edges += [(a, p1), (p1, p2), (p2, p3), (p3, b), ("w0", a)]
        for j in range(1, spec.d + 1):
            digit = x[j - 1]
            if digit == "1":
                edges.append((b, f"w{j}"))
            elif digit == "2":
                midpoint = f"r_{x}_{j}"
                edges += [(b, midpoint), (midpoint, f"w{j}")]
    for j in range(1, spec.d + 1):
        edges.append(("c", f"w{j}"))
    witness = tuple(f"w{j}" for j in range(spec.d + 1))
    return build_graph(edges), witness, ("c", "w0")


def nonbinary_page_blocks(
    spec: NonbinarySpec,
) -> tuple[list[frozenset[str]], list[str]]:
    """The page vertex sets and their near-end representatives a_x."""
    blocks = [frozenset(_page_labels(x)) for x in spec.strings]
    reps = [_page_labels(x)[0] for x in spec.strings]
    return blocks, reps


def nonbinary_ramp_midpoints(spec: NonbinarySpec) -> list[tuple[str, int, str]]:
    """All ramp midpoints as (label, digit index, page string) triples."""
    out = []
    for x in spec.strings:
        for j in range(1, spec.d + 1):
            if x[j - 1] == "2":
                out.append((f"r_{x}_{j}", j, x))
    return out


def ramp_midpoint_code(i: int, x: str) -> tuple[int, ...]:
    """Predicted distances from the midpoint of page x's ramp at digit i to
    the digit hubs w1..wd, d = len(x): 1 at position i, 2 where x holds 1,
    3 where x holds 0 or 2. Digit positions are 1-based.
    """
    validate_ternary(x)
    d = len(x)
    if not 1 <= i <= d:
        raise ValueError(f"digit index must be in 1..{d}, got {i}")
    if x[i - 1] != "2":
        raise ValueError(f"digit {i} of {x!r} is not 2")
    return tuple(
        1 if j == i else (2 if x[j - 1] == "1" else 3) for j in range(1, d + 1)
    )


@dataclass(frozen=True)
class TailSpec:
    """Pendant-path parameters: base graph, attachment vertex, path length."""

    base: Graph
    attach: str
    length: int

    def __post_init__(self) -> None:
        if self.length < 1:
            raise ValueError(f"tail length must be positive, got {self.length}")


def tail_graph(spec: TailSpec) -> Graph:
    """Base graph with a pendant path of `length` edges hung on `attach`.

    Tail vertices are labeled u1..u<length>; those labels must be fresh.
    """
    if spec.attach not in spec.base:
        raise ValueError(f"no vertex {spec.attach!r} in the base graph")
    tail = [f"u{s}" for s in range(1, spec.length + 1)]
    clash = [t for t in tail if t in spec.base]
    if clash:
        raise ValueError(f"tail labels already used by the base graph: {clash}")
    edges = list(spec.base.edges())
    prev = spec.attach
    for t in tail:
        edges.append((prev, t))
        prev = t
    return build_graph(edges, isolated=spec.base.vertices())
