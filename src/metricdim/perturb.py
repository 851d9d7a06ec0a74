"""Transfer of resolving sets across single-edge edits.

`augment_addition` and `augment_removal` enlarge a witness so that it keeps
resolving after one edge is added or removed; `apply_edit_sequence` chains
them. Every distance feeding the addition formula is measured in the graph
BEFORE the edit, and landmark rows are read only until the witness covers
every vertex.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable

from .errors import NotResolvingError
from .graph import Graph, add_edge, is_connected, remove_edge
from .resolving import is_resolving


class EditOp(str, Enum):
    ADD = "add"
    REMOVE = "remove"


@dataclass(frozen=True)
class EditStep:
    """One edit; a `perturb` trace entry starts with these fields."""

    op: EditOp
    u: str
    v: str


EditSequence = Iterable[EditStep]  # a list or any one-shot iterator


def augment_addition(
    graph: Graph, witness: Iterable[str], u: str, v: str
) -> tuple[str, ...]:
    """Extend `witness` so it resolves the graph after adding edge (u, v).

    For every landmark w, every vertex whose distance from w lies in the
    closed interval between d(w, u) and d(w, v) is pulled into the witness;
    all distances come from the pre-edit graph. Rows are read in witness
    order only until the witness covers every vertex. New members are
    appended after the original witness in sorted label order.
    """
    witness = tuple(witness)
    if u == v:
        raise ValueError(f"self-loop at {u!r}")
    if graph.has_edge(u, v):
        raise ValueError(f"edge {u!r} -- {v!r} already present")
    _check_input(graph, witness)
    verts = graph.vertices()
    iu, iv = graph.index_of(u), graph.index_of(v)
    members = set(witness)
    outside = [i for i, x in enumerate(verts) if x not in members]
    left = outside  # outside the witness and not captured yet
    for w in witness:
        if not left:
            break
        row = graph.distances(w)
        lo, hi = sorted((row[iu], row[iv]))
        left = [i for i in left if not lo <= row[i] <= hi]
    missed = set(left)
    return witness + tuple(verts[i] for i in outside if i not in missed)


def augment_removal(
    graph: Graph, witness: Iterable[str], u: str, v: str
) -> tuple[str, ...]:
    """Extend `witness` so it resolves the graph after removing edge (u, v).

    The removed edge's endpoints are appended (in sorted label order) unless
    already present. Removals that disconnect the graph are rejected.
    """
    witness = tuple(witness)
    stays_connected = is_connected(remove_edge(graph, u, v))
    if not stays_connected and is_connected(graph):
        raise ValueError(f"removing {u!r} -- {v!r} disconnects the graph")
    # a graph that stays connected without one of its edges is connected
    _check_input(graph, witness, connected=stays_connected)
    return witness + tuple(sorted({u, v}.difference(witness)))


def _check_input(graph: Graph, witness: tuple[str, ...], connected: bool = False) -> None:
    """Reject an input pair that no transfer starts from; `connected=True`
    skips the connectivity check for a graph already known to be connected.
    A witness that lists a vertex twice is rejected first, reading no row."""
    if len(set(witness)) < len(witness):
        twice = next(w for w in witness if witness.count(w) > 1)
        raise ValueError(f"witness lists {twice!r} twice")
    if not connected and not is_connected(graph):
        raise ValueError("witness transfer requires a connected graph")
    if not is_resolving(graph, witness):
        raise NotResolvingError("witness does not resolve the input graph")


def apply_edit_sequence(
    graph: Graph, witness: Iterable[str], steps: EditSequence
) -> list[tuple[Graph, tuple[str, ...]]]:
    """Chain witness transfers over an edit sequence.

    Returns the trajectory [(G_0, W_0), (G_1, W_1), ...] starting from the
    input pair; step t's witness is built from step t-1's by the matching
    public augmentation, which also checks its input pair. When no step
    runs (an empty list or iterator), the input pair is checked here.
    """
    current_graph = graph
    current_witness = tuple(witness)
    trajectory = [(current_graph, current_witness)]
    for step in steps:
        if step.op is EditOp.ADD:
            current_witness = augment_addition(current_graph, current_witness, step.u, step.v)
            current_graph = add_edge(current_graph, step.u, step.v)
        else:
            current_witness = augment_removal(current_graph, current_witness, step.u, step.v)
            current_graph = remove_edge(current_graph, step.u, step.v)
        trajectory.append((current_graph, current_witness))
    if len(trajectory) == 1:
        _check_input(current_graph, current_witness)
    return trajectory


def parse_edit_sequence(text: str) -> list[EditStep]:
    """Parse edit steps, one per line: `add u v` or `remove u v`.

    Lines starting with `#` and blank lines are ignored.
    """
    steps = []
    for lineno, tokens in enumerate(map(str.split, text.splitlines()), start=1):
        if not tokens or tokens[0][0] == "#":
            continue
        if len(tokens) != 3 or tokens[0].lower() not in ("add", "remove"):
            raise ValueError(f"line {lineno}: expected 'add u v' or 'remove u v'")
        steps.append(EditStep(EditOp(tokens[0].lower()), tokens[1], tokens[2]))
    return steps
