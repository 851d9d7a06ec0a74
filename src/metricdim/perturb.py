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
from typing import Iterable, Sequence

from .errors import (
    DisconnectedError,
    DisconnectsGraphError,
    EdgeExistsError,
    NotResolvingError,
    SelfLoopError,
)
from .graph import Graph, add_edge, is_connected, remove_edge
from .resolving import is_resolving


class EditOp(str, Enum):
    ADD = "add"
    REMOVE = "remove"


@dataclass(frozen=True)
class EditStep:
    op: EditOp
    u: str
    v: str


EditSequence = Sequence[EditStep]


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
        raise SelfLoopError(f"self-loop at {u!r}")
    if graph.has_edge(u, v):
        raise EdgeExistsError(f"edge {u!r} -- {v!r} already present")
    for w in witness:
        graph.index_of(w)
    if not is_connected(graph):
        raise DisconnectedError("witness transfer requires a connected graph")
    if not is_resolving(graph, witness):
        raise NotResolvingError("witness does not resolve the input graph")
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
    return _removal(graph, witness, u, v)[1]


def _removal(
    graph: Graph, witness: Iterable[str], u: str, v: str
) -> tuple[Graph, tuple[str, ...]]:
    """`augment_removal`, also returning the edited graph it builds."""
    witness = tuple(witness)
    edited = remove_edge(graph, u, v)
    if not is_connected(edited):
        if not is_connected(graph):
            raise DisconnectedError("witness transfer requires a connected graph")
        raise DisconnectsGraphError(f"removing {u!r} -- {v!r} disconnects the graph")
    if not is_resolving(graph, witness):
        raise NotResolvingError("witness does not resolve the input graph")
    appended = sorted({u, v}.difference(witness))
    return edited, witness + tuple(appended)


def apply_edit_sequence(
    graph: Graph, witness: Iterable[str], steps: EditSequence
) -> list[tuple[Graph, tuple[str, ...]]]:
    """Chain witness transfers over an edit sequence.

    Returns the trajectory [(G_0, W_0), (G_1, W_1), ...] starting from the
    input pair; step t's witness is built from step t-1's by the matching
    augmentation.
    """
    current_graph = graph
    current_witness = tuple(witness)
    trajectory = [(current_graph, current_witness)]
    for step in steps:
        if step.op is EditOp.ADD:
            current_witness = augment_addition(current_graph, current_witness, step.u, step.v)
            current_graph = add_edge(current_graph, step.u, step.v)
        else:
            current_graph, current_witness = _removal(
                current_graph, current_witness, step.u, step.v
            )
        trajectory.append((current_graph, current_witness))
    return trajectory


def parse_edit_sequence(text: str) -> list[EditStep]:
    """Parse edit steps, one per line: `add u v` or `remove u v`.

    Lines starting with `#` and blank lines are ignored.
    """
    steps = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        if len(tokens) != 3 or tokens[0].lower() not in ("add", "remove"):
            raise ValueError(f"line {lineno}: expected 'add u v' or 'remove u v'")
        steps.append(EditStep(EditOp(tokens[0].lower()), tokens[1], tokens[2]))
    return steps
