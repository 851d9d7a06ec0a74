import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import connected_graph_from_seed, make_abc_path
from metricdim import perturb
from metricdim.errors import NotResolvingError
from metricdim.families import StripSpec, strip_canonical_set, strip_graph
from metricdim.generators import cycle_graph, path_graph
from metricdim.graph import (
    Graph,
    add_edge,
    bfs_distances,
    build_graph,
    is_connected,
    remove_edge,
)
from metricdim.perturb import (
    EditOp,
    EditStep,
    apply_edit_sequence,
    augment_addition,
    augment_removal,
    parse_edit_sequence,
)
from metricdim.resolving import is_resolving


def _formula_witness(g, witness, u, v):
    # independent re-statement of the addition formula, on the public API
    captured = set()
    for w in witness:
        dist = bfs_distances(g, w)
        interval = range(min(dist[u], dist[v]), max(dist[u], dist[v]) + 1)
        captured.update(x for x in g.vertices() if dist[x] in interval)
    return tuple(witness) + tuple(sorted(captured - set(witness)))


def test_addition_on_path_captures_everything(abc_path):
    bigger = augment_addition(abc_path, ("a",), "a", "c")
    assert bigger == ("a", "b", "c")
    assert is_resolving(add_edge(abc_path, "a", "c"), bigger)


def test_addition_on_cycle_chord():
    g = cycle_graph(6)
    witness = ("c0", "c1")
    assert is_resolving(g, witness)
    bigger = augment_addition(g, witness, "c0", "c3")
    assert bigger == _formula_witness(g, witness, "c0", "c3")
    assert bigger[: len(witness)] == witness  # original order kept
    assert is_resolving(add_edge(g, "c0", "c3"), bigger)


def test_addition_measures_distances_in_unedited_graph():
    # On p0-p1-p2-p3 with witness (p0,), the interval from p0 spans 0..3 and
    # must capture p2; measuring in the edited graph would shrink it to 0..1.
    g = path_graph(4)
    bigger = augment_addition(g, ("p0",), "p0", "p3")
    assert "p2" in bigger
    assert bigger == ("p0", "p1", "p2", "p3")


def test_addition_reads_no_row_once_witness_covers_everything(monkeypatch):
    g = path_graph(8)
    verts = g.vertices()
    sources = []
    distances = Graph.distances

    def counting_distances(graph, source):
        sources.append(source)
        return distances(graph, source)

    monkeypatch.setattr(Graph, "distances", counting_distances)
    assert augment_addition(g, verts, "p0", "p3") == verts
    # p0's row answers both preconditions; the transfer itself reads none
    assert set(sources) == {"p0"}


@given(st.integers(0, 100_000), st.sampled_from(["random", "everything", "saturated"]))
@settings(max_examples=90, deadline=None)
def test_addition_matches_formula(seed, shape):
    rng = random.Random(seed)
    g = connected_graph_from_seed(seed, max_n=10)
    verts = list(g.vertices())
    non_edges = [
        (a, b) for i, a in enumerate(verts) for b in verts[i + 1 :] if not g.has_edge(a, b)
    ]
    if not non_edges:
        return
    u, v = rng.choice(non_edges)
    rest = verts[:]
    rng.shuffle(rest)
    if shape == "everything":
        witness = rest
    else:
        witness = rest[: rng.randint(1, len(rest))]
        if shape == "saturated":
            # every vertex outside the first landmark's interval joins the
            # witness, so that landmark alone captures all the others
            first = witness[0]
            dist = bfs_distances(g, first)
            lo, hi = sorted((dist[u], dist[v]))
            witness = [first] + [x for x in rest if not lo <= dist[x] <= hi and x != first]
        while not is_resolving(g, witness):
            witness.append(next(x for x in rest if x not in witness))
    assert augment_addition(g, witness, u, v) == _formula_witness(g, witness, u, v)


def test_addition_errors(abc_path):
    with pytest.raises(ValueError, match="already present"):
        augment_addition(abc_path, ("a",), "a", "b")
    with pytest.raises(NotResolvingError):
        augment_addition(cycle_graph(4), ("c0",), "c0", "c2")
    with pytest.raises(ValueError, match="witness transfer requires a connected graph"):
        augment_addition(build_graph([("a", "b"), ("c", "d")]), ("a", "c"), "a", "c")
    # the connectivity check comes before any witness label is looked up
    with pytest.raises(ValueError, match="witness transfer requires a connected graph"):
        augment_addition(build_graph([("a", "b"), ("c", "d")]), ("zz",), "a", "c")
    with pytest.raises(ValueError, match="^no vertex 'zz'$"):
        augment_addition(abc_path, ("zz",), "a", "c")


# one rejected call per raise: case id -> (call, its ValueError message)
REJECTED_ARGUMENTS = {
    "addition-self-loop": (
        lambda: augment_addition(make_abc_path(), ("a",), "a", "a"), "self-loop at 'a'"),
}


@pytest.mark.parametrize("case", REJECTED_ARGUMENTS)
def test_rejected_arguments_raise_their_message(case):
    call, message = REJECTED_ARGUMENTS[case]
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


def test_removal_on_cycle():
    c4 = cycle_graph(4)
    bigger = augment_removal(c4, ("c0", "c1"), "c2", "c3")
    assert bigger == ("c0", "c1", "c2", "c3")
    assert is_resolving(remove_edge(c4, "c2", "c3"), bigger)


def test_removal_on_triangle():
    g = cycle_graph(3)
    bigger = augment_removal(g, ("c0", "c1"), "c0", "c2")
    assert bigger == ("c0", "c1", "c2")
    assert is_resolving(remove_edge(g, "c0", "c2"), bigger)


def test_removal_endpoints_already_in_witness():
    g = strip_graph(StripSpec(1, True, 8))
    witness = tuple(w.label for w in strip_canonical_set(1))
    bigger = augment_removal(g, witness, "v0_0", "v0_1")
    assert bigger == witness  # both endpoints already present
    assert is_resolving(remove_edge(g, "v0_0", "v0_1"), bigger)


def test_connected_removal_reads_only_witness_rows_of_input(monkeypatch):
    g = cycle_graph(6)
    witness = ("c1", "c2")
    sources = []
    distances = Graph.distances

    def counting_distances(graph, source):
        if graph is g:
            sources.append(source)
        return distances(graph, source)

    monkeypatch.setattr(Graph, "distances", counting_distances)
    assert augment_removal(g, witness, "c3", "c4") == ("c1", "c2", "c3", "c4")
    # the edited path is connected, so the input's connectivity needs no
    # row of its own: c0 is the first vertex and not a landmark
    assert sources and set(sources) <= set(witness)


def test_removal_errors():
    c4 = cycle_graph(4)
    with pytest.raises(ValueError, match="not present"):
        augment_removal(c4, ("c0", "c1"), "c0", "c2")
    with pytest.raises(ValueError, match="disconnects the graph"):
        augment_removal(path_graph(4), ("p0",), "p1", "p2")
    # a-b lies on a cycle; the input itself is disconnected
    two_parts = build_graph([("a", "b"), ("b", "c"), ("a", "c"), ("d", "e")])
    with pytest.raises(ValueError, match="witness transfer requires a connected graph"):
        augment_removal(two_parts, ("a", "b", "d"), "a", "b")
    with pytest.raises(NotResolvingError):
        augment_removal(cycle_graph(5), ("c0",), "c0", "c1")


@pytest.mark.parametrize("transfer, witness", [
    (lambda g, w: augment_addition(g, w, "c0", "c2"), ("c0", "c1", "c0")),
    (lambda g, w: augment_removal(g, w, "c2", "c3"), ("c1", "c0", "c1")),
    (lambda g, w: apply_edit_sequence(g, w, []), ("c0", "c1", "c1")),
], ids=["addition", "removal", "no-edit"])
def test_transfer_rejects_a_repeated_witness_vertex(monkeypatch, transfer, witness):
    g = cycle_graph(4)
    sources = []
    distances = Graph.distances

    def counting_distances(graph, source):
        if graph is g:
            sources.append(source)
        return distances(graph, source)

    monkeypatch.setattr(Graph, "distances", counting_distances)
    repeated = witness[-1]
    with pytest.raises(ValueError, match=f"^witness lists '{repeated}' twice$"):
        transfer(g, witness)
    assert sources == []  # rejected before any row of the input is read


def test_empty_sequence_returns_input(abc_path):
    assert apply_edit_sequence(abc_path, ("a",), []) == [(abc_path, ("a",))]


def test_add_then_remove_round_trip():
    g = cycle_graph(6)
    steps = [
        EditStep(EditOp.ADD, "c0", "c3"),
        EditStep(EditOp.REMOVE, "c0", "c3"),
    ]
    trajectory = apply_edit_sequence(g, ("c0", "c1"), steps)
    assert len(trajectory) == 3
    final_graph, final_witness = trajectory[-1]
    assert final_graph == g
    assert set(final_witness) >= {"c0", "c1"}
    assert is_resolving(final_graph, final_witness)


def test_sequence_calls_one_public_augmentation_per_step(monkeypatch):
    g = cycle_graph(6)
    steps = [
        EditStep(EditOp.ADD, "c0", "c3"),
        EditStep(EditOp.REMOVE, "c0", "c1"),
        EditStep(EditOp.REMOVE, "c3", "c4"),
    ]
    # the trajectory chained by hand from the single-step functions
    expected = [(g, ("c0", "c1"))]
    for step in steps:
        graph, witness = expected[-1]
        if step.op is EditOp.ADD:
            expected.append((add_edge(graph, step.u, step.v),
                             augment_addition(graph, witness, step.u, step.v)))
        else:
            expected.append((remove_edge(graph, step.u, step.v),
                             augment_removal(graph, witness, step.u, step.v)))
    calls = []

    def counting(name, augment):
        def wrapper(graph, witness, u, v):
            calls.append((name, graph, witness, u, v))
            return augment(graph, witness, u, v)
        return wrapper

    # tracers patch these two names, so every step must go through them
    monkeypatch.setattr(perturb, "augment_addition", counting("add", augment_addition))
    monkeypatch.setattr(perturb, "augment_removal", counting("remove", augment_removal))
    assert apply_edit_sequence(g, ("c0", "c1"), steps) == expected
    assert calls == [
        (step.op.value, graph, witness, step.u, step.v)
        for step, (graph, witness) in zip(steps, expected)
    ]


def test_empty_sequence_checks_its_input(abc_path):
    with pytest.raises(ValueError, match="^no vertex 'zz'$"):
        apply_edit_sequence(abc_path, ("zz",), [])
    with pytest.raises(NotResolvingError, match="^witness does not resolve the input graph$"):
        apply_edit_sequence(abc_path, ("b",), [])  # a and c are both at distance 1
    with pytest.raises(NotResolvingError, match="^witness does not resolve the input graph$"):
        apply_edit_sequence(path_graph(5), ("p2",), iter([]))  # an empty iterator is truthy
    with pytest.raises(ValueError, match="^witness transfer requires a connected graph$"):
        apply_edit_sequence(build_graph([("a", "b"), ("c", "d")]), ("a", "c"), [])


def test_sequence_propagates_errors(abc_path):
    with pytest.raises(ValueError, match="already present"):
        apply_edit_sequence(abc_path, ("a",), [EditStep(EditOp.ADD, "a", "b")])


def test_edit_chain_and_its_checks_compute_pinned_rows(monkeypatch):
    fresh = []  # (edge count, source) of every row computed, not read from a cache
    distances = Graph.distances

    def counting_distances(graph, source):
        if source not in graph._rows:
            fresh.append((graph.edge_count, source))
        return distances(graph, source)

    monkeypatch.setattr(Graph, "distances", counting_distances)
    steps = parse_edit_sequence("add c0 c5\nremove c9 c10\nadd c12 c14\n")
    trajectory = apply_edit_sequence(cycle_graph(16), ("c0", "c1"), steps)
    # the per-step check of the `perturb` command
    assert all(is_resolving(edited, witness) for edited, witness in trajectory[1:])
    assert [len(witness) for _, witness in trajectory] == [2, 11, 13, 16]
    # Each landmark is set apart by its own row, so every check stops once
    # the few non-landmarks are apart, and the per-step checks need no row
    # the transfers have not computed. Reading rows until the landmarks are
    # apart too computes 22 rows here.
    assert len(fresh) == 5, fresh


@given(st.integers(0, 100_000))
@settings(max_examples=60, deadline=None)
def test_random_edits_stay_resolving(seed):
    rng = random.Random(seed)
    g = connected_graph_from_seed(seed, max_n=10)
    witness = list(g.vertices())
    rng.shuffle(witness)
    witness = witness[: rng.randint(1, len(witness))]
    while not is_resolving(g, witness):
        witness.append(next(v for v in g.vertices() if v not in witness))
    steps = []
    current = g
    for _ in range(3):
        verts = current.vertices()
        non_edges = [
            (a, b)
            for i, a in enumerate(verts)
            for b in verts[i + 1 :]
            if not current.has_edge(a, b)
        ]
        removable = [
            e for e in current.edges() if is_connected(remove_edge(current, *e))
        ]
        options = []
        if non_edges:
            options.append(EditOp.ADD)
        if removable:
            options.append(EditOp.REMOVE)
        if not options:
            break
        op = rng.choice(options)
        if op is EditOp.ADD:
            u, v = rng.choice(non_edges)
            current = add_edge(current, u, v)
        else:
            u, v = rng.choice(removable)
            current = remove_edge(current, u, v)
        steps.append(EditStep(op, u, v))
    trajectory = apply_edit_sequence(g, witness, steps)
    for edited, transferred in trajectory:
        assert is_resolving(edited, transferred)


@given(st.integers(0, 100_000))
@settings(max_examples=60, deadline=None)
def test_addition_growth_is_bounded(seed):
    rng = random.Random(seed)
    g = connected_graph_from_seed(seed, max_n=9)
    verts = g.vertices()
    non_edges = [
        (a, b)
        for i, a in enumerate(verts)
        for b in verts[i + 1 :]
        if not g.has_edge(a, b)
    ]
    if not non_edges:
        return
    witness = list(g.vertices())[: rng.randint(1, len(verts))]
    while not is_resolving(g, witness):
        witness.append(next(v for v in verts if v not in witness))
    u, v = rng.choice(non_edges)
    bigger = augment_addition(g, witness, u, v)
    per_landmark = 0
    for w in witness:
        dist = bfs_distances(g, w)
        interval = range(min(dist[u], dist[v]), max(dist[u], dist[v]) + 1)
        per_landmark += sum(1 for x in verts if dist[x] in interval)
    assert len(witness) <= len(bigger) <= len(witness) + per_landmark
    assert len(bigger) <= len(verts)


def test_parse_edit_sequence():
    steps = parse_edit_sequence("# comment\nadd a b\n\nREMOVE b c\n")
    assert steps == [
        EditStep(EditOp.ADD, "a", "b"),
        EditStep(EditOp.REMOVE, "b", "c"),
    ]
    # indented and tab-led comments are skipped whatever their token count
    text = "  # add x y\n\t#remove y z\n \t\nadd\u00a0a b\r\n"
    assert parse_edit_sequence(text) == [EditStep(EditOp.ADD, "a", "b")]
    with pytest.raises(ValueError):
        parse_edit_sequence("toggle a b\n")
    with pytest.raises(ValueError, match=r"^line 3: expected 'add u v' or 'remove u v'$"):
        parse_edit_sequence("add a b\n  # c\nadd a\n")
