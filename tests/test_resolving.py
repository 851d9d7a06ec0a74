import random
import re
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import connected_graph_from_seed, make_abc_path, stack_depth
from metricdim.errors import BudgetError, ExceededError
from metricdim.families import (
    KiteSpec,
    NonbinarySpec,
    StripSpec,
    kite_graph,
    nonbinary_graph,
    strip_canonical_set,
    strip_graph,
)
from metricdim.generators import (
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    ladder_graph,
    path_graph,
    random_connected_graph,
)
from metricdim.graph import Graph, add_edge, bfs_distances, build_graph
from metricdim.resolving import (
    DimensionResult,
    block_lower_bound_check,
    find_unresolved_pair,
    is_resolving,
    metric_code,
    metric_dimension_exact,
    metric_dimension_reference,
)
from metricdim.ternary import canonical_conflict_free


def test_metric_code_on_path(abc_path):
    assert metric_code(abc_path, ["a"], "c") == (2,)


def test_metric_code_on_primed_strip():
    g = strip_graph(StripSpec(1, True, 10))
    witness = [w.label for w in strip_canonical_set(1)]
    assert metric_code(g, witness, "v0_0") == (0, 1, 1)


def test_metric_code_errors(abc_path):
    with pytest.raises(ValueError, match="need at least one landmark"):
        metric_code(abc_path, [], "a")
    with pytest.raises(ValueError, match="no vertex 'z'"):
        metric_code(abc_path, ["z"], "a")


def test_ladder_pair_resolves():
    g = ladder_graph(10)
    assert is_resolving(g, ["v0_0", "v0_1"])


def test_unprimed_strip_prefix_witness_fails():
    g = strip_graph(StripSpec(1, False, 10))
    witness = [f"v{a}_{b}" for a in range(4) for b in (0, 1)]
    assert not is_resolving(g, witness)
    pair = find_unresolved_pair(g, witness)
    assert pair == ("v4_0", "v4_1")


def test_full_vertex_set_resolves(abc_path):
    assert is_resolving(abc_path, abc_path.vertices())
    assert find_unresolved_pair(abc_path, abc_path.vertices()) is None


def test_unknown_landmark_after_resolving_prefix_raises():
    # p0 alone resolves the path; the later landmark must still be checked
    g = path_graph(5)
    with pytest.raises(ValueError, match="no vertex 'zz'"):
        is_resolving(g, ["p0", "zz"])
    with pytest.raises(ValueError, match="no vertex 'zz'"):
        find_unresolved_pair(g, ["p0", "zz"])


@pytest.fixture
def row_sources(monkeypatch):
    """The sources of every `Graph.distances` call made during the test, in order."""
    sources = []
    distances = Graph.distances

    def counting_distances(graph, source):
        sources.append(source)
        return distances(graph, source)

    monkeypatch.setattr(Graph, "distances", counting_distances)
    return sources


def test_check_stops_reading_rows_once_resolved(row_sources):
    assert is_resolving(path_graph(50), ["p0", "p10", "p20"])
    assert row_sources == ["p0"]


def test_resolving_with_unreachable_codes():
    g = build_graph([("a", "b"), ("c", "d")])
    assert not is_resolving(g, ["a"])  # c and d both unreachable from a
    assert is_resolving(g, ["a", "c"])


def test_exact_path_dimension_one():
    result = metric_dimension_exact(path_graph(7))
    assert result.dimension == 1
    assert result.witness == ("p0",)  # least endpoint
    assert result.exhaustive


def test_exact_degenerate_graphs():
    single = path_graph(1)
    # the trivial path is a first-k0 hit like any other: one node
    assert metric_dimension_exact(single) == DimensionResult(1, ("p0",), True, 1)
    with pytest.raises(BudgetError):
        metric_dimension_exact(single, node_budget=0)
    assert metric_dimension_reference(single).witness == ("p0",)
    empty = build_graph([])
    assert metric_dimension_exact(empty) == DimensionResult(0, (), True, 0)
    assert metric_dimension_reference(empty) == DimensionResult(0, (), True, 0)


def test_exact_small_goldens():
    # frozen from the unpruned search, re-derived here
    for graph, expected in ((complete_graph(4), 3), (cycle_graph(5), 2)):
        assert metric_dimension_reference(graph).dimension == expected
        assert metric_dimension_exact(graph).dimension == expected


def test_exact_petersen():
    outer = [(f"o{i}", f"o{(i + 1) % 5}") for i in range(5)]
    inner = [(f"i{i}", f"i{(i + 2) % 5}") for i in range(5)]
    spokes = [(f"o{i}", f"i{i}") for i in range(5)]
    assert metric_dimension_exact(build_graph(outer + inner + spokes)).dimension == 3


def test_exact_matches_reference_witness():
    # K6, the stars K1,6 and K2,5, K3,3 and C9 are twin-heavy or symmetric shapes
    for graph in (
        complete_graph(4),
        cycle_graph(6),
        path_graph(5),
        ladder_graph(4),
        complete_graph(6),
        complete_bipartite_graph(1, 6),
        complete_bipartite_graph(2, 5),
        complete_bipartite_graph(3, 3),
        cycle_graph(9),
        random_connected_graph(random.Random(12), 12, 0.3),
        random_connected_graph(random.Random(13), 12, 0.3),
    ):
        fast = metric_dimension_exact(graph)
        slow = metric_dimension_reference(graph)
        assert (fast.dimension, fast.witness) == (slow.dimension, slow.witness)


def test_exact_errors():
    two_parts = build_graph([("a", "b"), ("c", "d")])
    with pytest.raises(ValueError, match="exact dimension requires a connected graph"):
        metric_dimension_exact(two_parts)
    with pytest.raises(ExceededError):
        metric_dimension_exact(cycle_graph(5), max_k=1)
    # K6 has k0 = 2 and dimension 5: sizes 2..4 are searched before the error
    with pytest.raises(ExceededError, match=r"^no resolving set of size <= 4$"):
        metric_dimension_exact(complete_graph(6), max_k=4)
    with pytest.raises(BudgetError):
        metric_dimension_exact(complete_graph(6), node_budget=1)
    with pytest.raises(BudgetError):  # raised at the first search node
        metric_dimension_exact(ladder_graph(5), node_budget=0)
    with pytest.raises(BudgetError):  # the budget covers building rows and separators
        metric_dimension_exact(path_graph(300), time_budget=0.0)


# one rejected call per raise: case id -> (call, its ValueError message)
REJECTED_ARGUMENTS = {
    "exact-max-k-0": (
        lambda: metric_dimension_exact(make_abc_path(), max_k=0), "max_k must be at least 1"),
    "reference-disconnected": (
        lambda: metric_dimension_reference(build_graph([("a", "b"), ("c", "d")])),
        "exact dimension requires a connected graph"),
    "block-bound-representatives": (
        lambda: block_lower_bound_check(make_abc_path(), [["a"], ["b"]], ["a"]),
        "need exactly one representative per block"),
}


@pytest.mark.parametrize("case", REJECTED_ARGUMENTS)
def test_rejected_arguments_raise_their_message(case):
    call, message = REJECTED_ARGUMENTS[case]
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


def _relabelled(graph, rng):
    """`graph` with its labels permuted by `rng`."""
    verts = list(graph.vertices())
    names = dict(zip(verts, rng.sample(verts, len(verts))))
    return build_graph([(names[u], names[v]) for u, v in graph.edges()])


def _matches_reference(graph, result):
    slow = metric_dimension_reference(graph)
    return (result.dimension, result.witness) == (slow.dimension, slow.witness)


def test_first_labels_that_resolve_skip_preparation(row_sources):
    # the degree bound gives 1; a cycle is not a path, so its bound is 2
    for graph, rows in (
        (path_graph(1000), {"p0"}),
        (cycle_graph(800), {"c0", "c1"}),
        (path_graph(9), {"p0"}),
        (cycle_graph(9), {"c0", "c1"}),
    ):
        row_sources.clear()
        result = metric_dimension_exact(graph)
        assert set(row_sources) == rows
        assert result.witness == tuple(sorted(rows))
        assert (result.dimension, result.nodes_explored) == (len(rows), 1)
        if graph.vertex_count <= 11:
            assert _matches_reference(graph, result)
    with pytest.raises(BudgetError):  # the first-k0 check counts as a node
        metric_dimension_exact(path_graph(9), node_budget=0)


def test_first_labels_that_do_not_resolve_fall_through_to_search():
    # least label "a" is an interior vertex of the path b - a - c - d - e
    graph = build_graph([("b", "a"), ("a", "c"), ("c", "d"), ("d", "e")])
    result = metric_dimension_exact(graph)
    assert (result.dimension, result.witness) == (1, ("b",))
    assert result.nodes_explored > 1
    assert _matches_reference(graph, result)


def test_max_k_below_the_bound_fails_before_preparation(row_sources):
    with pytest.raises(ExceededError):
        metric_dimension_exact(cycle_graph(800), max_k=1)
    assert len(set(row_sources)) <= 1  # the connectivity check's row only


def _kite_plus_edge(branches):
    kite, _, missing = kite_graph(KiteSpec(branches, 4))
    return add_edge(kite, *missing)


def _pages_plus_edge(d):
    graph, _, missing = nonbinary_graph(NonbinarySpec(d, canonical_conflict_free(d)))
    return add_edge(graph, *missing)


def test_search_nodes_on_misses():
    # the first k0 labels do not resolve these, so the whole search runs;
    # nodes and witnesses of the benchmark's dim-families instances
    cases = (
        (_kite_plus_edge(5), 3_358, "a1 a2 a3 a4 d1_0 d2_0 d3_0 d4_0 d5_0"),
        (strip_graph(StripSpec(1, True, 100)), 110, "v0_0 v0_1 v11_0"),
        (_pages_plus_edge(2), 11_498, "a_00 a_01 a_10 a_11 b_02 b_20 p_12_1"),
        (strip_graph(StripSpec(2, True, 40)), 7_208, "v0_0 v0_1 v10_0 v10_1 v11_0"),
        (random_connected_graph(random.Random(50), 50, 0.1), 10_141, "n10 n3 n38 n45 n47"),
    )
    for graph, nodes, witness in cases:
        result = metric_dimension_exact(graph)
        assert (result.nodes_explored, result.witness) == (nodes, tuple(witness.split()))


def test_node_budget_boundary_on_kite():
    # kite-5+edge takes 3,358 nodes; children that need one vertex count too
    graph = _kite_plus_edge(5)
    with pytest.raises(BudgetError, match="node budget 3357 exhausted"):
        metric_dimension_exact(graph, node_budget=3_357)
    assert metric_dimension_exact(graph, node_budget=3_358) == metric_dimension_exact(graph)


def test_exact_search_does_not_recurse():
    # dimension 39 would need 39 nested frames in a recursive search; the
    # reference cannot enumerate K40, so the expected answer is stated here
    graph = complete_graph(40)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(stack_depth() + 20)
    try:
        result = metric_dimension_exact(graph)
    finally:
        sys.setrecursionlimit(limit)
    assert result.dimension == 39
    assert result.witness == graph.vertices()[:-1]


@given(st.integers(0, 10_000), st.sampled_from(["random", "path", "cycle", "ladder"]))
@settings(max_examples=80, deadline=None)
def test_exact_witness_resolves_and_matches_reference(seed, kind):
    # relabelled paths, cycles and ladders hit or miss the first-k0 check
    rng = random.Random(seed)
    g = {
        "random": lambda: connected_graph_from_seed(seed, max_n=10),
        "path": lambda: _relabelled(path_graph(rng.randint(2, 11)), rng),
        "cycle": lambda: _relabelled(cycle_graph(rng.randint(3, 11)), rng),
        "ladder": lambda: _relabelled(ladder_graph(rng.randint(2, 5)), rng),
    }[kind]()
    fast = metric_dimension_exact(g)
    assert is_resolving(g, fast.witness)
    assert len(fast.witness) == fast.dimension
    assert _matches_reference(g, fast)


@given(st.integers(0, 10_000))
@settings(max_examples=50, deadline=None)
def test_superset_of_resolving_set_resolves(seed):
    rng = random.Random(seed)
    g = connected_graph_from_seed(seed)
    witness = list(metric_dimension_exact(g).witness)
    extra = [v for v in g.vertices() if v not in witness]
    rng.shuffle(extra)
    bigger = witness + extra[: rng.randint(0, len(extra))]
    assert is_resolving(g, bigger)


@given(st.integers(0, 10_000))
@settings(max_examples=50, deadline=None)
def test_unresolved_pair_agrees_with_is_resolving(seed):
    rng = random.Random(seed)
    g = connected_graph_from_seed(seed)
    verts = list(g.vertices())
    witness = rng.sample(verts, rng.randint(1, len(verts)))
    # the first landmark alone usually leaves several pairs unresolved
    for landmarks in (witness, witness[:1]):
        pair = find_unresolved_pair(g, landmarks)
        assert is_resolving(g, landmarks) == (pair is None)
        if pair is not None:
            u, v = pair
            assert u < v
            assert metric_code(g, landmarks, u) == metric_code(g, landmarks, v)
        # brute force over all pairs, codes read straight from BFS
        dist = [bfs_distances(g, w) for w in landmarks]
        shared = [
            (a, b)
            for i, a in enumerate(verts)
            for b in verts[i + 1 :]
            if all(d[a] == d[b] for d in dist)
        ]
        assert pair == min(shared, default=None)


def test_block_bound_vacuous_single_block(abc_path):
    assert block_lower_bound_check(abc_path, [["a", "b", "c"]], ["a"])


def test_block_bound_on_star():
    star = complete_bipartite_graph(1, 3)  # center l0, leaves r0..r2
    leaves = ["r0", "r1", "r2"]
    assert block_lower_bound_check(star, [[v] for v in leaves], leaves)
    # certified bound: dimension >= 2, and it is exactly 2
    assert metric_dimension_exact(star).dimension == 2


def test_block_bound_rejects_overlap(abc_path):
    with pytest.raises(ValueError, match="blocks share vertices"):
        block_lower_bound_check(abc_path, [["a", "b"], ["b", "c"]], ["a", "c"])
    with pytest.raises(ValueError, match="no vertex 'z'"):
        block_lower_bound_check(abc_path, [["a"], ["z"]], ["a", "z"])
    with pytest.raises(ValueError, match="not in its block"):
        block_lower_bound_check(abc_path, [["a"], ["b"]], ["a", "c"])
