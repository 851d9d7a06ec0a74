import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import connected_graph_from_seed, stack_depth
from metricdim.errors import (
    BlockOverlapError,
    BudgetError,
    DisconnectedError,
    EmptyLandmarksError,
    ExceededError,
    UnknownVertexError,
)
from metricdim.families import StripSpec, strip_canonical_set, strip_graph
from metricdim.generators import (
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    ladder_graph,
    path_graph,
    random_connected_graph,
)
from metricdim.graph import build_graph
from metricdim.resolving import (
    block_lower_bound_check,
    find_unresolved_pair,
    is_resolving,
    metric_code,
    metric_dimension_exact,
    metric_dimension_reference,
)


def test_metric_code_on_path(abc_path):
    assert metric_code(abc_path, ["a"], "c") == (2,)


def test_metric_code_on_primed_strip():
    g = strip_graph(StripSpec(1, True, 10))
    witness = [w.label for w in strip_canonical_set(1)]
    assert metric_code(g, witness, "v0_0") == (0, 1, 1)


def test_metric_code_errors(abc_path):
    with pytest.raises(EmptyLandmarksError):
        metric_code(abc_path, [], "a")
    with pytest.raises(UnknownVertexError):
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
    assert metric_dimension_exact(single).witness == ("p0",)
    assert metric_dimension_reference(single).witness == ("p0",)
    empty = build_graph([])
    assert metric_dimension_exact(empty).dimension == 0


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
    with pytest.raises(DisconnectedError):
        metric_dimension_exact(two_parts)
    with pytest.raises(ExceededError):
        metric_dimension_exact(cycle_graph(5), max_k=1)
    with pytest.raises(BudgetError):
        metric_dimension_exact(complete_graph(6), node_budget=1)
    with pytest.raises(BudgetError):  # raised at the first search node
        metric_dimension_exact(ladder_graph(5), node_budget=0)
    with pytest.raises(BudgetError):  # the budget covers building rows and separators
        metric_dimension_exact(path_graph(300), time_budget=0.0)


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


@given(st.integers(0, 10_000))
@settings(max_examples=50, deadline=None)
def test_exact_witness_resolves_and_matches_reference(seed):
    g = connected_graph_from_seed(seed, max_n=10)
    fast = metric_dimension_exact(g)
    assert is_resolving(g, fast.witness)
    assert len(fast.witness) == fast.dimension
    slow = metric_dimension_reference(g)
    assert (fast.dimension, fast.witness) == (slow.dimension, slow.witness)


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
    pair = find_unresolved_pair(g, witness)
    assert is_resolving(g, witness) == (pair is None)
    if pair is not None:
        u, v = pair
        assert u < v
        assert metric_code(g, witness, u) == metric_code(g, witness, v)


def test_block_bound_vacuous_single_block(abc_path):
    assert block_lower_bound_check(abc_path, [["a", "b", "c"]], ["a"])


def test_block_bound_on_star():
    star = complete_bipartite_graph(1, 3)  # center l0, leaves r0..r2
    leaves = ["r0", "r1", "r2"]
    assert block_lower_bound_check(star, [[v] for v in leaves], leaves)
    # certified bound: dimension >= 2, and it is exactly 2
    assert metric_dimension_exact(star).dimension == 2


def test_block_bound_rejects_overlap(abc_path):
    with pytest.raises(BlockOverlapError):
        block_lower_bound_check(abc_path, [["a", "b"], ["b", "c"]], ["a", "c"])
    with pytest.raises(UnknownVertexError):
        block_lower_bound_check(abc_path, [["a"], ["z"]], ["a", "z"])
    with pytest.raises(ValueError):
        block_lower_bound_check(abc_path, [["a"], ["b"]], ["a", "c"])
