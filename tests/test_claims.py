import ast
import random
import sys
from pathlib import Path

import pytest

from conftest import stack_depth
from metricdim.claims import CLAIMS, _non_bridges
from metricdim.families import KiteSpec, kite_graph
from metricdim.generators import (
    complete_graph,
    cycle_graph,
    ladder_graph,
    path_graph,
    random_connected_graph,
    random_graph,
)
from metricdim.graph import add_edge, is_connected, remove_edge
from test_acceptance import CRITERIA


def _safe_removals(g):
    # the definition: remove each edge and test connectivity
    return [e for e in g.edges() if is_connected(remove_edge(g, *e))]


def _families():
    kite, _, hubs = kite_graph(KiteSpec())
    yield "kite", kite
    yield "kite+edge", add_edge(kite, *hubs)
    for n in (1, 2, 3, 7):
        yield f"path-{n}", path_graph(n)
    for n in (3, 4, 9):
        yield f"cycle-{n}", cycle_graph(n)
    for n in (1, 2, 3, 6):
        yield f"complete-{n}", complete_graph(n)
    for n in (2, 3, 6):
        yield f"ladder-{n}", ladder_graph(n)


@pytest.mark.parametrize("graph", [pytest.param(g, id=name) for name, g in _families()])
def test_non_bridges_on_families(graph):
    assert _non_bridges(graph) == _safe_removals(graph)


def test_non_bridges_on_random_graphs():
    rng = random.Random(2024)
    for _ in range(2000):
        g = random_connected_graph(rng, rng.randint(2, 14), rng.uniform(0.0, 0.6))
        assert _non_bridges(g) == _safe_removals(g)
    for _ in range(300):  # possibly disconnected: no removal keeps it connected
        g = random_graph(rng, rng.randint(1, 10), rng.uniform(0.1, 0.5))
        assert _non_bridges(g) == _safe_removals(g)


def test_non_bridges_does_not_recurse():
    long_path = path_graph(5000)
    cycle = add_edge(long_path, "p0", "p4999")
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(stack_depth() + 20)
    try:
        path_result = _non_bridges(long_path)
        cycle_result = _non_bridges(cycle)
    finally:
        sys.setrecursionlimit(limit)
    assert path_result == []
    assert cycle_result == list(cycle.edges())


def test_registry_order_and_acceptance_coverage():
    ids = list(CLAIMS)
    # unique and in claim-id order, the order `run_verify_suite` runs them in
    assert ids == sorted(set(ids))
    # every claim belongs to exactly one acceptance criterion, and no row
    # names a claim the registry lacks
    named = [cid for *_, claim_ids in CRITERIA for cid in claim_ids]
    assert sorted(named) == ids


def test_registry_matches_benchmark_gate():
    # the verify-suite benchmark gates on its own copy of the ids; read it
    # from the source, without importing the benchmark
    source = Path(__file__).parents[1] / "perfbench" / "workloads.py"
    (gate_ids,) = [
        ast.literal_eval(node.value)
        for node in ast.parse(source.read_text()).body
        if isinstance(node, ast.Assign)
        and [getattr(t, "id", None) for t in node.targets] == ["CLAIM_IDS"]
    ]
    assert tuple(CLAIMS) == gate_ids
