"""Exact dimension against an independent oracle: the covering ILP.

A set W resolves G exactly when every vertex pair has a member of W at
different distances from the two, so the metric dimension is the optimum of
the 0/1 program "minimize sum x_w subject to, for every pair {u, v},
sum of x_w over the separators w of {u, v} >= 1". The program is built here
from a BFS written in this file and solved with scipy's `milp` (HiGHS); the
tests skip when scipy is missing, and the library itself never imports it.
"""

from collections import deque
from itertools import combinations

import pytest

from metricdim import families, ternary
from metricdim.graph import add_edge
from metricdim.resolving import is_resolving, metric_dimension_exact

np = pytest.importorskip("numpy")
optimize = pytest.importorskip("scipy.optimize")


def _bfs(graph, source):
    dist = {source: 0}
    queue = deque([source])
    while queue:
        x = queue.popleft()
        for y in graph.neighbors(x):
            if y not in dist:
                dist[y] = dist[x] + 1
                queue.append(y)
    return dist


def _ilp_dimension(graph):
    verts = graph.vertices()
    dist = [_bfs(graph, w) for w in verts]
    rows = [
        [1.0 if d[u] != d[v] else 0.0 for d in dist]
        for u, v in combinations(verts, 2)
    ]
    result = optimize.milp(
        c=np.ones(len(verts)),
        constraints=optimize.LinearConstraint(np.array(rows), lb=1.0),
        integrality=np.ones(len(verts)),
        bounds=optimize.Bounds(0, 1),
    )
    assert result.success, result.message
    return round(result.fun)


def _kite(branches):
    graph, _, missing = families.kite_graph(families.KiteSpec(branches, 4))
    return add_edge(graph, *missing)


def _pages(d):
    spec = families.NonbinarySpec(d, ternary.canonical_conflict_free(d))
    graph, _, missing = families.nonbinary_graph(spec)
    return add_edge(graph, *missing)


@pytest.mark.parametrize(
    "build",
    [lambda: _kite(5), lambda: _kite(6), lambda: _kite(7), lambda: _pages(2)],
    ids=["kite-5+edge", "kite-6+edge", "kite-7+edge", "pages-d2+edge"],
)
def test_exact_dimension_matches_ilp_optimum(build):
    graph = build()
    result = metric_dimension_exact(graph)
    assert result.dimension == _ilp_dimension(graph)
    assert len(result.witness) == result.dimension
    assert is_resolving(graph, result.witness)
