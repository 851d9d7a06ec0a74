"""Exact dimension against an independent oracle: the covering ILP.

A set W resolves G exactly when every vertex pair has a member of W at
different distances from the two, so the metric dimension is the optimum of
the 0/1 program "minimize sum x_w subject to, for every pair {u, v},
sum of x_w over the separators w of {u, v} >= 1". The program is built here
from the suite's own BFS (`conftest.reference_bfs`, independent of
`Graph.distances`) and solved with scipy's `milp` (HiGHS); the tests skip
when scipy is missing, and the library itself never imports it.
"""

from itertools import combinations

import pytest

from conftest import reference_bfs
from metricdim import families, ternary
from metricdim.graph import add_edge
from metricdim.resolving import is_resolving, metric_dimension_exact

np = pytest.importorskip("numpy")
optimize = pytest.importorskip("scipy.optimize")


def _ilp_dimension(graph):
    verts = graph.vertices()
    dist = [reference_bfs(graph, w) for w in verts]
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


def _kite(branches, edge=True):
    graph, _, missing = families.kite_graph(families.KiteSpec(branches, 4))
    return add_edge(graph, *missing) if edge else graph


def _pages(d):
    spec = families.NonbinarySpec(d, ternary.canonical_conflict_free(d))
    graph, _, missing = families.nonbinary_graph(spec)
    return add_edge(graph, *missing)


# ILP optima; kite-5 (5), kite-5+edge (9) and pages-d2+edge (7) are the
# goldens that the kite.dimensions and nonbinary.exact-dim claims assert
@pytest.mark.parametrize(
    "build, optimum",
    [
        pytest.param(lambda: _kite(5, edge=False), 5, id="kite-5"),
        pytest.param(lambda: _kite(5), 9, id="kite-5+edge"),
        pytest.param(lambda: _kite(6), 11, id="kite-6+edge"),
        pytest.param(lambda: _kite(7), 13, id="kite-7+edge"),
        pytest.param(lambda: _pages(2), 7, id="pages-d2+edge"),
    ],
)
def test_exact_dimension_matches_ilp_optimum(build, optimum):
    graph = build()
    ilp = _ilp_dimension(graph)
    assert ilp == optimum
    result = metric_dimension_exact(graph)
    assert result.dimension == ilp
    assert len(result.witness) == result.dimension
    assert is_resolving(graph, result.witness)
