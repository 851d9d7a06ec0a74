"""Acceptance suite: one test per release criterion.

Each test drives the matching claim from the claim registry at the default
seed, asserts it passes, and enforces the criterion's runtime bound. A
PASS/FAIL line is printed per criterion (run pytest with -s to see them
live).
"""

import time
from contextlib import contextmanager

import pytest

from metricdim import claims
from metricdim.claims import DEFAULT_SEED
from metricdim.errors import BudgetError
from metricdim.families import (
    KiteSpec,
    NonbinarySpec,
    cross_side_distance,
    kite_graph,
    nonbinary_graph,
    same_side_distance,
)
from metricdim.graph import add_edge
from metricdim.resolving import metric_dimension_exact
from metricdim.ternary import canonical_conflict_free


@contextmanager
def criterion(number, label, limit_seconds):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {number:02d} {label}: FAIL")
        raise
    elapsed = time.perf_counter() - start
    print(f"criterion {number:02d} {label}: PASS ({elapsed:.3f}s, limit {limit_seconds}s)")
    assert elapsed < limit_seconds, f"criterion {number} overran: {elapsed:.3f}s"


def test_criterion_01_strip_sequences():
    # the sequence computation itself must be essentially instant
    with criterion(1, "strip distance sequences", 0.001):
        same = tuple(same_side_distance(2, k) for k in range(14))
        cross = tuple(cross_side_distance(2, k) for k in range(14))
    assert same == (0, 1, 1, 2, 2, 2, 2, 3, 3, 4, 4, 4, 4, 5)
    assert cross == (1, 1, 1, 1, 2, 2, 3, 3, 3, 3, 4, 4, 5, 5)
    claims.claim_strip_sequences(DEFAULT_SEED)


def test_criterion_02_oracle_vs_bfs():
    with criterion(2, "closed form equals BFS on window interiors", 5.0):
        claims.claim_strip_oracle_bfs(DEFAULT_SEED)


def test_criterion_03_sequence_laws():
    with criterion(3, "distance-sequence laws", 1.0):
        claims.claim_strip_sequence_laws(DEFAULT_SEED)


def test_criterion_04_canonical_sets_resolve():
    with criterion(4, "canonical sets resolve primed windows", 10.0):
        claims.claim_strip_canonical_resolves(DEFAULT_SEED)


def test_criterion_05_unresolved_pair():
    with criterion(5, "finite witnesses leave a twin column", 5.0):
        claims.claim_strip_unresolved_pair(DEFAULT_SEED)


def test_criterion_06_ladder_dimension():
    with criterion(6, "ladder dimension is 2", 10.0):
        claims.claim_ladder_dimension(DEFAULT_SEED)


def test_criterion_07_perturbation_soundness():
    with criterion(7, "1000 randomized witness transfers", 60.0):
        details = claims.claim_perturb_soundness(DEFAULT_SEED)
    # the random draws depend on the safe-removal list, so this pins it too
    assert details == "541 additions + 459 removals all verified"


def test_criterion_08_removal_bound():
    with criterion(8, "removal raises dimension by at most 2", 120.0):
        claims.claim_perturb_removal_bound(DEFAULT_SEED)


def test_criterion_09_degree_bound():
    with criterion(9, "degree bound over the corpus", 300.0):
        claims.claim_corpus_degree_bound(DEFAULT_SEED)


def test_criterion_10_ternary():
    with criterion(10, "conflict-free counts", 30.0):
        claims.claim_ternary_canonical(DEFAULT_SEED)
        claims.claim_ternary_max_small(DEFAULT_SEED)
    # the n=4 search is optional per the criterion; it is fast enough here
    claims.claim_ternary_max_n4(DEFAULT_SEED)


def test_criterion_11_page_graph():
    with criterion(11, "page-graph checks (resolve, codes, bound)", 10.0):
        claims.claim_nonbinary_resolving(DEFAULT_SEED)
        claims.claim_nonbinary_ramp_codes(DEFAULT_SEED)
        claims.claim_nonbinary_block_bound(DEFAULT_SEED)


def test_criterion_11_optional_exact_dimension():
    # budget-gated extra: the certified lower bound of 7 is exactly attained
    spec = NonbinarySpec(2, canonical_conflict_free(2))
    graph, _, missing = nonbinary_graph(spec)
    try:
        result = metric_dimension_exact(
            add_edge(graph, *missing), node_budget=60_000_000
        )
    except BudgetError:
        pytest.skip("node budget exhausted")
    assert result.dimension == 7


def test_criterion_12_kite():
    with criterion(12, "kite witness flips with the hub edge", 300.0):
        claims.claim_kite_witness_flip(DEFAULT_SEED)
        # goldens, frozen from the first solver run: 5 before, 9 after
        spec = KiteSpec()
        graph, _, missing = kite_graph(spec)
        before = metric_dimension_exact(graph, node_budget=50_000_000)
        after = metric_dimension_exact(add_edge(graph, *missing), node_budget=50_000_000)
        assert before.dimension == 5
        assert after.dimension == 9
        assert after.dimension - before.dimension >= spec.branches - 2


def test_criterion_13_tail_sandwich():
    with criterion(13, "pendant tails move dimension by at most 2", 120.0):
        claims.claim_tail_sandwich(DEFAULT_SEED)


def test_criterion_14_exhaustiveness_audit():
    with criterion(14, "pruned search equals unpruned search", 120.0):
        claims.claim_exact_audit(DEFAULT_SEED)
