"""Acceptance suite: one row per release criterion, driven by the claim registry.

Each row names the claims from `claims.CLAIMS` that make up its criterion
(criterion 11 has two rows, each with a named test). A test runs them at the default seed, so every golden is asserted by the
claim itself, and enforces the criterion's runtime bound. A PASS/FAIL line
is printed per criterion (run pytest with -s to see them live).
`test_claims.py` checks that the rows name every claim id exactly once.
"""

import time

import pytest

from metricdim.claims import CLAIMS, DEFAULT_SEED

# (number, label, time limit in seconds, claim ids)
CRITERIA = [
    (1, "strip distance sequences", 0.001, ("strip.sequences",)),
    (2, "closed form equals BFS on window interiors", 5.0, ("strip.oracle-bfs",)),
    (3, "distance-sequence laws", 1.0, ("strip.sequence-laws",)),
    (4, "canonical sets resolve primed windows", 10.0, ("strip.canonical-resolves",)),
    (5, "finite witnesses leave a twin column", 5.0, ("strip.unresolved-pair",)),
    (6, "ladder dimension is 2", 10.0, ("ladder.dimension",)),
    (7, "1000 randomized witness transfers", 60.0, ("perturb.soundness",)),
    (8, "removal raises dimension by at most 2", 120.0, ("perturb.removal-bound",)),
    (9, "degree bound over the corpus", 300.0, ("corpus.degree-bound",)),
    (
        10,
        "conflict-free counts",
        30.0,
        ("ternary.canonical", "ternary.max-small", "ternary.max-n4"),
    ),
    (
        11,
        "page-graph checks (resolve, codes, bound)",
        10.0,
        ("nonbinary.resolving", "nonbinary.ramp-codes", "nonbinary.block-bound"),
    ),
    (11, "page-graph exact dimension is 7", 10.0, ("nonbinary.exact-dim",)),
    (
        12,
        "kite witness flips with the hub edge",
        300.0,
        ("kite.witness-flip", "kite.dimensions"),
    ),
    (13, "pendant tails move dimension by at most 2", 120.0, ("tail.sandwich",)),
    (14, "pruned search equals unpruned search", 120.0, ("exact.audit",)),
]

# the random draws depend on the safe-removal list, so this pins it too
PINNED_DETAILS = {"perturb.soundness": "541 additions + 459 removals all verified"}

def _check(number, label, limit_seconds, claim_ids):
    start = time.perf_counter()
    try:
        details = {cid: CLAIMS[cid](DEFAULT_SEED) for cid in claim_ids}
    except BaseException:
        print(f"criterion {number:02d} {label}: FAIL")
        raise
    elapsed = time.perf_counter() - start
    print(f"criterion {number:02d} {label}: PASS ({elapsed:.3f}s, limit {limit_seconds}s)")
    assert elapsed < limit_seconds, f"criterion {number} overran: {elapsed:.3f}s"
    for cid in claim_ids:
        if cid in PINNED_DETAILS:
            assert details[cid] == PINNED_DETAILS[cid]


# criterion 11 has two rows, run by the two named tests below
_SINGLE_ROWS = [row for row in CRITERIA if row[0] != 11]
_PAGE_GRAPH, _EXACT_DIMENSION = [row for row in CRITERIA if row[0] == 11]


@pytest.mark.parametrize(
    "number, label, limit_seconds, claim_ids",
    _SINGLE_ROWS,
    ids=[f"{row[0]:02d}" for row in _SINGLE_ROWS],
)
def test_criterion(number, label, limit_seconds, claim_ids):
    _check(number, label, limit_seconds, claim_ids)


def test_criterion_11_page_graph():
    _check(*_PAGE_GRAPH)


def test_criterion_11_optional_exact_dimension():
    # no longer optional: the claim runs without a node budget and cannot skip
    _check(*_EXACT_DIMENSION)
