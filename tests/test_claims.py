import ast
from pathlib import Path

import pytest

from metricdim import claims, resolving
from metricdim.claims import CLAIMS, DEFAULT_SEED, ClaimFailure
from test_acceptance import CRITERIA


def test_degree_bound_does_not_trust_the_search(monkeypatch):
    # a resolving check that accepts every set must break the bound: the
    # claim may not read the dimension from a search that starts at it
    monkeypatch.setattr(claims, "is_resolving", lambda g, w: True)
    monkeypatch.setattr(resolving, "is_resolving", lambda g, w: True)
    with pytest.raises(ClaimFailure):
        CLAIMS["corpus.degree-bound"](DEFAULT_SEED)


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
