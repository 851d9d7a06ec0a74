import ast
import random
from pathlib import Path

import pytest

from metricdim import claims, generators, resolving
from metricdim.claims import CLAIMS, DEFAULT_SEED, ClaimFailure
from test_acceptance import CRITERIA


def test_degree_bound_does_not_trust_the_search(monkeypatch):
    # a resolving check that accepts every set must break the bound: the
    # claim may not read the dimension from a search that starts at it
    monkeypatch.setattr(claims, "is_resolving", lambda g, w: True)
    monkeypatch.setattr(resolving, "is_resolving", lambda g, w: True)
    with pytest.raises(ClaimFailure):
        CLAIMS["corpus.degree-bound"](DEFAULT_SEED)


def _grown_until_resolving(rng, g):
    """The soundness claim's witness, grown by the whole-set check after each vertex."""
    verts = g.vertices()
    witness = rng.sample(verts, rng.randint(1, max(1, len(verts) // 3)))
    missing = [v for v in verts if v not in witness]
    rng.shuffle(missing)
    while not resolving.is_resolving(g, witness):
        witness.append(missing.pop())
    return witness


def test_random_witness_is_the_grow_until_resolving_witness():
    rng = random.Random(2024)
    for trial in range(400):
        n = rng.randint(1, 12)
        if trial % 4:
            g = generators.random_connected_graph(rng, n, rng.uniform(0.05, 0.9))
        else:  # on a path, a sampled end vertex resolves before the rest of the sample
            g = generators.path_graph(n)
        start = rng.getstate()
        witness = claims._random_resolving_witness(rng, g)
        end = rng.getstate()
        rng.setstate(start)
        assert witness == _grown_until_resolving(rng, g)
        # the same draws, so every later draw of the claim is unchanged
        assert rng.getstate() == end


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
