"""Tests of the benchmark itself: `python3 -m pytest perfbench`.

Each workload runs once at its tiny size, and wrong answers injected into
the program are shown to count as failed operations.
"""

import json
import shutil
import subprocess
import sys

import pytest

import run

run.import_program()

import gate  # noqa: E402
import workloads  # noqa: E402
from metricdim import cli  # noqa: E402
from metricdim.resolving import DimensionResult  # noqa: E402


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_workload_is_correct_and_complete(workload, trace):
    details, result = run.measure(workload, 5, 0, trace, tiny=True)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = run.per_layer_units() if trace else run.END_TO_END
    assert {k: m["unit"] for k, m in result["metrics"].items()} == expected
    if trace:
        assert details["nodes_match"]
        assert result["metrics"]["trace.overhead_ratio"]["value"] > 0
    else:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_node_counts_must_match_untraced(monkeypatch):
    counts = iter(range(100))
    monkeypatch.setattr(run, "_nodes", lambda setup, outputs: {"kite-3+edge": next(counts)})
    details, result = run.measure("dim-families", 5, 0, True, tiny=True)
    assert not details["nodes_match"]
    assert not result["correct"] and result["failed"] == 1


def _dim_op(tmp_path):
    setup = workloads.build("dim-families", 1, tmp_path, tiny=True)
    return next(op for op in setup.ops if op.instance == "kite-3+edge")


def _dim_output(dimension, witness):
    return json.dumps({"schema": gate.SCHEMA, "dimension": dimension, "witness": list(witness),
                       "exhaustive": True, "nodes_explored": 1})


def test_gate_accepts_recorded_witness(tmp_path):
    op = _dim_op(tmp_path)
    assert gate.judge("dim", op.expect, 0, _dim_output(5, op.expect["witness"])) is None


@pytest.mark.parametrize("dimension, witness", [
    (5, ("a1", "a2", "d1_0", "d2_0", "h1")),            # right size, does not resolve
    (5, ("a1", "a3", "d1_0", "d2_0", "d3_0")),          # resolves, but not the lex-least
    (6, ("a1", "a2", "d1_0", "d2_0", "d3_0", "u")),     # one too many
    (4, ("a1", "a2", "d1_0", "d2_0")),                  # one too few
])
def test_gate_rejects_wrong_dimension_or_witness(tmp_path, dimension, witness):
    op = _dim_op(tmp_path)
    assert gate.judge("dim", op.expect, 0, _dim_output(dimension, witness)) is not None


def test_gate_rejects_wrong_exit_code_and_garbage(tmp_path):
    op = _dim_op(tmp_path)
    good = _dim_output(5, op.expect["witness"])
    assert gate.judge("dim", op.expect, 1, good) is not None
    assert gate.judge("dim", op.expect, 0, "not json") is not None
    assert gate.judge("dim", op.expect, 0, "[]") is not None


def _broken(monkeypatch, workload):
    """Make the program answer `workload` wrongly while claiming success."""
    if workload == "dim-families":
        monkeypatch.setattr(cli, "metric_dimension_exact",
                            lambda g, *a, **k: DimensionResult(1, g.vertices()[:1], True, 1))
    elif workload == "dim-large":
        monkeypatch.setattr(cli, "find_unresolved_pair", lambda g, w: None)
    elif workload == "perturb-chains":
        # drop the endpoints a removal adds, and vouch for every witness
        monkeypatch.setattr(cli, "is_resolving", lambda g, w: True)
        monkeypatch.setattr("metricdim.perturb.augment_removal", lambda g, w, u, v: tuple(w))
        monkeypatch.setattr("metricdim.perturb.augment_addition", lambda g, w, u, v: tuple(w))
    else:
        real = cli.claims.run_verify_suite

        def one_claim_lost(*args):
            return real(*args)[1:]

        monkeypatch.setattr(cli.claims, "run_verify_suite", one_claim_lost)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_wrong_answers_count_as_failures(monkeypatch, workload):
    _broken(monkeypatch, workload)
    details, result = run.measure(workload, 5, 0, False, tiny=True)
    assert not result["correct"]
    assert result["failed"] >= 1 and details["fail_ratio"] > 0
    assert details["failures"]


def test_same_seed_same_inputs(tmp_path):
    def inputs(seed, sub):
        (tmp_path / sub).mkdir()
        setup = workloads.build("perturb-chains", seed, tmp_path / sub, tiny=True)
        texts = sorted(p.read_text() for p in (tmp_path / sub).iterdir())
        return [op.argv[2:-1] for op in setup.ops], texts

    first = inputs(7, "a")
    assert first == inputs(7, "b")
    assert first != inputs(8, "c")


def test_tail_needs_ten_operations_beyond_it():
    assert run.latency([float(i) for i in range(1, 151)])[1:] == (135.0, "p90", 15)
    assert run.latency([float(i) for i in range(1, 69)])[1:] == (51.0, "p75", 17)
    assert run.latency([float(i) for i in range(1, 21)])[1:3] == (10.0, "p50")
    assert run.latency([1.0, 2.0, 6.0]) == (3.0, 3.0, "mean", 0)


def test_benchmark_json_matches_the_metrics_printed():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "dim-families", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode != 0
    assert done.stdout == ""
