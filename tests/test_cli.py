import json
import re

import pytest

from metricdim import claims, cli
from metricdim.cli import main
from metricdim.graph import parse_edge_list


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def run_json(capsys, *argv):
    code, out = run_cli(capsys, *argv)
    payload = json.loads(out)
    assert payload["schema"] == "metric-dim/1"
    return code, payload


@pytest.fixture
def path_file(tmp_path):
    target = tmp_path / "p7.edges"
    target.write_text("".join(f"p{i} p{i + 1}\n" for i in range(6)))
    return str(target)


def test_dim_on_path(capsys, path_file):
    code, payload = run_json(capsys, "dim", path_file)
    assert code == 0
    assert payload["dimension"] == 1
    assert payload["witness"] == ["p0"]
    assert payload["exhaustive"] is True
    assert payload["nodes_explored"] >= 1


def test_dim_exceeded_max_k(capsys, tmp_path):
    target = tmp_path / "c5.edges"
    target.write_text("c0 c1\nc1 c2\nc2 c3\nc3 c4\nc4 c0\n")
    code = main(["dim", str(target), "--max-k", "1"])
    assert code == 1


def test_check_exit_codes(capsys, path_file):
    code, payload = run_json(capsys, "check", path_file, "p0")
    assert code == 0 and payload["resolving"] is True
    code, payload = run_json(capsys, "check", path_file, "p3")
    assert code == 1 and payload["resolving"] is False
    assert payload["unresolved_pair"] == ["p0", "p6"]


def test_usage_error_exit_code(capsys):
    assert main(["dim"]) == 2
    assert main(["no-such-command"]) == 2
    assert main(["dim", "/nonexistent/file"]) == 2


def test_family_strip_pipes_into_dim(capsys, tmp_path):
    code, out = run_cli(capsys, "family", "strip", "--i", "0", "--primed", "--cols", "6")
    assert code == 0
    target = tmp_path / "ladder.edges"
    target.write_text(out)
    code, payload = run_json(capsys, "dim", str(target))
    assert code == 0
    assert payload["dimension"] == 2


def test_family_formats(capsys):
    code, out = run_cli(capsys, "family", "strip", "--i", "1", "--cols", "3", "--format", "dot")
    assert code == 0
    assert out.startswith("graph {")
    assert out.count("--") == 11
    code, payload = run_json(
        capsys, "family", "kite", "--branches", "3", "--format", "json"
    )
    assert code == 0
    assert payload["family"] == "kite"
    assert payload["missing_edge"] == ["u", "v"]
    assert len(payload["witness"]) == 3


def test_family_nonbinary_round_trip(capsys):
    code, payload = run_json(
        capsys, "family", "nonbinary", "--d", "2", "--canonical", "--format", "json"
    )
    assert code == 0
    assert len(payload["vertices"]) == 48
    assert payload["witness"] == ["w0", "w1", "w2"]
    code, out = run_cli(capsys, "family", "nonbinary", "--d", "2", "--canonical")
    assert code == 0
    graph = parse_edge_list(out)
    assert graph.vertex_count == 48


def test_family_nonbinary_strings_file(capsys, tmp_path):
    pages = tmp_path / "pages.txt"
    pages.write_text("# canonical d=2 pages\n00\n01\n\n  02  \n10\n11\n12\n20\n21\n")
    code, from_file = run_cli(capsys, "family", "nonbinary", "--d", "2", "--strings", str(pages))
    assert code == 0
    code, canonical = run_cli(capsys, "family", "nonbinary", "--d", "2", "--canonical")
    assert code == 0
    assert parse_edge_list(from_file) == parse_edge_list(canonical)


def test_family_tail(capsys, tmp_path, path_file):
    code, out = run_cli(
        capsys, "family", "tail", "--base", path_file, "--attach", "p0", "--len", "2"
    )
    assert code == 0
    graph = parse_edge_list(out)
    assert graph.vertex_count == 9
    assert graph.has_edge("p0", "u1")
    assert graph.has_edge("u1", "u2")


def test_gen_connected_round_trip(capsys):
    code, out = run_cli(capsys, "gen", "--n", "8", "--seed", "3", "--connected")
    assert code == 0
    graph = parse_edge_list(out)
    assert graph.vertex_count == 8
    # same seed reproduces the same graph
    code, out2 = run_cli(capsys, "gen", "--n", "8", "--seed", "3", "--connected")
    assert out2 == out


def test_perturb_trace(capsys, tmp_path):
    graph_file = tmp_path / "c6.edges"
    graph_file.write_text("c0 c1\nc1 c2\nc2 c3\nc3 c4\nc4 c5\nc5 c0\n")
    edits = tmp_path / "edits.txt"
    edits.write_text("add c0 c3\nremove c0 c3\n")
    code, payload = run_json(
        capsys,
        "perturb",
        str(graph_file),
        "--witness",
        "c0",
        "c1",
        "--edits",
        str(edits),
    )
    assert code == 0
    assert [step["op"] for step in payload["trace"]] == ["add", "remove"]
    assert all(step["verified"] for step in payload["trace"])


def test_perturb_rejects_bad_witness(capsys, tmp_path):
    graph_file = tmp_path / "c4.edges"
    graph_file.write_text("c0 c1\nc1 c2\nc2 c3\nc3 c0\n")
    edits = tmp_path / "edits.txt"
    edits.write_text("add c0 c2\n")
    code = main(
        ["perturb", str(graph_file), "--witness", "c0", "--edits", str(edits)]
    )
    assert code == 1  # a lone vertex does not resolve the 4-cycle


def test_ternary_commands(capsys, tmp_path):
    code, out = run_cli(capsys, "ternary", "canonical", "--n", "1")
    assert code == 0
    assert out.splitlines() == ["0", "1", "2"]
    code, payload = run_json(capsys, "ternary", "max", "--n", "2")
    assert code == 0
    assert payload["size"] == 8
    bad = tmp_path / "bad.txt"
    bad.write_text("22\n20\n")
    code, payload = run_json(capsys, "ternary", "check", str(bad))
    assert code == 1
    assert payload["conflict_free"] is False
    assert payload["first_conflict"] == ["22", "20"]


def test_verify_filter_and_json(capsys):
    code, payload = run_json(
        capsys, "verify", "--filter", "strip.sequences", "--format", "json"
    )
    assert code == 0
    assert [r["claim_id"] for r in payload["reports"]] == ["strip.sequences"]
    assert payload["reports"][0]["status"] == "PASS"


def test_verify_budget_zero_skips_expensive(capsys):
    code, out = run_cli(capsys, "verify", "--budget", "0")
    assert code == 0
    lines = out.splitlines()
    skipped = [line for line in lines if line.startswith("SKIPPED")]
    passed = [line for line in lines if line.startswith("PASS")]
    assert skipped and passed  # cheap invariants still run


def test_verify_skip_message_names_a_nonzero_cost(capsys):
    code, payload = run_json(capsys, "verify", "--budget", "0.01", "--format", "json")
    assert code == 0
    skipped = [r["details"] for r in payload["reports"] if r["status"] == "SKIPPED"]
    assert skipped
    for details in skipped:
        assert "~0.0s" not in details
        assert float(re.search(r"~(\S+)s\)", details).group(1)) > 0


def test_verify_budget_fits_every_claim(capsys):
    # the cost estimates are measured, so the whole suite fits in 25 s
    code, payload = run_json(capsys, "verify", "--budget", "25", "--format", "json")
    assert code == 0
    assert "SKIPPED" not in {r["status"] for r in payload["reports"]}


def test_verify_reports_crashing_claim_and_continues(capsys, monkeypatch):
    def crash(seed):
        raise KeyError("missing")

    monkeypatch.setattr(claims, "CLAIMS", [
        claims.Claim("a.first", 0.0, lambda seed: "ok"),
        claims.Claim("b.crash", 0.0, crash),
        claims.Claim("c.last", 0.0, lambda seed: "ok"),
    ])
    code, payload = run_json(capsys, "verify", "--format", "json")
    assert code == 4
    reports = payload["reports"]
    assert [(r["claim_id"], r["status"]) for r in reports] == [
        ("a.first", "PASS"), ("b.crash", "ERROR"), ("c.last", "PASS"),
    ]
    assert reports[1]["details"] == "KeyError: 'missing'"
    assert main(["verify"]) == 4
    assert "2 passed, 0 failed, 1 errors, 0 skipped" in capsys.readouterr().err


def test_unexpected_exception_exits_internal(capsys, monkeypatch, path_file):
    def broken(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "metric_dimension_exact", broken)
    assert main(["dim", path_file]) == 4
    assert capsys.readouterr().err == "internal error: RuntimeError: boom\n"
