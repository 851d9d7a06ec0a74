import io
import json
import re
import sys
from pathlib import Path

import pytest

from metricdim import claims, cli, errors, families
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


def test_dim_reads_the_graph_from_stdin(capsys, monkeypatch, path_file):
    code, payload = run_json(capsys, "dim", path_file)
    monkeypatch.setattr(sys, "stdin", io.StringIO(Path(path_file).read_text()))
    assert run_json(capsys, "dim", "-") == (code, payload)
    assert code == 0


def test_dim_exceeded_max_k(capsys, tmp_path):
    target = tmp_path / "c5.edges"
    target.write_text("c0 c1\nc1 c2\nc2 c3\nc3 c4\nc4 c0\n")
    code = main(["dim", str(target), "--max-k", "1"])
    assert code == 1
    assert capsys.readouterr().err == "error: no resolving set of size <= 1\n"
    # K6: k0 = 2 passes --max-k 4, so the search refutes sizes 2..4 first
    target = tmp_path / "k6.edges"
    target.write_text("".join(f"k{i} k{j}\n" for i in range(6) for j in range(i + 1, 6)))
    assert main(["dim", str(target), "--max-k", "4"]) == 1
    assert capsys.readouterr() == ("", "error: no resolving set of size <= 4\n")


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


def test_family_kite_defaults_are_kite_spec(capsys):
    graph, witness, missing = families.kite_graph(families.KiteSpec())
    code, payload = run_json(capsys, "family", "kite", "--format", "json")
    assert code == 0
    assert payload["vertices"] == list(graph.vertices())
    assert payload["edges"] == [list(e) for e in graph.edges()]
    assert payload["witness"] == list(witness)
    assert payload["missing_edge"] == list(missing)


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


@pytest.mark.parametrize("pages", [[], ["--canonical", "--strings", "FILE"]])
def test_family_nonbinary_needs_exactly_one_page_source(capsys, tmp_path, pages):
    # a strings file next to --canonical must not be silently ignored
    strings = tmp_path / "pages.txt"
    strings.write_text("00\n")
    argv = [str(strings) if arg == "FILE" else arg for arg in pages]
    assert main(["family", "nonbinary", "--d", "2", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--canonical" in captured.err and "--strings" in captured.err


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


@pytest.mark.parametrize("connected", [(), ("--connected",)], ids=["plain", "connected"])
@pytest.mark.parametrize("prob, shown", [("nan", "nan"), ("7", "7.0"), ("-3", "-3.0")])
def test_gen_rejects_edge_prob_outside_unit_interval(capsys, prob, shown, connected):
    assert main(["gen", "--n", "4", "--edge-prob", prob, *connected]) == 2
    assert capsys.readouterr() == ("", f"error: edge probability {shown} is not in [0, 1]\n")


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


@pytest.mark.parametrize("edits", ["", "# no edits\n\n"], ids=["empty", "comments"])
@pytest.mark.parametrize("witness, code, out, err", [
    ("zz", 2, "", "error: no vertex 'zz'\n"),
    ("b", 1, "", "error: witness does not resolve the input graph\n"),
    ("a", 0, '{\n  "schema": "metric-dim/1",\n  "trace": []\n}\n', ""),
], ids=["unknown-vertex", "not-resolving", "resolving"])
def test_perturb_checks_input_without_edits(capsys, tmp_path, edits, witness, code, out, err):
    (tmp_path / "g").write_text("a b\nb c\n")
    (tmp_path / "edits").write_text(edits)
    graph, edit_file = str(tmp_path / "g"), str(tmp_path / "edits")
    assert main(["perturb", graph, "--witness", witness, "--edits", edit_file]) == code
    assert capsys.readouterr() == (out, err)


def test_perturb_rejects_a_repeated_witness_vertex(capsys, tmp_path):
    (tmp_path / "g").write_text("a b\nb c\nc d\n")
    (tmp_path / "edits").write_text("add a c\n")
    argv = ("perturb", str(tmp_path / "g"), "--edits", str(tmp_path / "edits"), "--witness")
    code, payload = run_json(capsys, *argv, "a")
    assert code == 0 and payload["trace"][0]["witness_size"] == 3
    # listed twice, `a` would have been counted twice in witness_size
    assert main([*argv, "a", "a"]) == 2
    assert capsys.readouterr() == ("", "error: witness lists 'a' twice\n")


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
    # a run that skipped a claim did not check it: it exits as over budget
    code, out = run_cli(capsys, "verify", "--budget", "0")
    assert code == 3
    statuses = [line.split()[0] for line in out.splitlines()]
    assert statuses == ["SKIPPED"] * 20  # no claim starts, however cheap


def test_verify_skip_message_names_a_nonzero_cost(capsys):
    # the first claim starts while budget is left and spends it; no later one starts
    code, payload = run_json(
        capsys, "verify", "--filter", "strip.", "--budget", "1e-9", "--format", "json"
    )
    assert code == 3
    reports = payload["reports"]
    assert (reports[0]["claim_id"], reports[0]["status"]) == ("strip.canonical-resolves", "PASS")
    assert len(reports) == 5
    for r in reports[1:]:
        assert (r["status"], r["details"], r["elapsed"]) == ("SKIPPED", "budget 1e-09s spent", 0.0)


def test_verify_budget_fits_every_claim(capsys):
    # the whole suite runs in well under a second, so 25 s leaves ample room
    code, payload = run_json(capsys, "verify", "--budget", "25", "--format", "json")
    assert code == 0
    assert "SKIPPED" not in {r["status"] for r in payload["reports"]}


def test_verify_failure_outranks_skips(capsys, monkeypatch):
    def fail(seed):
        raise claims.ClaimFailure("does not hold")

    monkeypatch.setattr(claims, "CLAIMS", {"a.fail": fail, "b.skipped": lambda seed: "ok"})
    code, payload = run_json(capsys, "verify", "--budget", "1e-9", "--format", "json")
    assert code == 1
    assert [r["status"] for r in payload["reports"]] == ["FAIL", "SKIPPED"]


def test_verify_unknown_filter_is_a_usage_error(capsys):
    assert main(["verify", "--filter", "nosuch"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "no claim id starts with 'nosuch'" in captured.err


def test_verify_reports_crashing_claim_and_continues(capsys, monkeypatch):
    def crash(seed):
        raise KeyError("missing")

    monkeypatch.setattr(claims, "CLAIMS", {
        "a.first": lambda seed: "ok",
        "b.crash": crash,
        "c.last": lambda seed: "ok",
    })
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


ERROR_CLASS_EXIT = {"BudgetError": 3, "ExceededError": 1, "NotResolvingError": 1}


@pytest.mark.parametrize("name", sorted(
    name for name, value in vars(errors).items()
    if isinstance(value, type) and value.__module__ == errors.__name__
))
def test_every_error_class_has_a_dispatcher(capsys, monkeypatch, path_file, name):
    # a class the CLI does not tell apart from ValueError has no reason to exist
    def raising(*args, **kwargs):
        raise getattr(errors, name)("stop")

    monkeypatch.setattr(cli, "metric_dimension_exact", raising)
    assert main(["dim", path_file]) == ERROR_CLASS_EXIT.get(name)
    assert capsys.readouterr().err == "error: stop\n"


PATH_EDGES = "p0 p1\np1 p2\n"

# one rejected input per module: (files to write, argv naming them, stderr)
REJECTED_INPUTS = {
    "check-unknown-vertex": (
        {"g": PATH_EDGES}, ("check", "g", "zz"), "error: no vertex 'zz'\n"),
    "dim-self-loop": (
        {"g": "a b\nb b\n"}, ("dim", "g"), "error: self-loop at 'b'\n"),
    "dim-max-k-zero": (
        {"g": PATH_EDGES}, ("dim", "g", "--max-k", "0"), "error: max_k must be at least 1\n"),
    "perturb-disconnecting-remove": (
        {"g": PATH_EDGES, "edits": "remove p1 p2\n"},
        ("perturb", "g", "--witness", "p0", "--edits", "edits"),
        "error: removing 'p1' -- 'p2' disconnects the graph\n"),
    "ternary-check-unequal-lengths": (
        {"s": "012\n01\n"}, ("ternary", "check", "s"), "error: strings must share one length\n"),
    "family-nonbinary-conflicting-strings": (
        {"s": "20\n22\n"}, ("family", "nonbinary", "--d", "2", "--strings", "s"),
        "error: page strings must be pairwise conflict-free\n"),
    "family-tail-unknown-attach": (
        {"g": PATH_EDGES}, ("family", "tail", "--base", "g", "--attach", "zz", "--len", "2"),
        "error: no vertex 'zz' in the base graph\n"),
    "family-strip-one-column": (
        {}, ("family", "strip", "--i", "1", "--cols", "1"),
        "error: need at least 2 columns, got 1\n"),
}


@pytest.mark.parametrize("case", REJECTED_INPUTS)
def test_rejected_input_exits_usage_with_its_message(capsys, tmp_path, case):
    files, argv, err = REJECTED_INPUTS[case]
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    assert main([str(tmp_path / a) if a in files else a for a in argv]) == 2
    assert capsys.readouterr() == ("", err)


@pytest.mark.parametrize("argv, err", [
    (["dim", "GRAPH"], "error: time budget nan is not a number\n"),
    (["verify", "--filter", "strip.sequences"], "error: budget nan is not a number\n"),
], ids=["dim", "verify"])
def test_nan_budget_is_a_usage_error(capsys, path_file, argv, err):
    # NaN compares false against any clock, so it would silently lift the budget
    argv = [path_file if a == "GRAPH" else a for a in argv]
    assert main([*argv, "--budget", "nan"]) == 2
    assert capsys.readouterr() == ("", err)
    assert main([*argv, "--budget", "inf"]) == 0  # inf stays "no limit"


def test_main_reuses_its_parser_across_calls(capsys, monkeypatch, tmp_path, path_file):
    edits = tmp_path / "edits.txt"
    edits.write_text("add p0 p3\nremove p0 p1\n")
    check = ("check", path_file, "p3")
    perturb = ("perturb", path_file, "--witness", "p3", "p0", "--edits", str(edits))
    assert main(["dim"]) == 2
    assert main(["--help"]) == 0
    assert capsys.readouterr().out.startswith("usage: metricdim")
    first = {argv: run_cli(capsys, *argv) for argv in (check, perturb)}
    assert first[check][0] == 1 and first[perturb][0] == 0
    assert main(["check", path_file]) == 2  # a failed parse leaves the parser usable
    for argv, result in first.items():
        assert run_cli(capsys, *argv) == result

    def broken(*args, **kwargs):
        raise RuntimeError("boom")

    # handlers look the library up when they run, after the parser exists
    monkeypatch.setattr(cli, "metric_dimension_exact", broken)
    assert main(["dim", path_file]) == 4


KITE_3_2_EDGES = """\
a1 t1_1
a1 v
a2 t2_1
a2 v
a3 t3_1
a3 v
d1_0 h1
d1_0 m1
d1_1 h1
d1_1 m1
d2_0 h2
d2_0 m2
d2_1 h2
d2_1 m2
d3_0 h3
d3_0 m3
d3_1 h3
d3_1 m3
h1 u
h2 u
h3 u
m1 t1_1
m2 t2_1
m3 t3_1
"""


def test_payload_bytes(capsys, tmp_path, path_file):
    """Exact stdout, key order and layout of the record-shaped payloads."""
    assert run_cli(capsys, "dim", path_file) == (0, """\
{
  "schema": "metric-dim/1",
  "dimension": 1,
  "witness": [
    "p0"
  ],
  "exhaustive": true,
  "nodes_explored": 1
}
""")
    single = tmp_path / "single.edges"
    single.write_text("v\n")  # a one-vertex graph is a first-k0 hit: one node
    assert run_cli(capsys, "dim", str(single)) == (0, """\
{
  "schema": "metric-dim/1",
  "dimension": 1,
  "witness": [
    "v"
  ],
  "exhaustive": true,
  "nodes_explored": 1
}
""")
    graph_file = tmp_path / "c6.edges"
    graph_file.write_text("c0 c1\nc1 c2\nc2 c3\nc3 c4\nc4 c5\nc5 c0\n")
    edits = tmp_path / "edits.txt"
    edits.write_text("add c0 c3\nremove c0 c3\n")
    entry = """\
    {{
      "op": "{op}",
      "u": "c0",
      "v": "c3",
      "witness_size": 6,
      "verified": true
    }}"""
    assert run_cli(
        capsys, "perturb", str(graph_file), "--witness", "c0", "c1", "--edits", str(edits)
    ) == (0, '{\n  "schema": "metric-dim/1",\n  "trace": [\n'
          + entry.format(op="add") + ",\n" + entry.format(op="remove") + "\n  ]\n}\n")
    code, out = run_cli(capsys, "verify", "--filter", "strip.sequences", "--format", "json")
    assert (code, re.sub(r'"elapsed": \d+\.\d+\n', '"elapsed": ELAPSED\n', out)) == (0, """\
{
  "schema": "metric-dim/1",
  "reports": [
    {
      "claim_id": "strip.sequences",
      "status": "PASS",
      "details": "28 sequence values match",
      "elapsed": ELAPSED
    }
  ]
}
""")
    kite = ("family", "kite", "--branches", "3", "--tail-len", "2")
    assert run_cli(capsys, *kite) == (0, (
        "# kite branches=3 tail-len=2\n# witness: d1_0 d2_0 d3_0\n# missing-edge: u v\n"
        + KITE_3_2_EDGES
    ))
    edges = [line.split() for line in KITE_3_2_EDGES.splitlines()]
    payload = {
        "schema": "metric-dim/1",
        "vertices": sorted({v for edge in edges for v in edge}),
        "edges": edges,
        "family": "kite",
        "branches": 3,
        "tail_len": 2,
        "witness": ["d1_0", "d2_0", "d3_0"],
        "missing_edge": ["u", "v"],
    }
    assert run_cli(capsys, *kite, "--format", "json") == (0, json.dumps(payload, indent=2) + "\n")
