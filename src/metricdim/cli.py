"""Command-line front end.

Subcommands: gen, dim, check, perturb, family, ternary, verify. Graph
files use the edge-list format; `-` reads from stdin. Exit codes: 0 ok,
1 a verification came out false (or no witness within bounds), 2 usage
error, 3 budget exceeded, 4 internal error (an unexpected exception, or a
claim that crashed). The parser is built on the first call to `main` and
reused by every later call in the same process; handlers look up the
library functions they call when they run.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from functools import cache
from typing import Sequence

from . import claims, families, generators, ternary
from .errors import (
    BudgetError,
    ExceededError,
    MetricDimError,
    NotResolvingError,
)
from .graph import Graph, format_edge_list, parse_edge_list, to_dot
from .perturb import apply_edit_sequence, parse_edit_sequence
from .resolving import find_unresolved_pair, is_resolving, metric_dimension_exact

SCHEMA = "metric-dim/1"

EXIT_OK = 0
EXIT_FALSE = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3
EXIT_INTERNAL = 4


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _load_graph(path: str) -> Graph:
    return parse_edge_list(_read_text(path))


def _load_strings(path: str) -> list[str]:
    """One string per line; blank lines and `#` comment lines are skipped."""
    lines = (raw.strip() for raw in _read_text(path).splitlines())
    return [line for line in lines if line and not line.startswith("#")]


def _emit_json(payload: dict) -> None:
    print(json.dumps({"schema": SCHEMA, **payload}, indent=2))


def _emit_graph(graph: Graph, fmt: str, header: list[str] | None = None, extra: dict | None = None) -> None:
    if fmt == "dot":
        print(to_dot(graph), end="")
    elif fmt == "json":
        payload = {
            "vertices": list(graph.vertices()),
            "edges": [list(e) for e in graph.edges()],
        }
        if extra:
            payload.update(extra)
        _emit_json(payload)
    else:
        for line in header or []:
            print(f"# {line}")
        print(format_edge_list(graph), end="")


def _cmd_gen(args: argparse.Namespace) -> int:
    rng = random.Random(args.seed)
    if args.connected:
        graph = generators.random_connected_graph(rng, args.n, args.edge_prob)
    else:
        graph = generators.random_graph(rng, args.n, args.edge_prob)
    _emit_graph(graph, args.format, header=[f"random n={args.n} p={args.edge_prob} seed={args.seed}"])
    return EXIT_OK


def _cmd_dim(args: argparse.Namespace) -> int:
    graph = _load_graph(args.graph)
    result = metric_dimension_exact(graph, args.max_k, time_budget=args.budget)
    _emit_json(
        {
            "dimension": result.dimension,
            "witness": list(result.witness),
            "exhaustive": result.exhaustive,
            "nodes_explored": result.nodes_explored,
        }
    )
    return EXIT_OK


def _cmd_check(args: argparse.Namespace) -> int:
    graph = _load_graph(args.graph)
    pair = find_unresolved_pair(graph, args.witness)
    _emit_json(
        {
            "resolving": pair is None,
            "witness": list(args.witness),
            "unresolved_pair": list(pair) if pair else None,
        }
    )
    return EXIT_OK if pair is None else EXIT_FALSE


def _cmd_perturb(args: argparse.Namespace) -> int:
    graph = _load_graph(args.graph)
    steps = parse_edit_sequence(_read_text(args.edits))
    trajectory = apply_edit_sequence(graph, args.witness, steps)
    trace = []
    ok = True
    for step, (edited, witness) in zip(steps, trajectory[1:]):
        verified = is_resolving(edited, witness)
        ok = ok and verified
        trace.append(
            {
                "op": step.op.value,
                "u": step.u,
                "v": step.v,
                "witness_size": len(witness),
                "verified": verified,
            }
        )
    _emit_json({"trace": trace})
    return EXIT_OK if ok else EXIT_FALSE


def _cmd_family(args: argparse.Namespace) -> int:
    extra: dict = {}
    header: list[str] = []
    if args.family == "strip":
        spec = families.StripSpec(args.i, args.primed, args.cols)
        graph = families.strip_graph(spec)
        header = [f"strip i={args.i} primed={args.primed} cols={args.cols}"]
        extra = {"family": "strip", "i": args.i, "primed": args.primed, "cols": args.cols}
    elif args.family == "nonbinary":
        if args.canonical:
            strings = ternary.canonical_conflict_free(args.d)
        elif args.strings:
            strings = _load_strings(args.strings)
        else:
            raise ValueError("nonbinary needs --canonical or --strings FILE")
        spec = families.NonbinarySpec(args.d, strings)
        graph, witness, missing = families.nonbinary_graph(spec)
        header = [
            f"nonbinary d={args.d} pages={len(strings)}",
            f"witness: {' '.join(witness)}",
            f"missing-edge: {missing[0]} {missing[1]}",
        ]
        extra = {
            "family": "nonbinary",
            "d": args.d,
            "strings": list(strings),
            "witness": list(witness),
            "missing_edge": list(missing),
        }
    elif args.family == "kite":
        spec = families.KiteSpec(args.branches, args.tail_len)
        graph, witness, missing = families.kite_graph(spec)
        header = [
            f"kite branches={args.branches} tail-len={args.tail_len}",
            f"witness: {' '.join(witness)}",
            f"missing-edge: {missing[0]} {missing[1]}",
        ]
        extra = {
            "family": "kite",
            "branches": args.branches,
            "tail_len": args.tail_len,
            "witness": list(witness),
            "missing_edge": list(missing),
        }
    else:  # tail
        base = _load_graph(args.base)
        graph = families.tail_graph(families.TailSpec(base, args.attach, args.len))
        header = [f"tail base={args.base} attach={args.attach} len={args.len}"]
        extra = {"family": "tail", "attach": args.attach, "length": args.len}
    _emit_graph(graph, args.format, header=header, extra=extra)
    return EXIT_OK


def _cmd_ternary(args: argparse.Namespace) -> int:
    if args.action == "canonical":
        for s in ternary.canonical_conflict_free(args.n):
            print(s)
        return EXIT_OK
    if args.action == "max":
        size, witness = ternary.max_conflict_free_bruteforce(args.n)
        _emit_json({"n": args.n, "size": size, "witness": witness})
        return EXIT_OK
    # check
    strings = _load_strings(args.file)
    pair = ternary.first_conflict(strings)
    first_conflict = None if pair is None else list(pair)
    _emit_json({"conflict_free": pair is None, "count": len(strings), "first_conflict": first_conflict})
    return EXIT_OK if pair is None else EXIT_FALSE


def _cmd_verify(args: argparse.Namespace) -> int:
    reports = claims.run_verify_suite(args.filter, args.budget, args.seed)
    if args.format == "json":
        _emit_json(
            {
                "reports": [
                    {
                        "claim_id": r.claim_id,
                        "status": r.status,
                        "details": r.details,
                        "elapsed": round(r.elapsed, 3),
                    }
                    for r in reports
                ]
            }
        )
    else:
        for r in reports:
            print(f"{r.status:<8}{r.claim_id:<26}{r.elapsed:>8.2f}s  {r.details}")
        counts = {s: sum(1 for r in reports if r.status == s) for s in ("PASS", "FAIL", "ERROR", "SKIPPED")}
        print(
            f"{counts['PASS']} passed, {counts['FAIL']} failed, {counts['ERROR']} errors, "
            f"{counts['SKIPPED']} skipped",
            file=sys.stderr,
        )
    statuses = {r.status for r in reports}
    if "ERROR" in statuses:
        return EXIT_INTERNAL
    return EXIT_FALSE if "FAIL" in statuses else EXIT_OK


@cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and shared after that."""
    parser = argparse.ArgumentParser(
        prog="metricdim",
        description="Resolving sets, metric dimension, and edge perturbations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a seeded random graph")
    gen.add_argument("--n", type=int, required=True)
    gen.add_argument("--edge-prob", type=float, default=0.3)
    gen.add_argument("--seed", type=int, default=claims.DEFAULT_SEED)
    gen.add_argument("--connected", action="store_true")
    gen.add_argument("--format", choices=("edgelist", "dot", "json"), default="edgelist")
    gen.set_defaults(func=_cmd_gen)

    dim = sub.add_parser("dim", help="exact metric dimension of a graph file")
    dim.add_argument("graph")
    dim.add_argument("--max-k", type=int, default=None)
    dim.add_argument("--budget", type=float, default=300.0, help="seconds")
    dim.set_defaults(func=_cmd_dim)

    check = sub.add_parser("check", help="verify a witness resolves a graph")
    check.add_argument("graph")
    check.add_argument("witness", nargs="+")
    check.set_defaults(func=_cmd_check)

    perturb = sub.add_parser("perturb", help="transfer a witness over an edit list")
    perturb.add_argument("graph")
    perturb.add_argument("--witness", nargs="+", required=True)
    perturb.add_argument("--edits", required=True, help="file of 'add u v' / 'remove u v' lines")
    perturb.set_defaults(func=_cmd_perturb)

    family = sub.add_parser("family", help="generate one of the studied families")
    fam_sub = family.add_subparsers(dest="family", required=True)
    strip = fam_sub.add_parser("strip")
    strip.add_argument("--i", type=int, required=True)
    strip.add_argument("--primed", action="store_true")
    strip.add_argument("--cols", type=int, required=True)
    nonbinary = fam_sub.add_parser("nonbinary")
    nonbinary.add_argument("--d", type=int, required=True)
    nonbinary.add_argument("--canonical", action="store_true")
    nonbinary.add_argument("--strings", help="file of page strings, one per line")
    kite = fam_sub.add_parser("kite")
    kite.add_argument("--branches", type=int, default=5)
    kite.add_argument("--tail-len", type=int, default=4)
    tail = fam_sub.add_parser("tail")
    tail.add_argument("--base", required=True)
    tail.add_argument("--attach", required=True)
    tail.add_argument("--len", type=int, required=True)
    for p in (strip, nonbinary, kite, tail):
        p.add_argument("--format", choices=("edgelist", "dot", "json"), default="edgelist")
    family.set_defaults(func=_cmd_family)

    tern = sub.add_parser("ternary", help="conflict-free ternary string tools")
    tern_sub = tern.add_subparsers(dest="action", required=True)
    canonical = tern_sub.add_parser("canonical")
    canonical.add_argument("--n", type=int, required=True)
    tmax = tern_sub.add_parser("max")
    tmax.add_argument("--n", type=int, required=True)
    tcheck = tern_sub.add_parser("check")
    tcheck.add_argument("file")
    tern.set_defaults(func=_cmd_ternary)

    verify = sub.add_parser("verify", help="run the claim-verification suite")
    verify.add_argument("--filter", default="", help="claim-id prefix")
    verify.add_argument("--budget", type=float, default=claims.DEFAULT_BUDGET, help="seconds")
    verify.add_argument("--seed", type=int, default=claims.DEFAULT_SEED)
    verify.add_argument("--format", choices=("text", "json"), default="text")
    verify.set_defaults(func=_cmd_verify)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        return args.func(args)
    except BudgetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (ExceededError, NotResolvingError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FALSE
    except (MetricDimError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
