"""Correctness gate for benchmark outputs, independent of the code under test.

Every check here runs its own breadth-first search over adjacency sets parsed
from the edge-list text the benchmark wrote, and never calls into metricdim.
`judge` returns None for a correct output and a one-line reason otherwise, so
a wrong answer is counted as a failed operation, never as a fast one.
"""

from __future__ import annotations

import json
from collections import deque

SCHEMA = "metric-dim/1"

Adjacency = dict[str, set[str]]


def parse_edges(text: str) -> Adjacency:
    """Adjacency sets of an edge-list text (one or two labels per line)."""
    adj: Adjacency = {}
    for line in text.splitlines():
        tokens = line.split()
        if not tokens or tokens[0].startswith("#"):
            continue
        for label in tokens:
            adj.setdefault(label, set())
        if len(tokens) == 2:
            u, v = tokens
            adj[u].add(v)
            adj[v].add(u)
    return adj


def bfs(adj: Adjacency, source: str) -> dict[str, int]:
    dist = {source: 0}
    queue = deque((source,))
    while queue:
        x = queue.popleft()
        for y in adj[x]:
            if y not in dist:
                dist[y] = dist[x] + 1
                queue.append(y)
    return dist


def connected(adj: Adjacency) -> bool:
    return not adj or len(bfs(adj, next(iter(adj)))) == len(adj)


def codes(adj: Adjacency, landmarks) -> dict[str, tuple[int, ...]]:
    """Distance vector of every vertex to `landmarks` (-1 when unreachable)."""
    columns = [bfs(adj, w) for w in landmarks]
    return {v: tuple(col.get(v, -1) for col in columns) for v in adj}


def resolves(adj: Adjacency, landmarks) -> bool:
    if any(w not in adj for w in landmarks):
        return False
    table = codes(adj, landmarks)
    return len(set(table.values())) == len(table)


def least_unresolved_pair(adj: Adjacency, landmarks) -> tuple[str, str] | None:
    """Lexicographically least pair of distinct vertices sharing a code."""
    groups: dict[tuple[int, ...], list[str]] = {}
    for v, code in codes(adj, landmarks).items():
        groups.setdefault(code, []).append(v)
    pairs = [tuple(sorted(g)[:2]) for g in groups.values() if len(g) > 1]
    return min(pairs) if pairs else None


def transfer(adj: Adjacency, witness: tuple[str, ...], op: str, u: str, v: str) -> tuple[str, ...]:
    """Witness after one edit, by the transfer rule, on the pre-edit graph.

    An addition of (u, v) pulls in every vertex whose distance from some
    landmark w lies between d(w, u) and d(w, v); a removal pulls in u and v.
    """
    if op == "add":
        captured: set[str] = set()
        for w in witness:
            dist = bfs(adj, w)
            lo, hi = sorted((dist[u], dist[v]))
            captured.update(x for x, d in dist.items() if lo <= d <= hi)
    else:
        captured = {u, v}
    return witness + tuple(sorted(captured.difference(witness)))


def apply_edit(adj: Adjacency, op: str, u: str, v: str) -> Adjacency:
    edited = {x: set(ns) for x, ns in adj.items()}
    if op == "add":
        edited[u].add(v)
        edited[v].add(u)
    else:
        edited[u].discard(v)
        edited[v].discard(u)
    return edited


def _payload(rc: int, out: str, want_rc: int) -> dict:
    if rc != want_rc:
        raise ValueError(f"exit code {rc}, expected {want_rc}")
    payload = json.loads(out)
    if payload.get("schema") != SCHEMA:
        raise ValueError(f"schema {payload.get('schema')!r}")
    return payload


def _judge_dim(expect: dict, rc: int, out: str) -> None:
    payload = _payload(rc, out, 0)
    witness = tuple(payload["witness"])
    if payload["dimension"] != expect["dimension"] or payload["dimension"] != len(witness):
        raise ValueError(f"dimension {payload['dimension']}, expected {expect['dimension']}")
    if witness != expect["witness"]:
        raise ValueError(f"witness {witness}, expected {expect['witness']}")
    if payload["exhaustive"] is not True:
        raise ValueError("search not exhaustive")
    if not resolves(expect["adj"], witness):
        raise ValueError(f"witness {witness} does not resolve the graph")


def _judge_check(expect: dict, rc: int, out: str) -> None:
    pair = least_unresolved_pair(expect["adj"], expect["witness"])
    payload = _payload(rc, out, 0 if pair is None else 1)
    if tuple(payload["witness"]) != expect["witness"]:
        raise ValueError("witness not echoed")
    if payload["resolving"] is not (pair is None):
        raise ValueError(f"resolving={payload['resolving']}, BFS says {pair is None}")
    reported = tuple(payload["unresolved_pair"]) if payload["unresolved_pair"] else None
    if reported != pair:
        raise ValueError(f"unresolved pair {reported}, expected {pair}")


def _judge_perturb(expect: dict, rc: int, out: str) -> None:
    trace = _payload(rc, out, 0)["trace"]
    if len(trace) != len(expect["edits"]):
        raise ValueError(f"{len(trace)} steps reported, {len(expect['edits'])} given")
    adj, witness = expect["adj"], expect["witness"]
    for step, (op, u, v) in zip(trace, expect["edits"]):
        if (step["op"], step["u"], step["v"]) != (op, u, v) or step["verified"] is not True:
            raise ValueError(f"step {step} not verified for {op} {u} {v}")
        witness = transfer(adj, witness, op, u, v)
        adj = apply_edit(adj, op, u, v)
        if step["witness_size"] != len(witness):
            raise ValueError(f"{op} {u} {v}: size {step['witness_size']}, rule gives {len(witness)}")
        if not resolves(adj, witness):
            raise ValueError(f"{op} {u} {v}: transferred witness does not resolve")


def _judge_verify(expect: dict, rc: int, out: str) -> None:
    reports = _payload(rc, out, 0)["reports"]
    ids = tuple(r["claim_id"] for r in reports)
    if ids != expect["claims"]:
        raise ValueError(f"claims {ids}, expected {expect['claims']}")
    failed = [r["claim_id"] for r in reports if r["status"] != "PASS"]
    if failed:
        raise ValueError(f"claims not PASS: {failed}")


_JUDGES = {
    "dim": _judge_dim,
    "check": _judge_check,
    "perturb": _judge_perturb,
    "verify": _judge_verify,
}


def judge(kind: str, expect: dict, rc: int, out: str) -> str | None:
    """None when the output of one operation is correct, else the reason."""
    try:
        _JUDGES[kind](expect, rc, out)
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        return f"{type(exc).__name__}: {exc}"
    return None
