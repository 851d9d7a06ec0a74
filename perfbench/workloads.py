"""Workloads: the instances, input files and operations of each benchmark run.

Every operation is one `metricdim` command line, issued in-process through
`metricdim.cli.main` by a single closed-loop client. Instances are built with
`metricdim.families` and `metricdim.generators`; everything random derives
from the workload seed, except `rand-50` and `rand-300`, which stay at the
fixed generators `random_connected_graph(Random(n), n, 0.1)`. The program
only ever sees the files written here and the argument vectors.

`tiny=True` builds each workload at a size that runs in well under a second,
for the benchmark's own tests; its expected values are recorded like the
full ones.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from metricdim import families, generators, ternary
from metricdim.graph import Graph, add_edge

import gate

CHAINS = 150
CHAIN_FAMILIES = ("strip", "kite", "pages", "ladder", "rand")
CHECKS = 64
CLAIM_IDS = (
    "corpus.degree-bound", "exact.audit", "kite.dimensions", "kite.witness-flip",
    "ladder.dimension", "nonbinary.block-bound", "nonbinary.exact-dim",
    "nonbinary.ramp-codes", "nonbinary.resolving", "perturb.removal-bound",
    "perturb.soundness", "strip.canonical-resolves", "strip.oracle-bfs",
    "strip.sequence-laws", "strip.sequences", "strip.unresolved-pair",
    "tail.sandwich", "ternary.canonical", "ternary.max-n4", "ternary.max-small",
)


def _with_missing_edge(built: tuple[Graph, tuple[str, ...], tuple[str, str]]) -> Graph:
    graph, _, missing = built
    return add_edge(graph, *missing)


def _pages(d: int) -> Graph:
    spec = families.NonbinarySpec(d, ternary.canonical_conflict_free(d))
    return _with_missing_edge(families.nonbinary_graph(spec))


def _kite(branches: int) -> Graph:
    return _with_missing_edge(families.kite_graph(families.KiteSpec(branches, 4)))


def _strip(i: int, cols: int) -> Graph:
    return families.strip_graph(families.StripSpec(i, True, cols))


def _rand(n: int) -> Graph:
    return generators.random_connected_graph(random.Random(n), n, 0.1)


@dataclass(frozen=True)
class Instance:
    layer: str  # module whose builder makes the graph: families or generators
    build: Callable[[], Graph]
    dimension: int
    witness: tuple[str, ...]


# Dimension and lex-least witness of each instance, recorded at the commit
# that added the benchmark; a run that returns anything else has failed.
INSTANCES = {
    "pages-d2+edge": Instance("families", lambda: _pages(2), 7,
                              ("a_00", "a_01", "a_10", "a_11", "b_02", "b_20", "p_12_1")),
    "kite-5+edge": Instance("families", lambda: _kite(5), 9,
                            ("a1", "a2", "a3", "a4", "d1_0", "d2_0", "d3_0", "d4_0", "d5_0")),
    "strip-2-primed-40": Instance("families", lambda: _strip(2, 40), 5,
                                  ("v0_0", "v0_1", "v10_0", "v10_1", "v11_0")),
    "rand-50": Instance("generators", lambda: _rand(50), 5,
                        ("n10", "n3", "n38", "n45", "n47")),
    "path-1000": Instance("generators", lambda: generators.path_graph(1000), 1, ("p0",)),
    "cycle-800": Instance("generators", lambda: generators.cycle_graph(800), 2, ("c0", "c1")),
    "ladder-400": Instance("generators", lambda: generators.ladder_graph(400), 2, ("v0_0", "v0_1")),
    "strip-1-primed-100": Instance("families", lambda: _strip(1, 100), 3, ("v0_0", "v0_1", "v11_0")),
    # tiny sizes, for the benchmark's own tests
    "kite-3+edge": Instance("families", lambda: _kite(3), 5, ("a1", "a2", "d1_0", "d2_0", "d3_0")),
    "pages-d1+edge": Instance("families", lambda: _pages(1), 2, ("a_0", "b_2")),
    "strip-1-primed-12": Instance("families", lambda: _strip(1, 12), 3, ("v0_0", "v0_1", "v11_0")),
    "rand-12": Instance("generators", lambda: _rand(12), 3, ("n0", "n10", "n2")),
    "path-40": Instance("generators", lambda: generators.path_graph(40), 1, ("p0",)),
    "cycle-30": Instance("generators", lambda: generators.cycle_graph(30), 2, ("c0", "c1")),
    "ladder-12": Instance("generators", lambda: generators.ladder_graph(12), 2, ("v0_0", "v0_1")),
}

DIM_SETS = {
    # A pass over these takes about 4 s, so several passes fit in one run.
    "dim-families": (("pages-d2+edge", "kite-5+edge", "strip-2-primed-40", "rand-50"),
                     ("kite-3+edge", "pages-d1+edge", "strip-1-primed-12", "rand-12")),
    "dim-large": (("path-1000", "cycle-800", "ladder-400", "strip-1-primed-100"),
                  ("path-40", "cycle-30", "ladder-12", "strip-1-primed-12")),
}
CHECK_GRAPH = ("rand-300", "rand-40")  # full, tiny


@dataclass(frozen=True)
class Op:
    kind: str  # dim | check | perturb | verify
    instance: str
    argv: tuple[str, ...]
    expect: dict  # what gate.judge compares the output against
    vertices: int = 0
    edges: int = 0


@dataclass
class Setup:
    ops: list[Op]
    instances: list[str]
    build_s: dict[str, float] = field(default_factory=lambda: {"families": 0.0, "generators": 0.0})
    # graphs whose search preparation the traced run times, by instance name
    prep: dict[str, Graph] = field(default_factory=dict)


def _timed(setup: Setup, layer: str, build: Callable[[], object]):
    start = time.perf_counter()
    built = build()
    setup.build_s[layer] += time.perf_counter() - start
    return built


def _write_graph(path: Path, graph: Graph) -> tuple[str, gate.Adjacency]:
    lines = [v for v in graph.vertices() if not graph.neighbors(v)]
    lines += [f"{u} {v}" for u, v in graph.edges()]
    text = "\n".join(lines) + "\n"
    path.write_text(text, encoding="utf-8")
    return str(path), gate.parse_edges(text)


def _edge_count(adj: gate.Adjacency) -> int:
    return sum(len(ns) for ns in adj.values()) // 2


def _dim_ops(setup: Setup, names: tuple[str, ...], workdir: Path) -> None:
    for name in names:
        inst = INSTANCES[name]
        graph = _timed(setup, inst.layer, inst.build)
        path, adj = _write_graph(workdir / f"{name}.txt", graph)
        expect = {"adj": adj, "dimension": inst.dimension, "witness": inst.witness}
        setup.ops.append(Op("dim", name, ("dim", path), expect, len(adj), _edge_count(adj)))
        setup.prep[name] = graph
        setup.instances.append(name)


def _grow_resolving(rng: random.Random, adj: gate.Adjacency, witness: list[str]) -> tuple[str, ...]:
    """Append random vertices to `witness` until it resolves the graph."""
    rest = [v for v in sorted(adj) if v not in witness]
    rng.shuffle(rest)
    table = gate.codes(adj, witness)
    while len(set(table.values())) < len(table):
        w = rest.pop()
        witness.append(w)
        dist = gate.bfs(adj, w)
        table = {v: code + (dist[v],) for v, code in table.items()}
    return tuple(witness)


def _check_ops(setup: Setup, seed: int, tiny: bool, workdir: Path) -> None:
    name = CHECK_GRAPH[tiny]
    n = int(name.split("-")[1])
    graph = _timed(setup, "generators", lambda: _rand(n))
    path, adj = _write_graph(workdir / f"{name}.txt", graph)
    rng = random.Random(f"dim-large/{seed}")
    verts = sorted(adj)
    ops = []
    while len(ops) < (4 if tiny else CHECKS):
        # A resolving witness and the same witness less its last landmark,
        # which by construction does not resolve: the two halves cost about
        # the same, so the latency distribution has one mode, not two.
        start = rng.sample(verts, rng.randint(2, 6))
        witness = _grow_resolving(rng, adj, list(start))
        if len(witness) == len(start):
            continue
        for w in (witness, witness[:-1]):
            expect = {"adj": adj, "witness": w}
            ops.append(Op("check", name, ("check", path, *w), expect, len(adj), _edge_count(adj)))
    rng.shuffle(ops)
    setup.ops += ops
    setup.prep[name] = graph
    setup.instances.append(name)


def _chain_base(rng: random.Random, family: str, k: int, t: float
                ) -> tuple[str, str, Callable[[], tuple[Graph, tuple[str, ...]]]]:
    """Name, builder layer and builder of the k-th graph of `family` with a
    known witness; `t` in [0, 1] spreads the sizes evenly over 48-100
    vertices, the same for every seed."""
    if family == "strip":
        i, cols = 1 + k % 2, 24 + round(26 * t)
        known = tuple(v.label for v in families.strip_canonical_set(i))
        return f"strip-{i}-primed-{cols}", "families", lambda: (_strip(i, cols), known)
    if family == "kite":
        m = 6 + round(6 * t)
        return f"kite-{m}", "families", lambda: families.kite_graph(families.KiteSpec(m, 4))[:2]
    if family == "pages":
        spec = families.NonbinarySpec(2, ternary.canonical_conflict_free(2))
        return "pages-d2", "families", lambda: families.nonbinary_graph(spec)[:2]
    if family == "ladder":
        cols = 24 + round(26 * t)
        return f"ladder-{cols}", "generators", lambda: (generators.ladder_graph(cols), ("v0_0", "v0_1"))
    n = 48 + round(52 * t)
    sub = random.Random(rng.random())
    return f"rand-{n}", "generators", lambda: (generators.random_connected_graph(sub, n, 0.05), ())


def _random_edits(rng: random.Random, adj: gate.Adjacency) -> list[tuple[str, str, str]]:
    """Two additions and two removals, in seeded order.

    An addition joins two vertices at distance 2 or 3, so no single step pulls
    most of the graph into the witness and the work of a pass does not swing
    with the seed. A removal never disconnects the graph; where every edge is
    a bridge, an addition takes its place.
    """
    ops = ["add", "add", "remove", "remove"]
    rng.shuffle(ops)
    verts = sorted(adj)
    edits = []
    for op in ops:
        step = None
        if op == "remove":
            edges = sorted((u, v) for u in adj for v in adj[u] if u < v)
            rng.shuffle(edges)
            step = next((("remove", u, v) for u, v in edges
                         if gate.connected(gate.apply_edit(adj, "remove", u, v))), None)
        while step is None:
            u = rng.choice(verts)
            near = sorted(x for x, d in gate.bfs(adj, u).items() if d in (2, 3))
            if near:
                step = ("add", u, rng.choice(near))
        edits.append(step)
        adj = gate.apply_edit(adj, *step)
    return edits


def _perturb_ops(setup: Setup, seed: int, tiny: bool, workdir: Path) -> None:
    rng = random.Random(f"perturb-chains/{seed}")
    count = 5 if tiny else CHAINS
    per_family = count // len(CHAIN_FAMILIES)
    for c in range(count):
        k = c // len(CHAIN_FAMILIES)
        family = CHAIN_FAMILIES[c % len(CHAIN_FAMILIES)]
        name, layer, build = _chain_base(rng, family, k, k / max(1, per_family - 1))
        graph, known = _timed(setup, layer, build)
        path, adj = _write_graph(workdir / f"chain-{c}.txt", graph)
        extra = rng.sample([v for v in sorted(adj) if v not in known], rng.randint(0, 2))
        start = list(known + tuple(extra)) or rng.sample(sorted(adj), 3)
        witness = _grow_resolving(rng, adj, start)
        edits = _random_edits(rng, adj)
        edits_path = workdir / f"chain-{c}.edits"
        edits_path.write_text("".join(f"{op} {u} {v}\n" for op, u, v in edits), encoding="utf-8")
        argv = ("perturb", path, "--witness", *witness, "--edits", str(edits_path))
        expect = {"adj": adj, "witness": witness, "edits": edits}
        setup.ops.append(Op("perturb", name, argv, expect, len(adj), _edge_count(adj)))
        if name not in setup.instances:
            setup.instances.append(name)


def build(workload: str, seed: int, workdir: Path, tiny: bool = False) -> Setup:
    """Build the instances of `workload`, write its files and list its operations."""
    setup = Setup([], [])
    if workload in DIM_SETS:
        _dim_ops(setup, DIM_SETS[workload][tiny], workdir)
        if workload == "dim-large":
            _check_ops(setup, seed, tiny, workdir)
    elif workload == "perturb-chains":
        _perturb_ops(setup, seed, tiny, workdir)
    elif workload == "verify-suite":
        argv = ("verify", "--format", "json")
        claims = CLAIM_IDS
        if tiny:
            argv += ("--filter", "strip.")
            claims = tuple(c for c in CLAIM_IDS if c.startswith("strip."))
        setup.ops.append(Op("verify", "verify", argv, {"claims": claims}))
        setup.instances.append("verify")
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return setup
