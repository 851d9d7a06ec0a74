"""Registry and runner for the claim-verification suite.

Each claim is a self-contained check over the library: fixed distance
sequences, oracle-versus-BFS sweeps, randomized soundness trials, exact
search audits. The maximum-degree bound is checked by its definition, with
no exact search: no vertex set of the largest size the bound excludes
resolves. Claims report PASS/FAIL with a detail string; a claim is
SKIPPED only when the time budget is already spent before it starts.
Randomized claims derive their generator from the suite seed and
their own id, so a fixed seed reproduces every trial.
"""

from __future__ import annotations

import itertools
import math
import random
import time
from dataclasses import dataclass
from typing import Callable

from . import families, generators, ternary
from .graph import Graph, add_edge, bfs_distances, is_connected, max_degree, remove_edge
from .perturb import EditOp, EditStep, apply_edit_sequence
from .resolving import (
    _code_classes,
    block_lower_bound_check,
    find_unresolved_pair,
    is_resolving,
    metric_code,
    metric_dimension_exact,
    metric_dimension_reference,
)

DEFAULT_SEED = 1729
DEFAULT_BUDGET = 600.0


class ClaimFailure(Exception):
    """Raised by a claim body when the checked statement does not hold."""


@dataclass(frozen=True)
class ClaimReport:
    """One claim's outcome; `verify --format json` prints these fields."""

    claim_id: str
    status: str  # PASS | FAIL | SKIPPED | ERROR
    details: str
    elapsed: float


def _rng(seed: int, claim_id: str) -> random.Random:
    return random.Random(f"{seed}/{claim_id}")


# frozen expected prefixes of the strip distance sequences for i = 2
_SAME_SIDE_I2 = (0, 1, 1, 2, 2, 2, 2, 3, 3, 4, 4, 4, 4, 5)
_CROSS_SIDE_I2 = (1, 1, 1, 1, 2, 2, 3, 3, 3, 3, 4, 4, 5, 5)


def claim_strip_sequences(seed: int) -> str:
    same = tuple(families.same_side_distance(2, k) for k in range(14))
    cross = tuple(families.cross_side_distance(2, k) for k in range(14))
    if same != _SAME_SIDE_I2:
        raise ClaimFailure(f"same-side sequence mismatch: {same}")
    if cross != _CROSS_SIDE_I2:
        raise ClaimFailure(f"cross-side sequence mismatch: {cross}")
    for i in range(1, 7):
        if families.same_side_distance(i, 0) != 0:
            raise ClaimFailure(f"same_side_distance({i}, 0) != 0")
    return "28 sequence values match"


def claim_strip_oracle_bfs(seed: int) -> str:
    checked = 0
    for i in (1, 2, 3):
        n_cols = 40
        g = families.strip_graph(families.StripSpec(i, True, n_cols))
        interior = range(i + 1, n_cols - i - 1)
        for a in interior:
            for b in (0, 1):
                dist = bfs_distances(g, families.StripVertex(a, b).label)
                for c in interior:
                    for d in (0, 1):
                        if (a, b) >= (c, d):
                            continue
                        gap = abs(a - c)
                        expected = (
                            families.same_side_distance(i, gap)
                            if b == d
                            else families.cross_side_distance(i, gap)
                        )
                        actual = dist[families.StripVertex(c, d).label]
                        if actual != expected:
                            raise ClaimFailure(
                                f"i={i}: d(v{a}_{b}, v{c}_{d}) = {actual}, oracle says {expected}"
                            )
                        checked += 1
    return f"{checked} interior pairs match the closed forms"


def claim_strip_sequence_laws(seed: int) -> str:
    checked = 0
    for i in range(1, 7):
        same = families.same_side_distance
        cross = families.cross_side_distance
        for k in range(0, 201):
            # monotone, including the interleaved comparisons
            if not (
                same(i, k) <= same(i, k + 1)
                and cross(i, k) <= cross(i, k + 1)
                and same(i, k) <= cross(i, k + 1)
                and cross(i, k) <= same(i, k + 1)
            ):
                raise ClaimFailure(f"monotone violated at i={i}, k={k}")
            # opposite: the two rows must split within any i+1 consecutive gaps
            if not any(same(i, k + j) != cross(i, k + j) for j in range(i + 1)):
                raise ClaimFailure(f"opposite violated at i={i}, k={k}")
            # sameside: a full plateau on one row forces a step on the other
            if all(same(i, k) == same(i, k + j) for j in range(1, i + 2)):
                if not cross(i, k + i) < cross(i, k + i + 1):
                    raise ClaimFailure(f"sameside (same row) violated at i={i}, k={k}")
            if all(cross(i, k) == cross(i, k + j) for j in range(1, i + 2)):
                if not same(i, k + i) < same(i, k + i + 1):
                    raise ClaimFailure(f"sameside (cross row) violated at i={i}, k={k}")
            # diagonal
            if not (same(i, k) < cross(i, k + i + 1) and cross(i, k) < same(i, k + i + 1)):
                raise ClaimFailure(f"diagonal violated at i={i}, k={k}")
            checked += 1
    return f"4 law families hold at {checked} (i, k) points"


def claim_strip_canonical_resolves(seed: int) -> str:
    cases = 0
    for i in (1, 2, 3):
        witness = [w.label for w in families.strip_canonical_set(i)]
        if len(witness) != 2 * i + 1:
            raise ClaimFailure(f"canonical set for i={i} has size {len(witness)}")
        for n_cols in (10, 20, 40):
            g = families.strip_graph(families.StripSpec(i, True, n_cols))
            if not is_resolving(g, witness):
                pair = find_unresolved_pair(g, witness)
                raise ClaimFailure(f"i={i}, cols={n_cols}: unresolved pair {pair}")
            cases += 1
    return f"canonical sets resolve all {cases} primed windows"


def claim_strip_unresolved_pair(seed: int) -> str:
    rng = _rng(seed, "strip.unresolved-pair")
    checked = 0
    for i in (1, 2, 3):
        n_cols = 20
        g = families.strip_graph(families.StripSpec(i, False, n_cols))
        for _ in range(50):
            max_col = rng.randint(0, n_cols - 2)
            pool = [
                families.StripVertex(a, b) for a in range(max_col + 1) for b in (0, 1)
            ]
            witness = rng.sample(pool, rng.randint(1, min(6, len(pool))))
            lo, hi = families.strip_unresolved_pair(witness)
            k = lo.column
            labels = [w.label for w in witness]
            code_lo = metric_code(g, labels, lo.label)
            code_hi = metric_code(g, labels, hi.label)
            if code_lo != code_hi:
                raise ClaimFailure(f"i={i}: pair {lo.label},{hi.label} split by {labels}")
            expected = tuple(-(-(k - w.column) // i) for w in witness)
            if code_lo != expected:
                raise ClaimFailure(
                    f"i={i}: code {code_lo} differs from ceil((k-a)/i) = {expected}"
                )
            checked += 1
    return f"{checked} random witnesses leave the predicted pair unsplit"


def claim_ladder_dimension(seed: int) -> str:
    for n in range(2, 11):
        for g in (
            generators.ladder_graph(n),
            families.strip_graph(families.StripSpec(0, True, n)),
        ):
            result = metric_dimension_exact(g)
            if result.dimension != 2:
                raise ClaimFailure(f"ladder with {n} columns: dimension {result.dimension}")
    return "dimension 2 for 2..10 columns (product and strip forms)"


def _random_resolving_witness(rng: random.Random, g: Graph) -> list[str]:
    """A random sample of `g`'s vertices, grown in random order until it resolves.

    The sample comes first and the other vertices follow in random order;
    the witness is the shortest prefix of that order that resolves, read
    off `_code_classes` with no landmark set apart by its own row, and
    never shorter than the sample.
    """
    verts = g.vertices()
    witness = rng.sample(verts, rng.randint(1, max(1, len(verts) // 3)))
    missing = [v for v in verts if v not in witness]
    rng.shuffle(missing)
    order = witness + missing[::-1]
    return order[: max(len(witness), _code_classes(g, order, apart=False)[1])]


def _non_bridges(g: Graph) -> list[tuple[str, str]]:
    """The edges whose removal leaves `g` connected, in `g.edges()` order."""
    return [e for e in g.edges() if is_connected(remove_edge(g, *e))]


def claim_perturb_soundness(seed: int) -> str:
    rng = _rng(seed, "perturb.soundness")
    additions = removals = 0
    for _ in range(1000):
        n = rng.randint(4, 12)
        g = generators.random_connected_graph(rng, n, rng.uniform(0.1, 0.5))
        witness = _random_resolving_witness(rng, g)
        non_edges = [e for e in itertools.combinations(g.vertices(), 2) if not g.has_edge(*e)]
        # the removals are built only when one is drawn; with none, add instead
        # (a graph with no non-edge is complete on n >= 4, so it has removals)
        safe_removals = [] if rng.random() < 0.5 and non_edges else _non_bridges(g)
        do_add = not safe_removals
        if do_add:
            step = EditStep(EditOp.ADD, *rng.choice(non_edges))
            additions += 1
        else:
            step = EditStep(EditOp.REMOVE, *rng.choice(safe_removals))
            removals += 1
        edited, bigger = apply_edit_sequence(g, witness, [step])[-1]
        if not is_resolving(edited, bigger):
            raise ClaimFailure(
                f"witness transfer failed: n={n}, edit=({step.u},{step.v}), add={do_add}"
            )
    return f"{additions} additions + {removals} removals all verified"


def claim_perturb_removal_bound(seed: int) -> str:
    rng = _rng(seed, "perturb.removal-bound")
    trials = 0
    while trials < 300:
        n = rng.randint(4, 9)
        g = generators.random_connected_graph(rng, n, rng.uniform(0.15, 0.5))
        candidates = _non_bridges(g)
        if not candidates:
            continue
        u, v = rng.choice(candidates)
        before = metric_dimension_exact(g).dimension
        after = metric_dimension_exact(remove_edge(g, u, v)).dimension
        if after > before + 2:
            raise ClaimFailure(f"removal raised dimension {before} -> {after}")
        trials += 1
    return f"{trials} removals stayed within the +2 bound"


def _named_corpus() -> list[tuple[str, Graph]]:
    corpus: list[tuple[str, Graph]] = []
    corpus += [(f"path-{n}", generators.path_graph(n)) for n in range(2, 11)]
    corpus += [(f"cycle-{n}", generators.cycle_graph(n)) for n in range(3, 11)]
    corpus += [(f"complete-{n}", generators.complete_graph(n)) for n in range(2, 8)]
    corpus.append(("bipartite-2-3", generators.complete_bipartite_graph(2, 3)))
    corpus.append(("bipartite-3-3", generators.complete_bipartite_graph(3, 3)))
    corpus.append(("star-1-8", generators.complete_bipartite_graph(1, 8)))
    corpus += [(f"ladder-{n}", generators.ladder_graph(n)) for n in range(2, 11)]
    for i in (1, 2):
        spec = families.StripSpec(i, True, 8)
        corpus.append((f"strip-{i}-primed-8", families.strip_graph(spec)))
    kite, _, _ = families.kite_graph(families.KiteSpec())
    corpus.append(("kite-5-4", kite))
    corpus.append(("pages-d2", _canonical_pages_d2()[1]))
    return corpus


def _audit_sample(seed: int) -> list[Graph]:
    rng = _rng(seed, "exact.audit")
    return [
        generators.random_connected_graph(rng, rng.randint(2, 7), rng.uniform(0.2, 0.7))
        for _ in range(200)
    ]


def claim_corpus_degree_bound(seed: int) -> str:
    graphs = _named_corpus() + [
        (f"audit-{i}", g) for i, g in enumerate(_audit_sample(seed))
    ]
    for name, g in graphs:
        degree = max_degree(g)
        size = 0  # the largest s with 3^s - 1 < degree, when degree > 0
        while 3 ** (size + 1) - 1 < degree:
            size += 1
        # every smaller set lies inside one of these, so it does not resolve either
        for witness in itertools.combinations(g.vertices(), size):
            if degree and is_resolving(g, witness):
                raise ClaimFailure(
                    f"{name}: {witness} resolves, but degree {degree} exceeds "
                    f"3^{size} - 1 = {3 ** size - 1}"
                )
    return f"degree bound holds on {len(graphs)} corpus graphs"


def claim_ternary_canonical(seed: int) -> str:
    for n in range(1, 9):
        strings = ternary.canonical_conflict_free(n)
        expected = 2**n + n * 2 ** (n - 1)
        if len(strings) != expected:
            raise ClaimFailure(f"n={n}: {len(strings)} strings, expected {expected}")
        if not ternary.is_conflict_free(strings):
            raise ClaimFailure(f"n={n}: canonical set conflicts")
    return "canonical sets conflict-free and correctly sized for n = 1..8"


def claim_ternary_max_small(seed: int) -> str:
    for n in (1, 2, 3):
        size, witness = ternary.max_conflict_free_bruteforce(n)
        expected = 2**n + n * 2 ** (n - 1)
        if size != expected:
            raise ClaimFailure(f"n={n}: maximum {size}, expected {expected}")
        if not ternary.is_conflict_free(witness) or len(witness) != size:
            raise ClaimFailure(f"n={n}: witness invalid")
    return "brute-force maxima match 2^n + n*2^(n-1) for n = 1..3"


def claim_ternary_max_n4(seed: int) -> str:
    size, witness = ternary.max_conflict_free_bruteforce(4)
    if size != 48:
        raise ClaimFailure(f"n=4: maximum {size}, expected 48")
    if not ternary.is_conflict_free(witness):
        raise ClaimFailure("n=4: witness conflicts")
    return "brute-force maximum for n = 4 is 48"


def _canonical_pages_d2():
    spec = families.NonbinarySpec(2, ternary.canonical_conflict_free(2))
    graph, witness, missing = families.nonbinary_graph(spec)
    return spec, graph, witness, missing


def claim_nonbinary_resolving(seed: int) -> str:
    _, graph, witness, _ = _canonical_pages_d2()
    if graph.vertex_count != 48:
        raise ClaimFailure(f"expected 48 vertices, got {graph.vertex_count}")
    if not is_resolving(graph, witness):
        raise ClaimFailure(f"unresolved pair: {find_unresolved_pair(graph, witness)}")
    return "w0..w2 resolve the 48-vertex page graph (dimension <= 3)"


def claim_nonbinary_ramp_codes(seed: int) -> str:
    spec, graph, _, _ = _canonical_pages_d2()
    digit_hubs = [f"w{j}" for j in range(1, spec.d + 1)]
    midpoints = families.nonbinary_ramp_midpoints(spec)
    for label, i, x in midpoints:
        predicted = families.ramp_midpoint_code(i, x)
        actual = metric_code(graph, digit_hubs, label)
        if actual != predicted:
            raise ClaimFailure(f"{label}: BFS code {actual}, predicted {predicted}")
    return f"all {len(midpoints)} ramp midpoints match their predicted codes"


def claim_nonbinary_block_bound(seed: int) -> str:
    spec, graph, _, missing = _canonical_pages_d2()
    blocks, reps = families.nonbinary_page_blocks(spec)
    edited = add_edge(graph, *missing)
    if not block_lower_bound_check(edited, blocks, reps):
        raise ClaimFailure("page blocks do not certify the bound after the edge")
    if block_lower_bound_check(graph, blocks, reps):
        raise ClaimFailure("page blocks certify a bound even without the edge")
    bound = len(blocks) - 1
    return f"after adding c--w0 the 8 pages certify dimension >= {bound}"


def claim_nonbinary_exact_dim(seed: int) -> str:
    _, graph, _, missing = _canonical_pages_d2()
    result = metric_dimension_exact(add_edge(graph, *missing))
    if result.dimension != 7:
        raise ClaimFailure(f"exact dimension {result.dimension}, expected 7")
    return f"exact dimension after the edge: {result.dimension}"


def claim_kite_witness_flip(seed: int) -> str:
    spec = families.KiteSpec()
    graph, suggested, missing = families.kite_graph(spec)
    expected_vertices = 2 + spec.branches * (4 + spec.tail_len)
    if graph.vertex_count != expected_vertices:
        raise ClaimFailure(f"expected {expected_vertices} vertices, got {graph.vertex_count}")
    if not is_resolving(graph, suggested):
        raise ClaimFailure(f"suggested witness fails: {find_unresolved_pair(graph, suggested)}")
    edited = add_edge(graph, *missing)
    pair = find_unresolved_pair(edited, suggested)
    if pair is None:
        raise ClaimFailure("suggested witness still resolves after the hub edge")
    if not all(label.startswith("a") for label in pair):
        raise ClaimFailure(f"unresolved pair {pair} is not a far-endpoint pair")
    return f"witness of size {len(suggested)} works before; pair {pair} collides after"


def claim_kite_dimensions(seed: int) -> str:
    spec = families.KiteSpec()
    graph, _, missing = families.kite_graph(spec)
    before = metric_dimension_exact(graph).dimension
    after = metric_dimension_exact(add_edge(graph, *missing)).dimension
    if (before, after) != (5, 9):
        raise ClaimFailure(f"dimension {before} -> {after}, expected 5 -> 9")
    delta = after - before
    # m - 2 is the claim's bound, printed as stated; it is not tight: the ILP
    # optima in tests/test_oracle.py (9, 11, 13 for m = 5, 6, 7 with the
    # edge, on base dimension m) give delta = m - 1
    floor = spec.branches - 2
    return f"dimension {before} -> {after} (delta {delta}, expected >= {floor}: {delta >= floor})"


def claim_tail_sandwich(seed: int) -> str:
    rng = _rng(seed, "tail.sandwich")
    bases = 0
    checks = 0
    while bases < 100:
        n = rng.randint(3, 9)
        base = generators.random_connected_graph(rng, n, rng.uniform(0.15, 0.6))
        attach = rng.choice(base.vertices())
        low = metric_dimension_exact(base).dimension
        for length in range(1, 6):
            extended = families.tail_graph(families.TailSpec(base, attach, length))
            mid = metric_dimension_exact(extended).dimension
            if not low <= mid <= low + 2:
                raise ClaimFailure(
                    f"base dimension {low}, tail length {length} gives {mid}"
                )
            checks += 1
        bases += 1
    return f"{checks} tail graphs over {bases} bases stayed inside the sandwich"


def claim_exact_audit(seed: int) -> str:
    sample = _audit_sample(seed)
    for idx, g in enumerate(sample):
        pruned = metric_dimension_exact(g)
        reference = metric_dimension_reference(g)
        if pruned.dimension != reference.dimension or pruned.witness != reference.witness:
            raise ClaimFailure(
                f"graph {idx}: pruned {pruned.dimension}/{pruned.witness} vs "
                f"reference {reference.dimension}/{reference.witness}"
            )
    return f"pruned and unpruned searches agree on {len(sample)} graphs"


CLAIMS: dict[str, Callable[[int], str]] = {
    "corpus.degree-bound": claim_corpus_degree_bound,
    "exact.audit": claim_exact_audit,
    "kite.dimensions": claim_kite_dimensions,
    "kite.witness-flip": claim_kite_witness_flip,
    "ladder.dimension": claim_ladder_dimension,
    "nonbinary.block-bound": claim_nonbinary_block_bound,
    "nonbinary.exact-dim": claim_nonbinary_exact_dim,
    "nonbinary.ramp-codes": claim_nonbinary_ramp_codes,
    "nonbinary.resolving": claim_nonbinary_resolving,
    "perturb.removal-bound": claim_perturb_removal_bound,
    "perturb.soundness": claim_perturb_soundness,
    "strip.canonical-resolves": claim_strip_canonical_resolves,
    "strip.oracle-bfs": claim_strip_oracle_bfs,
    "strip.sequence-laws": claim_strip_sequence_laws,
    "strip.sequences": claim_strip_sequences,
    "strip.unresolved-pair": claim_strip_unresolved_pair,
    "tail.sandwich": claim_tail_sandwich,
    "ternary.canonical": claim_ternary_canonical,
    "ternary.max-n4": claim_ternary_max_n4,
    "ternary.max-small": claim_ternary_max_small,
}


def run_verify_suite(
    prefix: str = "",
    budget: float = DEFAULT_BUDGET,
    seed: int = DEFAULT_SEED,
) -> list[ClaimReport]:
    """Run every claim whose id starts with `prefix`, within a time budget.

    Claims run in claim-id order. Once their elapsed times add up to `budget`
    seconds, every remaining claim is SKIPPED, so the suite overruns the budget
    by at most one claim's run time; an infinite budget skips nothing. A NaN
    budget, or a prefix that selects no claim, raises ValueError. Failures are
    data, not exceptions: a claim that raises anything else is reported as
    ERROR and the suite goes on.
    """
    if math.isnan(budget):
        raise ValueError(f"budget {budget} is not a number")
    selected = [(cid, fn) for cid, fn in CLAIMS.items() if cid.startswith(prefix)]
    if not selected:
        raise ValueError(f"no claim id starts with {prefix!r}")
    reports: list[ClaimReport] = []
    remaining = budget
    for claim_id, fn in selected:
        if remaining <= 0:
            reports.append(ClaimReport(claim_id, "SKIPPED", f"budget {budget:g}s spent", 0.0))
            continue
        start = time.perf_counter()
        try:
            details = fn(seed)
            status = "PASS"
        except ClaimFailure as exc:
            details, status = str(exc), "FAIL"
        except Exception as exc:
            details, status = f"{type(exc).__name__}: {exc}", "ERROR"
        elapsed = time.perf_counter() - start
        remaining -= elapsed
        reports.append(ClaimReport(claim_id, status, details, elapsed))
    return reports
