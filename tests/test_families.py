import math
import re

import pytest

from metricdim.families import (
    KiteSpec,
    NonbinarySpec,
    StripSpec,
    StripVertex,
    TailSpec,
    cross_side_distance,
    kite_graph,
    nonbinary_graph,
    nonbinary_page_blocks,
    nonbinary_ramp_midpoints,
    ramp_midpoint_code,
    same_side_distance,
    strip_canonical_set,
    strip_graph,
    strip_unresolved_pair,
    tail_graph,
)
from metricdim.generators import complete_graph, cycle_graph
from metricdim.graph import add_edge, bfs_distances, is_connected
from metricdim.resolving import (
    block_lower_bound_check,
    find_unresolved_pair,
    is_resolving,
    metric_code,
)
from metricdim.ternary import canonical_conflict_free


def _count_strip_edges(i, primed, n_cols):
    # direct enumeration of the defining pair conditions
    count = 0
    verts = [(a, b) for a in range(n_cols) for b in (0, 1)]
    for idx, (a, b) in enumerate(verts):
        for c, d in verts[idx + 1 :]:
            gap = abs(a - c)
            if gap <= i and (a, b) != (c, d):
                count += 1
            elif primed and gap == i + 1 and b != d:
                count += 1
    return count


@pytest.mark.parametrize(
    "i,primed,n_cols",
    [(1, False, 3), (0, True, 4), (1, True, 3), (2, True, 10), (3, False, 8)],
)
def test_strip_edge_counts_match_direct_enumeration(i, primed, n_cols):
    g = strip_graph(StripSpec(i, primed, n_cols))
    assert g.vertex_count == 2 * n_cols
    assert g.edge_count == _count_strip_edges(i, primed, n_cols)


def test_strip_frozen_counts():
    assert strip_graph(StripSpec(1, False, 3)).edge_count == 11
    assert strip_graph(StripSpec(1, True, 3)).edge_count == 13  # 11 + 2 cross
    ladder = strip_graph(StripSpec(0, True, 4))
    assert (ladder.vertex_count, ladder.edge_count) == (8, 10)


def test_strip_gap_zero_is_matching():
    g = strip_graph(StripSpec(0, False, 6))
    assert not is_connected(g)
    assert all(g.degree(v) == 1 for v in g.vertices())


def test_strip_window_too_small():
    with pytest.raises(ValueError, match="need at least 2 columns"):
        strip_graph(StripSpec(1, False, 1))


SAME_SIDE_I2 = [0, 1, 1, 2, 2, 2, 2, 3, 3, 4, 4, 4, 4, 5]
CROSS_SIDE_I2 = [1, 1, 1, 1, 2, 2, 3, 3, 3, 3, 4, 4, 5, 5]


def test_distance_oracle_sequences():
    assert [same_side_distance(2, k) for k in range(14)] == SAME_SIDE_I2
    assert [cross_side_distance(2, k) for k in range(14)] == CROSS_SIDE_I2
    for i in range(1, 7):
        assert same_side_distance(i, 0) == 0
        assert cross_side_distance(i, 0) == 1


def test_distance_oracle_validation():
    with pytest.raises(ValueError):
        same_side_distance(0, 3)
    with pytest.raises(ValueError):
        cross_side_distance(2, -1)


def test_oracle_matches_bfs_in_window_interior():
    for i in (1, 2):
        n_cols = 20
        g = strip_graph(StripSpec(i, True, n_cols))
        base = StripVertex(i + 1, 0)
        dist = bfs_distances(g, base.label)
        for c in range(i + 1, n_cols - i - 1):
            gap = abs(base.column - c)
            assert dist[StripVertex(c, 0).label] == same_side_distance(i, gap)
            assert dist[StripVertex(c, 1).label] == cross_side_distance(i, gap)


def test_canonical_sets():
    assert [w.label for w in strip_canonical_set(1)] == ["v0_0", "v1_0", "v0_1"]
    assert [w.label for w in strip_canonical_set(2)] == [
        "v0_0",
        "v1_0",
        "v2_0",
        "v0_1",
        "v1_1",
    ]
    assert len(strip_canonical_set(3)) == 7


def test_unresolved_pair_from_witness_window():
    witness = [StripVertex(a, b) for a in range(4) for b in (0, 1)]
    assert strip_unresolved_pair(witness) == (StripVertex(4, 0), StripVertex(4, 1))
    assert strip_unresolved_pair([StripVertex(0, 0)]) == (
        StripVertex(1, 0),
        StripVertex(1, 1),
    )
    with pytest.raises(ValueError, match="witness must be nonempty"):
        strip_unresolved_pair([])


@pytest.mark.parametrize("i", [1, 2, 3])
def test_unresolved_pair_codes_on_window(i):
    # the pair is computed without i and stays unsplit in every strip
    g = strip_graph(StripSpec(i, False, 20))
    witness = [StripVertex(a, b) for a in range(5) for b in (0, 1)]
    lo, hi = strip_unresolved_pair(witness)
    labels = [w.label for w in witness]
    code_lo = metric_code(g, labels, lo.label)
    code_hi = metric_code(g, labels, hi.label)
    assert code_lo == code_hi
    assert code_lo == tuple(math.ceil((lo.column - w.column) / i) for w in witness)


def test_kite_shape():
    g, witness, missing = kite_graph(KiteSpec(branches=5, tail_len=4))
    assert g.vertex_count == 2 + 5 * (1 + 2 + 1 + 4)
    assert missing == ("u", "v")
    assert not g.has_edge(*missing)
    assert g.degree("u") == 5  # one head per branch
    assert g.degree("v") == 5  # one far endpoint per branch
    assert witness == ("d1_0", "d2_0", "d3_0", "d4_0", "d5_0")
    # each diamond pair shares its two neighbors
    assert g.neighbors("d1_0") == g.neighbors("d1_1") == ("h1", "m1")


def test_kite_witness_flips_with_hub_edge():
    g, witness, missing = kite_graph(KiteSpec())
    assert is_resolving(g, witness)
    edited = add_edge(g, *missing)
    pair = find_unresolved_pair(edited, witness)
    assert pair is not None
    assert all(label.startswith("a") for label in pair)


def test_kite_spec_validation():
    with pytest.raises(ValueError):
        KiteSpec(branches=1)
    with pytest.raises(ValueError):
        KiteSpec(tail_len=0)


def test_nonbinary_canonical_d2_shape():
    strings = canonical_conflict_free(2)
    spec = NonbinarySpec(2, strings)
    g, witness, missing = nonbinary_graph(spec)
    ramps_1 = sum(x.count("1") for x in strings)
    ramps_2 = sum(x.count("2") for x in strings)
    # pages (5 vertices, 4 edges each) + hubs + apex + one midpoint per 2-digit
    assert g.vertex_count == 5 * len(strings) + (2 + 1) + 1 + ramps_2
    assert g.edge_count == 4 * len(strings) + len(strings) + ramps_1 + 2 * ramps_2 + 2
    assert witness == ("w0", "w1", "w2")
    assert missing == ("c", "w0")
    assert not g.has_edge(*missing)


def test_nonbinary_witness_resolves():
    spec = NonbinarySpec(2, canonical_conflict_free(2))
    g, witness, _ = nonbinary_graph(spec)
    assert is_resolving(g, witness)


def test_nonbinary_midpoint_codes_match_prediction():
    spec = NonbinarySpec(2, canonical_conflict_free(2))
    g, _, _ = nonbinary_graph(spec)
    hubs = ["w1", "w2"]
    for label, i, x in nonbinary_ramp_midpoints(spec):
        assert metric_code(g, hubs, label) == ramp_midpoint_code(i, x)


def test_nonbinary_rejects_conflicts_and_mismatches():
    with pytest.raises(ValueError, match="pairwise conflict-free"):
        nonbinary_graph(NonbinarySpec(2, ["22", "20"]))
    with pytest.raises(ValueError, match="must be distinct"):
        nonbinary_graph(NonbinarySpec(2, ["00", "00"]))
    with pytest.raises(ValueError, match="does not have length 2"):
        nonbinary_graph(NonbinarySpec(2, ["0", "00"]))


def test_nonbinary_conflicting_pages_break_the_witness(monkeypatch):
    # bypassing the conflict check must surface as colliding ramp midpoints
    monkeypatch.setattr("metricdim.families.is_conflict_free", lambda strings: True)
    spec = NonbinarySpec(2, ["20", "22"])
    g, witness, _ = nonbinary_graph(spec)
    assert not is_resolving(g, witness)
    pair = find_unresolved_pair(g, witness)
    assert pair == ("r_20_1", "r_22_1")


def test_nonbinary_page_blocks():
    spec = NonbinarySpec(2, canonical_conflict_free(2))
    blocks, reps = nonbinary_page_blocks(spec)
    assert len(blocks) == len(reps) == 8
    assert all(rep in block for rep, block in zip(reps, blocks))
    assert all(len(block) == 5 for block in blocks)


def test_pages_d3_with_edge_has_dimension_19():
    # settled without search: the page blocks certify >= 19, a 19-set resolves
    spec = NonbinarySpec(3, canonical_conflict_free(3))
    graph, _, missing = nonbinary_graph(spec)
    edited = add_edge(graph, *missing)
    assert edited.vertex_count == 117
    blocks, reps = nonbinary_page_blocks(spec)
    assert len(blocks) == 20
    assert block_lower_bound_check(edited, blocks, reps)
    witness = (
        "a_000 a_021 a_101 a_111 a_210 b_002 b_020 p_001_1 p_010_1 p_011_2 "
        "p_012_2 p_100_1 p_102_1 p_110_2 p_120_1 p_121_3 p_200_3 p_201_3 p_211_3"
    ).split()
    assert len(set(witness)) == 19
    assert is_resolving(edited, witness)


def test_ramp_midpoint_code_cases():
    assert ramp_midpoint_code(1, "20") == (1, 3)
    assert ramp_midpoint_code(2, "12") == (2, 1)
    assert ramp_midpoint_code(1, "212") == (1, 2, 3)
    with pytest.raises(ValueError, match="is not 2"):
        ramp_midpoint_code(1, "12")


def test_tail_graph_counts():
    with_tail = tail_graph(TailSpec(complete_graph(3), "k0", 1))
    assert (with_tail.vertex_count, with_tail.edge_count) == (4, 4)
    with_tail = tail_graph(TailSpec(cycle_graph(5), "c2", 3))
    assert (with_tail.vertex_count, with_tail.edge_count) == (8, 8)
    assert with_tail.degree("u3") == 1


def test_tail_graph_errors():
    with pytest.raises(ValueError, match="in the base graph"):
        tail_graph(TailSpec(complete_graph(3), "z", 1))
    with pytest.raises(ValueError, match="tail length must be positive"):
        tail_graph(TailSpec(complete_graph(3), "k0", 0))
    clash_base = tail_graph(TailSpec(complete_graph(3), "k0", 1))  # contains u1
    with pytest.raises(ValueError, match="tail labels already used"):
        tail_graph(TailSpec(clash_base, "k0", 1))


# one rejected call per raise: case id -> (call, its ValueError message)
REJECTED_ARGUMENTS = {
    "strip-negative-i": (lambda: StripSpec(-1, True, 4), "i must be nonnegative, got -1"),
    "canonical-set-i0": (lambda: strip_canonical_set(0), "i must be positive, got 0"),
    "nonbinary-d0": (lambda: NonbinarySpec(0, ("0",)), "d must be positive, got 0"),
    "nonbinary-no-strings": (lambda: NonbinarySpec(1, ()), "need at least one page string"),
    "ramp-digit-0": (lambda: ramp_midpoint_code(0, "22"), "digit index must be in 1..2, got 0"),
    "ramp-digit-3": (lambda: ramp_midpoint_code(3, "22"), "digit index must be in 1..2, got 3"),
}


@pytest.mark.parametrize("case", REJECTED_ARGUMENTS)
def test_rejected_arguments_raise_their_message(case):
    call, message = REJECTED_ARGUMENTS[case]
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


def test_strip_vertex_labels():
    assert StripVertex(4, 1).label == "v4_1"
    with pytest.raises(ValueError):
        StripVertex(-1, 0)
    with pytest.raises(ValueError):
        StripVertex(0, 2)
