import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import connected_graph_from_seed, make_abc_path, reference_bfs
from metricdim.families import StripSpec, strip_graph
from metricdim.generators import (
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    ladder_graph,
    path_graph,
    random_connected_graph,
    random_graph,
)
from metricdim.graph import (
    UNREACHABLE,
    Graph,
    add_edge,
    bfs_distances,
    build_graph,
    format_edge_list,
    is_connected,
    max_degree,
    parse_edge_list,
    remove_edge,
    to_dot,
)
from metricdim.perturb import augment_addition
from metricdim.resolving import metric_code


def test_build_empty_graph():
    g = build_graph([])
    assert g.vertex_count == 0
    assert g.edge_count == 0
    assert is_connected(g)
    assert max_degree(g) == 0


def test_build_deduplicates_reversed_pairs():
    g = build_graph([("a", "b"), ("b", "a")])
    assert g.vertex_count == 2
    assert g.edge_count == 1


def test_build_strip_window_counts():
    # 3 columns at gap 1: one rung per column plus 4 edges per adjacent
    # column pair (two straight, two crossed)
    n_cols = 3
    expected_edges = n_cols + 4 * (n_cols - 1)
    g = strip_graph(StripSpec(1, False, n_cols))
    assert g.vertex_count == 2 * n_cols
    assert g.edge_count == expected_edges


def test_build_rejects_self_loop_and_bad_labels():
    with pytest.raises(ValueError, match="self-loop at 'a'"):
        build_graph([("a", "a")])
    with pytest.raises(ValueError, match="may not contain whitespace"):
        build_graph([("a", "b c")])
    with pytest.raises(ValueError, match="must be a nonempty string"):
        build_graph([("", "b")])
    with pytest.raises(ValueError, match="may not contain whitespace"):
        build_graph([("a b", "a b")])  # a bad label beats the self-loop
    for bad in (1, None, ["x"], ("x",)):  # not a string, hashable or not
        with pytest.raises(ValueError, match="must be a nonempty string"):
            build_graph([(bad, "b")])
        with pytest.raises(ValueError, match="must be a nonempty string"):
            build_graph([("a", bad)])
        with pytest.raises(ValueError, match="must be a nonempty string"):
            build_graph([], isolated=[bad])
    # the first bad pair in input order decides the error
    with pytest.raises(ValueError, match="may not contain whitespace"):
        build_graph([("a", "b c"), ("d", "d")])
    with pytest.raises(ValueError, match="may not contain whitespace"):
        build_graph([("d", "d")], isolated=["e f"])
    with pytest.raises(ValueError, match="self-loop at 'd'"):
        build_graph([("d", "d"), ("a", "b c")])
    with pytest.raises(ValueError, match="self-loop at 'd'"):
        build_graph([("d", "d"), (1, "b")])  # an earlier loop beats a later non-string
    with pytest.raises(ValueError, match="self-loop at 'd'"):
        build_graph([("d", "d"), ("a", "b", "c")])  # raised before a later pair is read
    with pytest.raises(ValueError, match="may not contain whitespace"):
        build_graph([("a", "b c"), ("b", None)])
    with pytest.raises(TypeError):  # Graph wraps checked fields; it checks no mapping
        Graph({"a": ["b"], "b": ["a"]})


def test_labels_may_not_start_with_hash():
    # the edge-list format reads "#..." lines as comments, so such a label
    # could not survive format_edge_list -> parse_edge_list
    with pytest.raises(ValueError, match="may not start with '#'"):
        build_graph([("#a", "b"), ("b", "c")])
    with pytest.raises(ValueError, match="may not start with '#'"):
        build_graph([], isolated=["#x", "y"])
    with pytest.raises(ValueError, match="may not start with '#'"):
        parse_edge_list("a #b\n")
    g = build_graph([("a#", "b")])  # '#' after the first character is fine
    assert parse_edge_list(format_edge_list(g)) == g


def test_label_whitespace_is_str_isspace():
    # a label is refused for whitespace exactly where str.isspace says so
    for code in range(0x3001):
        c = chr(code)
        if c.isspace():
            with pytest.raises(ValueError, match="may not contain whitespace"):
                build_graph([("a" + c + "b", "x")])
        else:
            assert build_graph([("a" + c + "b", "x")]).vertex_count == 2


_UNKNOWN_LABEL_CALLS = {
    "neighbors": lambda g: g.neighbors("zz"),
    "degree": lambda g: g.degree("zz"),
    "index_of": lambda g: g.index_of("zz"),
    "distances": lambda g: g.distances("zz"),
    "has_edge-u": lambda g: g.has_edge("zz", "a"),
    "has_edge-v": lambda g: g.has_edge("a", "zz"),
    "has_edge-both": lambda g: g.has_edge("zz", "yy"),
    "add_edge": lambda g: add_edge(g, "a", "zz"),
    "remove_edge": lambda g: remove_edge(g, "zz", "a"),
    "metric_code-vertex": lambda g: metric_code(g, ["a"], "zz"),
    "metric_code-landmark": lambda g: metric_code(g, ["a", "zz", "yy"], "b"),
    "augment_addition": lambda g: augment_addition(g, ["a", "zz", "yy"], "a", "c"),
}


@pytest.mark.parametrize("entry", _UNKNOWN_LABEL_CALLS)
def test_unknown_labels_raise(abc_path, entry):
    # every label entry point names the first unknown label it meets
    with pytest.raises(ValueError) as raised:
        _UNKNOWN_LABEL_CALLS[entry](abc_path)
    assert str(raised.value) == "no vertex 'zz'"


def test_add_edge_makes_triangle(abc_path):
    g = add_edge(abc_path, "a", "c")
    assert g.edge_count == 3
    assert g.has_edge("a", "c")
    assert not abc_path.has_edge("a", "c")  # input untouched


def test_remove_edge_opens_cycle():
    c4 = build_graph([("0", "1"), ("1", "2"), ("2", "3"), ("3", "0")])
    p4 = remove_edge(c4, "2", "3")
    assert p4.edge_count == 3
    assert sorted(v for v in p4.vertices() if p4.degree(v) == 1) == ["2", "3"]


def test_edit_errors(abc_path):
    with pytest.raises(ValueError, match="already present"):
        add_edge(abc_path, "a", "b")
    with pytest.raises(ValueError, match="'a' -- 'c' not present"):
        remove_edge(abc_path, "a", "c")
    with pytest.raises(ValueError, match="self-loop at 'a'"):
        add_edge(abc_path, "a", "a")
    with pytest.raises(ValueError, match="no vertex 'z'"):
        add_edge(abc_path, "a", "z")


# one rejected call per raise: case id -> (call, its ValueError message)
REJECTED_ARGUMENTS = {
    "remove-self-loop": (lambda: remove_edge(make_abc_path(), "a", "a"), "self-loop at 'a'"),
    "path-0": (lambda: path_graph(0), "need at least one vertex"),
    "cycle-2": (lambda: cycle_graph(2), "need at least three vertices"),
    "complete-0": (lambda: complete_graph(0), "need at least one vertex"),
    "bipartite-0-2": (
        lambda: complete_bipartite_graph(0, 2), "both sides need at least one vertex"),
    "bipartite-2-0": (
        lambda: complete_bipartite_graph(2, 0), "both sides need at least one vertex"),
    "ladder-1": (lambda: ladder_graph(1), "need at least two columns"),
    "random-0": (lambda: random_graph(random.Random(0), 0, 0.5), "need at least one vertex"),
    "random-connected-0": (
        lambda: random_connected_graph(random.Random(0), 0, 0.5), "need at least one vertex"),
}


@pytest.mark.parametrize("case", REJECTED_ARGUMENTS)
def test_rejected_arguments_raise_their_message(case):
    call, message = REJECTED_ARGUMENTS[case]
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


def test_add_then_remove_is_identity(abc_path):
    assert remove_edge(add_edge(abc_path, "a", "c"), "a", "c") == abc_path


def test_bfs_on_path(abc_path):
    d = bfs_distances(abc_path, "a")
    assert d == {"a": 0, "b": 1, "c": 2}


def test_bfs_strip_spot_checks():
    # frozen distances in the 30-column gap-2 primed window
    g = strip_graph(StripSpec(2, True, 30))
    d = bfs_distances(g, "v0_0")
    assert d["v4_0"] == 2
    assert d["v6_1"] == 3


def test_bfs_unreachable_sentinel():
    g = build_graph([("a", "b"), ("c", "d")])
    d = bfs_distances(g, "a")
    assert d["b"] == 1
    assert d["c"] is UNREACHABLE is None
    assert g.distances("a") == (0, 1, None, None)
    assert d["c"] == d["d"]  # sentinel equals itself
    assert d["c"] != 5  # and never an integer
    with pytest.raises(TypeError):
        d["c"] + 1
    with pytest.raises(TypeError):
        d["c"] < 1


def test_bfs_unknown_source(abc_path):
    with pytest.raises(ValueError, match="no vertex 'z'"):
        bfs_distances(abc_path, "z")


def test_edits_do_not_inherit_cached_rows():
    g = path_graph(5)
    before = {v: g.distances(v) for v in g.vertices()}
    assert bfs_distances(g, "p0")["p3"] == 3
    bigger = add_edge(g, "p0", "p3")
    assert [bigger.index_of(v) for v in g.vertices()] == list(range(5))
    assert bfs_distances(bigger, "p0")["p3"] == 1
    assert bfs_distances(bigger, "p3")["p0"] == 1
    assert {v: g.distances(v) for v in g.vertices()} == before

    c = cycle_graph(6)
    ring = {v: c.distances(v) for v in c.vertices()}
    opened = remove_edge(c, "c0", "c1")
    assert [opened.index_of(v) for v in c.vertices()] == list(range(6))
    with pytest.raises(ValueError, match="no vertex 'z'"):
        opened.index_of("z")
    assert bfs_distances(opened, "c0")["c1"] == 5
    assert {v: c.distances(v) for v in c.vertices()} == ring


@given(st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_bfs_matches_reference_on_random_graphs(seed):
    # sparse G(n, p) is often disconnected, which exercises UNREACHABLE
    rng = random.Random(seed)
    g = random_graph(rng, rng.randint(1, 12), rng.uniform(0.0, 0.5))
    for s in g.vertices():
        expected = reference_bfs(g, s)
        assert bfs_distances(g, s) == expected
        assert g.distances(s) == tuple(expected.values())


@given(st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_edit_chains_match_reference(seed):
    # edited graphs skip the checks and share their parent's vertex index;
    # every row must still match the reference BFS and a checked rebuild,
    # and the parent must be left as it was
    rng = random.Random(seed)
    g = random_graph(rng, rng.randint(2, 12), rng.uniform(0.0, 0.5))
    verts = g.vertices()
    for _ in range(rng.randint(1, 6)):
        rows = {s: g.distances(s) for s in verts}
        neighbors = {s: g.neighbors(s) for s in verts}
        u, v = rng.sample(verts, 2)
        edited = remove_edge(g, u, v) if g.has_edge(u, v) else add_edge(g, u, v)
        assert edited.has_edge(u, v) != g.has_edge(u, v)
        checked = build_graph(edited.edges(), isolated=verts)
        assert checked == edited
        for s in verts:
            assert edited.distances(s) == tuple(reference_bfs(edited, s).values())
            assert edited.distances(s) == checked.distances(s)
            assert edited.index_of(s) == checked.index_of(s)
        assert {s: g.distances(s) for s in verts} == rows
        assert {s: g.neighbors(s) for s in verts} == neighbors
        g = edited


def _rows_match_reference(g):
    """Check every row of `g` against `reference_bfs`."""
    for s in g.vertices():
        assert g.distances(s) == tuple(reference_bfs(g, s).values())


@given(st.integers(20, 60), st.floats(0.6, 0.95), st.integers(0, 10_000))
@settings(max_examples=12, deadline=None)
def test_dense_rows_match_reference(n, p, seed):
    _rows_match_reference(random_graph(random.Random(seed), n, p))


def test_dense_rows_mark_other_components_unreachable():
    rng = random.Random(3)
    blocks = {side: random_graph(rng, 30, 0.75) for side in "ab"}
    g = build_graph(
        [(side + u, side + v) for side, b in blocks.items() for u, v in b.edges()],
        isolated=["z"],
    )
    _rows_match_reference(g)
    row = g.distances("an0")
    assert {row[g.index_of(v)] for v in g.vertices() if v[0] != "a"} == {UNREACHABLE}
    assert max(row[g.index_of(v)] for v in g.vertices() if v[0] == "a") == 2
    assert set(g.distances("z")) == {0, UNREACHABLE}


@given(st.integers(0, 10_000))
@settings(max_examples=8, deadline=None)
def test_dense_edit_chains_match_reference(seed):
    # an edit must not change its parent's bitmasks, and must leave the
    # parent's rows as they were
    rng = random.Random(seed)
    g = random_graph(rng, rng.randint(30, 40), rng.uniform(0.8, 0.95))
    _rows_match_reference(g)
    verts = g.vertices()
    for _ in range(rng.randint(1, 4)):
        rows = {s: g.distances(s) for s in verts}
        u, v = rng.sample(verts, 2)
        edited = remove_edge(g, u, v) if g.has_edge(u, v) else add_edge(g, u, v)
        _rows_match_reference(edited)
        assert {s: g.distances(s) for s in verts} == rows
        g = edited


def _assert_matches_model(g, model):
    verts = sorted(model)
    edges = sorted((u, v) for u in model for v in model[u] if u < v)
    assert g.vertices() == tuple(verts)
    assert g.vertex_count == len(verts)
    assert g.edge_count == len(edges)
    assert list(g.edges()) == edges
    assert max_degree(g) == max(map(len, model.values()), default=0)
    assert "zz" not in g
    for i, u in enumerate(verts):
        assert u in g
        assert g.index_of(u) == i
        assert g.neighbors(u) == tuple(sorted(model[u]))
        assert g.degree(u) == len(model[u])
        for v in verts:
            assert g.has_edge(u, v) == (v in model[u])
    text = "".join(f"{v}\n" for v in verts if not model[v])
    text += "".join(f"{u} {v}\n" for u, v in edges)
    assert format_edge_list(g) == text
    assert parse_edge_list(text) == g
    assert g == build_graph(edges, isolated=verts)


_LABELS = st.text(alphabet="ab1", min_size=1, max_size=3)


@given(st.lists(_LABELS, min_size=2, max_size=9, unique=True), st.data())
@settings(max_examples=60, deadline=None)
def test_label_views_match_a_model(labels, data):
    # labels such as "1", "a", "a1", "aa", "b" make label order differ from
    # insertion order; every view must read as the dict-of-sets model does
    pair = st.tuples(st.sampled_from(labels), st.sampled_from(labels)).filter(
        lambda e: e[0] != e[1]
    )
    edges = data.draw(st.lists(pair, max_size=12))
    model = {v: set() for v in labels}
    for u, v in edges:
        model[u].add(v)
        model[v].add(u)
    g = build_graph(edges, isolated=data.draw(st.permutations(labels)))
    _assert_matches_model(g, model)
    for u, v in data.draw(st.lists(pair, min_size=1, max_size=8)):
        if v in model[u]:
            g = remove_edge(g, u, v)
            model[u].discard(v)
            model[v].discard(u)
        else:
            g = add_edge(g, u, v)
            model[u].add(v)
            model[v].add(u)
        _assert_matches_model(g, model)


@given(st.integers(0, 10_000))
@settings(max_examples=6, deadline=None)
def test_multiword_masks_match_a_model_under_edits(seed):
    # 65-130 vertices: each neighbour bitmask spans two or three 64-bit
    # words, so a view that drops a high word shows here; every edit must
    # leave its parent's views and rows as they were
    rng = random.Random(seed)
    labels, p = [f"v{i}" for i in range(rng.randint(65, 130))], rng.uniform(0.02, 0.2)
    model = {v: set() for v in labels}
    edges = [(u, v) for i, u in enumerate(labels) for v in labels[i + 1 :] if rng.random() < p]
    for u, v in edges:
        model[u].add(v)
        model[v].add(u)
    g = build_graph(edges, isolated=labels)
    verts = g.vertices()
    _assert_matches_model(g, model)
    for _ in range(rng.randint(2, 4)):
        before = ({s: g.neighbors(s) for s in verts}, {s: g.distances(s) for s in verts})
        # one end in the second word or above, the other in the first
        u, v = rng.choice(verts[64:]), rng.choice(verts[:64])
        if v in model[u]:
            edited = remove_edge(g, u, v)
            model[u].discard(v)
            model[v].discard(u)
        else:
            edited = add_edge(g, u, v)
            model[u].add(v)
            model[v].add(u)
        _assert_matches_model(edited, model)
        assert ({s: g.neighbors(s) for s in verts}, {s: g.distances(s) for s in verts}) == before
        g = edited
    _rows_match_reference(g)


def test_connectivity_and_degree():
    matching = strip_graph(StripSpec(0, False, 5))
    assert not is_connected(matching)
    ladder = strip_graph(StripSpec(0, True, 5))
    assert is_connected(ladder)
    assert max_degree(complete_graph(5)) == 4


@given(st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_bfs_is_symmetric(seed):
    g = connected_graph_from_seed(seed)
    verts = g.vertices()
    maps = {v: bfs_distances(g, v) for v in verts}
    for u in verts:
        for v in verts:
            assert maps[u][v] == maps[v][u]


@given(st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_triangle_inequality(seed):
    g = connected_graph_from_seed(seed, max_n=8)
    verts = g.vertices()
    maps = {v: bfs_distances(g, v) for v in verts}
    for u in verts:
        for v in verts:
            for w in verts:
                assert maps[u][v] <= maps[u][w] + maps[w][v]


@given(st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_distances_monotone_under_edits(seed):
    rng = random.Random(seed)
    g = connected_graph_from_seed(seed, max_n=8)
    verts = g.vertices()
    non_edges = [
        (a, b)
        for i, a in enumerate(verts)
        for b in verts[i + 1 :]
        if not g.has_edge(a, b)
    ]
    if not non_edges:
        return
    u, v = rng.choice(non_edges)
    bigger = add_edge(g, u, v)
    for s in verts:
        before = bfs_distances(g, s)
        after = bfs_distances(bigger, s)
        for t in verts:
            db, da = before[t], after[t]
            if isinstance(db, int) and isinstance(da, int):
                assert da <= db  # adding an edge never lengthens a distance
    # and removing it again never shortens one
    smaller = remove_edge(bigger, u, v)
    for s in verts:
        before = bfs_distances(bigger, s)
        after = bfs_distances(smaller, s)
        for t in verts:
            db, da = before[t], after[t]
            if isinstance(db, int) and isinstance(da, int):
                assert da >= db


def test_edge_list_round_trip():
    text = "# a comment\n\na b\nb c\n"
    g = parse_edge_list(text)
    assert g.edge_count == 2
    out = format_edge_list(g)
    assert out == "a b\nb c\n"
    assert parse_edge_list(out) == g
    assert format_edge_list(parse_edge_list(out)) == out  # bit-exact


def test_edge_list_isolated_vertices():
    g = remove_edge(build_graph([("a", "b")]), "a", "b")
    out = format_edge_list(g)
    assert out == "a\nb\n"
    assert parse_edge_list(out) == g


def test_edge_list_rejects_bad_lines():
    with pytest.raises(ValueError):
        parse_edge_list("a b c\n")
    # blank and comment lines still count toward the line number
    with pytest.raises(ValueError, match=r"^line 4: expected one or two labels, got 3$"):
        parse_edge_list("a b\n\n# c\nx y z\n")


def test_edge_list_skips_comment_and_blank_lines():
    # indented and tab-led comments are skipped whatever their token count
    text = "  # a b c\n\t# d e f g\n#\n \t \n\na b\n\t#x\n"
    assert parse_edge_list(text) == build_graph([("a", "b")])


def test_edge_list_separators_and_line_ends():
    # any str.isspace character separates labels; "\r\n" ends a line
    text = "a\u00a0b\r\nb\u3000c\r\nd\r\n"
    assert parse_edge_list(text) == build_graph([("a", "b"), ("b", "c")], isolated=["d"])


# (text, exact message or (vertices, edges)): a structure error anywhere
# beats a label error, and a bad label read up to the first self-loop (isolated
# labels first) beats that loop
PARSE_PRECEDENCE = [
    ("a a\nx y z\n", "line 2: expected one or two labels, got 3"),
    ("a #b\nc c\n", "vertex label may not start with '#': '#b'"),
    ("c c\na #b\n", "self-loop at 'c'"),
    ("e f\ng #h\ni i\n", "vertex label may not start with '#': '#h'"),
    ("b b\n# x x\n", "self-loop at 'b'"),
    ("x\tx\r\n", "self-loop at 'x'"),
    ("a b\nb a\na b\n", (("a", "b"), [("a", "b")])),
    ("a\na b\na\n", (("a", "b"), [("a", "b")])),
    ("#a b\nc\n", (("c",), [])),
]


@pytest.mark.parametrize("text, expected", PARSE_PRECEDENCE)
def test_edge_list_error_precedence(text, expected):
    if isinstance(expected, str):
        with pytest.raises(ValueError, match=f"^{re.escape(expected)}$"):
            parse_edge_list(text)
    else:
        g = parse_edge_list(text)
        assert (g.vertices(), list(g.edges())) == expected


def _reference_read(text):
    """The edge-list format read line by line into a dict-of-sets model."""
    model, edges, isolated = {}, [], []
    for line in text.splitlines():
        tokens = line.split()
        if not tokens or line.lstrip().startswith("#"):
            continue
        for label in tokens:
            model.setdefault(label, set())
        if len(tokens) == 1:
            isolated.append(tokens[0])
        else:
            u, v = tokens
            model[u].add(v)
            model[v].add(u)
            edges.append((u, v))
    return model, edges, isolated


_SEPARATORS = st.sampled_from([" ", "\t", "\u00a0", " \t"])
_PADDING = st.sampled_from(["", " ", "\t", "\u00a0"])


@st.composite
def _edge_list_lines(draw, labels):
    kind = draw(st.sampled_from(["edge", "edge", "single", "comment", "blank"]))
    if kind == "edge":
        u, v = draw(st.permutations(labels))[:2]
        body = u + draw(_SEPARATORS) + v
    elif kind == "single":
        body = draw(st.sampled_from(labels))
    elif kind == "comment":  # whatever follows the '#', even three tokens
        body = "#" + draw(st.sampled_from(["", " x", "a b", " a b 1"]))
    else:
        body = ""
    return draw(_PADDING) + body + draw(_PADDING) + draw(st.sampled_from(["\n", "\r\n"]))


@given(st.lists(_LABELS, min_size=2, max_size=6, unique=True), st.data())
@settings(max_examples=80, deadline=None)
def test_edge_list_reader_matches_a_reference_reader(labels, data):
    # duplicate and reversed edges, repeated single-label lines and labels
    # both alone and in edges all come from drawing lines over few labels
    text = "".join(data.draw(st.lists(_edge_list_lines(labels), max_size=14)))
    model, edges, isolated = _reference_read(text)
    g = parse_edge_list(text)
    assert g == build_graph(edges, isolated)
    _assert_matches_model(g, model)
    # any iterable of pairs builds the same graph
    assert build_graph(zip([u for u, _ in edges], [v for _, v in edges]), isolated) == g
    assert build_graph((pair for pair in edges), iter(isolated)) == g


def test_dot_export(abc_path):
    assert to_dot(abc_path) == (
        'graph {\n  "a";\n  "b";\n  "c";\n  "a" -- "b";\n  "b" -- "c";\n}\n'
    )


@given(st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_edge_list_round_trip_random(seed):
    rng = random.Random(seed)
    g = random_graph(rng, rng.randint(1, 10), rng.random())
    assert parse_edge_list(format_edge_list(g)) == g


@pytest.mark.parametrize("make, tree_edges", [(random_graph, 0), (random_connected_graph, 3)])
def test_random_generators_reject_edge_prob_outside_unit_interval(make, tree_edges):
    for p in (float("nan"), 7, -3):
        with pytest.raises(ValueError, match=rf"^edge probability {p} is not in \[0, 1\]$"):
            make(random.Random(0), 4, p)
    assert make(random.Random(0), 4, 0).edge_count == tree_edges
    assert make(random.Random(0), 4, 1).edge_count == 6
