from collections import deque
from itertools import combinations, product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from metricdim.errors import EqualStringsError, LengthMismatchError, TooLargeError
from metricdim.ternary import (
    canonical_conflict_free,
    first_conflict,
    is_conflict_free,
    max_conflict_free_bruteforce,
)

ternary_strings = st.text(alphabet="012", min_size=1, max_size=6)


def _conflict_by_definition(x, y):
    # the module docstring's definition, written independently of ternary._conflicts
    pairs = list(zip(x, y))
    shares_two = any(a == b == "2" for a, b in pairs)
    return shares_two and all({a, b} == {"0", "2"} for a, b in pairs if a != b)


def test_conflict_shared_two():
    # both strings hold 2 at index 0; the differing pair at index 1 is {2, 0}
    assert _conflict_by_definition("22", "20")
    assert not is_conflict_free(["22", "20"])
    assert not is_conflict_free(["20", "22"])


def test_conflict_violating_position():
    # index 0 differs as {2, 1}, which holds a 1, so the pair does not conflict
    assert not _conflict_by_definition("21", "12")
    assert is_conflict_free(["21", "12"])
    assert is_conflict_free(["12", "21"])


def test_conflict_no_shared_two():
    # every differing pair is {0, 2}, but no index holds 2 in both strings
    assert not _conflict_by_definition("02", "20")
    assert is_conflict_free(["02", "20"])
    assert is_conflict_free(["20", "02"])


def test_conflict_errors():
    with pytest.raises(LengthMismatchError):
        is_conflict_free(["0", "00"])
    with pytest.raises(EqualStringsError):
        is_conflict_free(["01", "01"])
    with pytest.raises(ValueError):
        is_conflict_free(["03", "00"])


@given(ternary_strings, ternary_strings)
@settings(max_examples=300)
def test_conflict_is_symmetric(x, y):
    if len(x) != len(y) or x == y:
        return
    assert is_conflict_free([x, y]) == is_conflict_free([y, x])
    assert is_conflict_free([x, y]) == (not _conflict_by_definition(x, y))


@st.composite
def grouped_strings(draw):
    """Up to 12 distinct strings drawn from a few 1-patterns, in random order."""
    length = draw(st.integers(2, 6))
    top = 2**length - 1
    strings = [
        "".join("1" if ones >> i & 1 else "02"[twos >> i & 1] for i in range(length))
        for ones in draw(st.lists(st.integers(0, top), min_size=1, max_size=4))
        for twos in draw(st.lists(st.integers(0, top), min_size=2, max_size=5))
    ]
    return draw(st.permutations(list(dict.fromkeys(strings))[:12]))


@given(grouped_strings())
@example(["020", "200", "202", "022"])  # (0, 3) comes before (1, 2)
@example(["2", "0"])
@settings(max_examples=150)
def test_first_conflict_matches_definition(strings):
    expected = next(
        ((x, y) for x, y in combinations(strings, 2) if _conflict_by_definition(x, y)),
        None,
    )
    assert first_conflict(strings) == expected
    assert is_conflict_free(strings) == (expected is None)


def test_is_conflict_free():
    assert is_conflict_free(["21", "12"])
    assert not is_conflict_free(["22", "20"])
    assert is_conflict_free([])
    with pytest.raises(EqualStringsError):
        is_conflict_free(["0", "0"])


def test_canonical_small_sets():
    assert canonical_conflict_free(1) == ["0", "1", "2"]
    assert canonical_conflict_free(2) == [
        "00", "01", "02", "10", "11", "12", "20", "21",
    ]


@pytest.mark.parametrize("n", range(1, 9))
def test_canonical_size_formula(n):
    strings = canonical_conflict_free(n)
    assert len(strings) == 2**n + n * 2 ** (n - 1)
    assert strings == sorted(strings)
    assert all(s.count("2") <= 1 for s in strings)


@pytest.mark.parametrize("n", range(1, 6))
def test_canonical_is_conflict_free(n):
    assert is_conflict_free(canonical_conflict_free(n))


def _independent_mis(vertices, edges):
    """Plain recursive maximum independent set, for cross-checking.

    The maximum of a graph is the sum of its connected components' maxima,
    so each component found by BFS is searched on its own.
    """
    adjacency = {v: set() for v in vertices}
    for x, y in edges:
        adjacency[x].add(y)
        adjacency[y].add(x)

    def recurse(pool):
        if not pool:
            return 0
        v = pool[0]
        rest = pool[1:]
        without = recurse(rest)
        with_v = 1 + recurse([u for u in rest if u not in adjacency[v]])
        return max(without, with_v)

    total, seen = 0, set()
    for start in sorted(vertices):
        if start in seen:
            continue
        seen.add(start)
        component, queue = [start], deque([start])
        while queue:
            for u in adjacency[queue.popleft()] - seen:
                seen.add(u)
                component.append(u)
                queue.append(u)
        total += recurse(sorted(component))
    return total


@pytest.mark.parametrize("n,expected", [(1, 3), (2, 8), (3, 20), (4, 48)])
def test_max_conflict_free_small(n, expected):
    size, witness = max_conflict_free_bruteforce(n)
    assert size == expected
    assert len(witness) == size
    assert is_conflict_free(witness)
    # cross-check against an unrelated maximum-independent-set search over
    # the full conflict graph
    strings = ["".join(p) for p in product("012", repeat=n)]
    edges = [
        (x, y) for x, y in combinations(strings, 2) if _conflict_by_definition(x, y)
    ]
    assert _independent_mis(strings, edges) == expected


def test_max_conflict_free_n2_against_full_subset_enumeration():
    strings = ["".join(p) for p in product("012", repeat=2)]
    best = 0
    for mask in range(1 << len(strings)):
        subset = [s for i, s in enumerate(strings) if mask >> i & 1]
        if all(
            not _conflict_by_definition(x, y) for x, y in combinations(subset, 2)
        ):
            best = max(best, len(subset))
    assert best == max_conflict_free_bruteforce(2)[0] == 8


def test_max_conflict_free_too_large():
    with pytest.raises(TooLargeError):
        max_conflict_free_bruteforce(5)
    with pytest.raises(ValueError):
        max_conflict_free_bruteforce(0)
