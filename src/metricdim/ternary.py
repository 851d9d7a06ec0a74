"""Conflict-free ternary-string combinatorics.

Two distinct equal-length strings over {0,1,2} conflict when they share a
position where both hold 2 and every position where they differ holds
{0,2}. A set is conflict-free when no two of its members conflict.
Strings with different sets of 1-positions differ at a position holding a
1 and so never conflict; every check compares only within such a group.
"""

from __future__ import annotations

from collections import deque
from itertools import product
from typing import Sequence

from .errors import EqualStringsError, LengthMismatchError, TooLargeError

_DIGITS = frozenset("012")


def validate_ternary(s: str) -> str:
    if not isinstance(s, str) or not s or not _DIGITS.issuperset(s):
        raise ValueError(f"not a ternary string: {s!r}")
    return s


def _conflicts(x: str, y: str) -> bool:
    shared = False
    for cx, cy in zip(x, y):
        if cx != cy:
            if cx == "1" or cy == "1":
                return False
        elif cx == "2":
            shared = True
    return shared


def _ones(s: str) -> str:
    """The group key: `s` with every 2 read as 0."""
    return s.replace("2", "0")


def first_conflict(strings: Sequence[str]) -> tuple[str, str] | None:
    """The conflicting pair with the least input positions (i, j), or None."""
    strings = list(strings)
    for s in strings:
        validate_ternary(s)
    if len({len(s) for s in strings}) > 1:
        raise LengthMismatchError("strings must share one length")
    if len(set(strings)) != len(strings):
        raise EqualStringsError("strings must be pairwise distinct")
    later: dict[str, deque[str]] = {}
    for s in strings:
        later.setdefault(_ones(s), deque()).append(s)
    for x in strings:
        group = later[_ones(x)]
        group.popleft()  # x itself: strings are visited in input order
        for y in group:
            if _conflicts(x, y):
                return x, y
    return None


def is_conflict_free(strings: Sequence[str]) -> bool:
    """Whether no two strings in the collection conflict."""
    return first_conflict(strings) is None


def canonical_conflict_free(n: int) -> list[str]:
    """All length-n ternary strings with at most one digit 2, sorted.

    These are pairwise conflict-free, and there are 2^n + n * 2^(n-1) of
    them.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    out = ["".join(digits) for digits in product("012", repeat=n)
           if digits.count("2") <= 1]
    out.sort()
    return out


def _max_independent(strings: list[str], adjacent) -> tuple[int, list[str]]:
    """Deterministic branch-and-bound maximum independent set."""
    best_size = 0
    best_pick: list[str] = []

    def grow(pool: list[str], picked: list[str]) -> None:
        nonlocal best_size, best_pick
        if len(picked) + len(pool) <= best_size:
            return
        if not pool:
            if len(picked) > best_size:
                best_size = len(picked)
                best_pick = list(picked)
            return
        head, rest = pool[0], pool[1:]
        grow([s for s in rest if not adjacent(head, s)], picked + [head])
        grow(rest, picked)

    grow(sorted(strings), [])
    return best_size, sorted(best_pick)


def max_conflict_free_bruteforce(n: int) -> tuple[int, list[str]]:
    """Exact maximum conflict-free subset of the length-n ternary strings.

    Only n <= 4 is accepted. Strings are partitioned by the set of positions
    holding digit 1 (parts never conflict with each other), and a maximum
    independent set in the conflict graph is found inside each part. This
    decomposition is a search optimization only; the per-part search stays
    exhaustive.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if n > 4:
        raise TooLargeError(f"brute force capped at n=4, got {n}")
    parts: dict[str, list[str]] = {}
    for digits in product("012", repeat=n):
        s = "".join(digits)
        parts.setdefault(_ones(s), []).append(s)
    total = 0
    witness: list[str] = []
    for members in parts.values():
        size, picked = _max_independent(members, _conflicts)
        total += size
        witness.extend(picked)
    return total, sorted(witness)
