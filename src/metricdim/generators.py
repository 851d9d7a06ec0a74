"""Small named graphs and seeded random graphs.

Shared by the test corpus, the claim-verification suite, and the `gen`
subcommand. All randomness flows through a caller-supplied Random instance.
"""

from __future__ import annotations

import random
from itertools import combinations

from .graph import Graph, build_graph


def path_graph(n: int) -> Graph:
    if n < 1:
        raise ValueError("need at least one vertex")
    labels = [f"p{i}" for i in range(n)]
    return build_graph(zip(labels, labels[1:]), isolated=labels)


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("need at least three vertices")
    labels = [f"c{i}" for i in range(n)]
    return build_graph(zip(labels, labels[1:] + labels[:1]))


def complete_graph(n: int) -> Graph:
    if n < 1:
        raise ValueError("need at least one vertex")
    labels = [f"k{i}" for i in range(n)]
    return build_graph(combinations(labels, 2), isolated=labels)


def complete_bipartite_graph(m: int, n: int) -> Graph:
    if m < 1 or n < 1:
        raise ValueError("both sides need at least one vertex")
    left = [f"l{i}" for i in range(m)]
    right = [f"r{i}" for i in range(n)]
    return build_graph((a, b) for a in left for b in right)


def ladder_graph(n_cols: int) -> Graph:
    """Cartesian product of an n-column path with a single edge: two rails
    of length n_cols - 1 plus one rung per column."""
    if n_cols < 2:
        raise ValueError("need at least two columns")
    edges = []
    for a in range(n_cols):
        edges.append((f"v{a}_0", f"v{a}_1"))
        if a + 1 < n_cols:
            edges.append((f"v{a}_0", f"v{a + 1}_0"))
            edges.append((f"v{a}_1", f"v{a + 1}_1"))
    return build_graph(edges)


def random_graph(rng: random.Random, n: int, edge_prob: float) -> Graph:
    """Plain G(n, p); may be disconnected."""
    if n < 1:
        raise ValueError("need at least one vertex")
    labels = [f"n{i}" for i in range(n)]
    edges = [(a, b) for a, b in combinations(labels, 2) if rng.random() < edge_prob]
    return build_graph(edges, isolated=labels)


def random_connected_graph(rng: random.Random, n: int, extra_edge_prob: float) -> Graph:
    """Random spanning tree plus independent extra edges; always connected."""
    if n < 1:
        raise ValueError("need at least one vertex")
    labels = [f"n{i}" for i in range(n)]
    edges = [(labels[rng.randrange(i)], labels[i]) for i in range(1, n)]
    taken = {tuple(sorted(e)) for e in edges}
    for pair in combinations(labels, 2):
        if pair not in taken and rng.random() < extra_edge_prob:
            edges.append(pair)
    return build_graph(edges, isolated=labels)
