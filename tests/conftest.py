"""Shared fixtures and helpers for the test suite."""

import random
import sys

import pytest

from metricdim.generators import random_connected_graph
from metricdim.graph import build_graph


def make_abc_path():
    """The 3-path a - b - c used throughout the small examples."""
    return build_graph([("a", "b"), ("b", "c")])


@pytest.fixture
def abc_path():
    return make_abc_path()


def connected_graph_from_seed(seed: int, max_n: int = 9):
    """Deterministic random connected graph; handy inside hypothesis tests."""
    rng = random.Random(seed)
    return random_connected_graph(rng, rng.randint(2, max_n), rng.uniform(0.2, 0.6))


def stack_depth():
    """Frames on the current call stack, for tests run under a low recursion limit."""
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth
