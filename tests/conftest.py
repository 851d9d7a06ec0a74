"""Shared fixtures and helpers for the test suite."""

import random
import signal
import sys

import pytest

from metricdim.generators import random_connected_graph
from metricdim.graph import build_graph


TEST_TIME_LIMIT = 60  # seconds; the slowest test takes under 2 s


class TimeLimitExceeded(BaseException):
    """Not an Exception, so hypothesis does not catch it and re-run a hanging test."""


@pytest.fixture(autouse=True)
def time_limit():
    """Fail a test that runs past TEST_TIME_LIMIT instead of hanging the suite (POSIX only)."""
    if not hasattr(signal, "SIGALRM"):
        yield
        return

    def expire(signum, frame):
        raise TimeLimitExceeded(f"test ran longer than {TEST_TIME_LIMIT} s")

    previous_handler = signal.signal(signal.SIGALRM, expire)
    previous_alarm = signal.alarm(TEST_TIME_LIMIT)
    try:
        yield
    finally:
        signal.alarm(previous_alarm)
        signal.signal(signal.SIGALRM, previous_handler)


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
