"""A time limit on every test, under tests/ and perfbench/ alike."""

import signal

import pytest


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
