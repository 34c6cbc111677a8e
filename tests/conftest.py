import signal
from contextlib import contextmanager

import pytest

from manisearch.checks import make_problem, manifold_zoo, sample_point  # noqa: F401


@pytest.fixture
def zoo():
    return manifold_zoo()


@contextmanager
def deadline(seconds: int):
    """Raise ``TimeoutError`` if the block is still running after ``seconds``.

    Guards a test of a call that once looped forever, so that the test
    fails instead of stalling the whole run.
    """
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
