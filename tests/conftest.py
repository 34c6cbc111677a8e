import pytest

from manisearch.checks import make_problem, manifold_zoo, sample_point  # noqa: F401


@pytest.fixture
def zoo():
    return manifold_zoo()
