import pytest

from maninalg import quadratic


def _clear_quadratic_memos():
    quadratic.relation_space.cache_clear()
    quadratic._dimension_table.cache_clear()
    quadratic._annihilator.cache_clear()


@pytest.fixture
def cold_quadratic():
    """Empty memos of graded dimensions and intersection subspaces before
    and after the test.  Call the returned function to empty them again,
    right before a call whose slice builds are counted."""
    _clear_quadratic_memos()
    yield _clear_quadratic_memos
    _clear_quadratic_memos()
