import tracemalloc

import pytest

from ffmobius import field_new


@pytest.fixture(scope="session")
def gf2():
    return field_new(2)


@pytest.fixture(scope="session")
def gf3():
    return field_new(3)


@pytest.fixture(scope="session")
def gf4():
    return field_new(2, 2)


@pytest.fixture(scope="session")
def gf5():
    return field_new(5)


@pytest.fixture(scope="session")
def gf7():
    return field_new(7)


@pytest.fixture(scope="session")
def gf9():
    return field_new(3, 2)


@pytest.fixture(scope="session")
def gf25():
    return field_new(5, 2)


def traced_peak(fn):
    """(fn(), the peak bytes tracemalloc saw while fn ran)."""
    tracemalloc.start()
    try:
        out = fn()
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
