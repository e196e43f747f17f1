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
