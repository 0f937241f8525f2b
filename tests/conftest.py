import corpus
import pytest

from zgcentral.catalog import (
    alternating4,
    cyclic,
    dihedral,
    paper_1000_86,
    quaternion8,
    symmetric,
)


@pytest.fixture(scope="session")
def s3():
    return symmetric(3)


@pytest.fixture(scope="session")
def s4():
    return symmetric(4)


@pytest.fixture(scope="session")
def a4():
    return alternating4()


@pytest.fixture(scope="session")
def c4():
    return cyclic(4)


@pytest.fixture(scope="session")
def c5():
    return cyclic(5)


@pytest.fixture(scope="session")
def q8():
    return quaternion8()


@pytest.fixture(scope="session")
def d4():
    return dihedral(4)


@pytest.fixture(scope="session")
def d5():
    return dihedral(5)


@pytest.fixture(scope="session")
def paper1000():
    return paper_1000_86()


@pytest.fixture(scope="session")
def paper1000_c2():
    """paper-1000-86 x C2: its pc presentation and x7 of order 2, central."""
    return corpus.build("paper-1000-86 x C2")
