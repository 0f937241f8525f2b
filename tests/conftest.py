import pytest

from zgcentral.catalog import (
    PAPER_1000_86_PC,
    alternating4,
    cyclic,
    dihedral,
    paper_1000_86,
    quaternion8,
    symmetric,
)
from zgcentral.groups import group_from_pc_presentation


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
    orders, powers, commutators = PAPER_1000_86_PC
    return group_from_pc_presentation([*orders, 2], powers, commutators)
