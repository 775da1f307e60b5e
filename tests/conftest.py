import pytest

from mbrep.multrep import MultVector, RepSpace
from mbrep.system import spherical_system
from mbrep.words import Alphabet, Word


@pytest.fixture(scope="session")
def rank2():
    return Alphabet.rank(2)


@pytest.fixture(scope="session")
def spherical_space(rank2):
    system, forms = spherical_system(rank2)
    return RepSpace(system, forms)


@pytest.fixture(scope="session")
def seed_a(rank2, spherical_space):
    return MultVector(spherical_space, 1, {Word.parse(rank2, "a"): [1.0]})
