"""Shared generators for seeded random systems, vectors, and words."""

import numpy as np

from mbrep.multrep import MultVector, RepSpace, inner, vscale
from mbrep.system import FormTuple, MatrixSystem, normalize
from mbrep.words import Alphabet, Word, sphere


def random_system(rng, alphabet=None, max_dim=3):
    """Seeded random complex system, normalized; returns the RepSpace and
    the pre-normalization spectral radius."""
    if alphabet is None:
        alphabet = Alphabet.rank(2)
    n = len(alphabet)
    dims = [int(rng.integers(1, max_dim + 1)) for _ in range(n)]
    maps = {}
    for b in range(n):
        for a in range(n):
            if alphabet.inv[a] != b:
                maps[(b, a)] = (rng.normal(size=(dims[b], dims[a]))
                                + 1j * rng.normal(size=(dims[b], dims[a])))
    system = MatrixSystem(alphabet, dims, maps)
    result = normalize(system, degeneracy_probe=False)
    return RepSpace(result.system, result.forms), result


def random_vector(space, rng, depth=1, unit=True):
    values = {}
    for w in sphere(space.alphabet, depth):
        d = space.dim(w.last())
        values[w] = rng.normal(size=d) + 1j * rng.normal(size=d)
    v = MultVector(space, depth, values)
    if unit:
        nrm = np.sqrt(inner(v, v).real)
        v = vscale(1.0 / nrm, v)
    return v


def random_word(alphabet, rng, length):
    if length == 0:
        return Word.identity(alphabet)
    n = len(alphabet)
    letters = [int(rng.integers(n))]
    while len(letters) < length:
        c = int(rng.integers(n))
        if c != alphabet.inv[letters[-1]]:
            letters.append(c)
    return Word(alphabet, letters)


def s3_quotient(alphabet):
    """S3 as a multiplication table, with the letter images of the rank-2
    homomorphism a -> a transposition, b -> a 3-cycle (index 6, subgroup
    rank 7)."""
    from itertools import permutations

    from mbrep.subgroups import FiniteGroup

    perms = list(permutations(range(3)))  # the identity comes first
    index = {p: i for i, p in enumerate(perms)}
    table = [[index[tuple(q[p[k]] for k in range(3))] for q in perms] for p in perms]
    return FiniteGroup(table), {alphabet.letter("a"): index[(1, 0, 2)],
                                alphabet.letter("b"): index[(1, 2, 0)]}
