"""Shared generators for seeded random systems, vectors, and words."""

import numpy as np

from mbrep.multrep import MultVector, RepSpace, inner, vadd, vscale
from mbrep.system import FormTuple, MatrixSystem, normalize
from mbrep.words import Alphabet, CylinderUnion, Word, cylinder_image, multiply, refine, sphere


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


def induced_distance(f, g):
    """Norm distance of two vectors of an induced space in block form."""
    total = 0.0
    for u in set(f.blocks) | set(g.blocks):
        fv, gv = f.blocks.get(u), g.blocks.get(u)
        if fv is None:
            diff = gv
        elif gv is None:
            diff = fv
        else:
            diff = vadd(fv, vscale(-1.0, gv))
        total += max(inner(diff, diff).real, 0.0)
    return float(np.sqrt(total))


def union_image(x, u):
    """The set x . U of a cylinder union U, as a cylinder union."""
    return CylinderUnion(part for c in u for part in cylinder_image(x, c))


def refine_union_stems(u, depth):
    """Stems (as letter tuples) of the depth-``depth`` refinement of a
    cylinder union: a canonical form to compare boundary sets."""
    return frozenset(fine.stem.letters for c in u for fine in refine(c, depth))


def pair_words(data, a):
    """The reduced words u^-1 . gen indexing the induced blocks at letter a."""
    return [multiply(data.transversal[u_idx].inverse(), data.generator_words[j])
            for u_idx, j in data.pairs[a]]
