"""Shared generators for seeded random systems, vectors, and words, and the
literal oracles and test-only predicates the tests compare the package with."""

import json
import math

import numpy as np

from mbrep.fileio import _complex_to_entry
from mbrep.multrep import (MultVector, RepSpace, coefficient, evaluate, inner, point_values,
                           sphere_coefficient, vadd, vscale)
from mbrep.system import FormTuple, MatrixSystem, normalize
from mbrep.words import (DEFAULT_CAP, Alphabet, CylinderUnion, Word, cylinder_image, multiply,
                         refine, sphere)


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
    result = normalize(system)
    return RepSpace(result.system, result.forms), result


def reference_coefficient(x, f, g):
    """The matrix coefficient <act(x, f), g> as the literal sphere sum, word
    by word: it walks no cones, so it checks both backends' partition."""
    forms = f.space.forms
    return complex(sphere_coefficient(f.space.alphabet, x, f, g, evaluate,
                                      lambda a, fv, gv: np.vdot(gv, forms[a] @ fv), 0j,
                                      DEFAULT_CAP))


def gram_matrix(words, f):
    """Gram matrix [<act(x_i^-1 x_j, f), f>] by the fast backend; positive
    semidefinite for any unitary representation's coefficient.  Each
    distinct x_i^-1 x_j is evaluated once."""
    k = len(words)
    g = np.zeros((k, k), dtype=np.complex128)
    values = {}
    for i, wi in enumerate(words):
        wii = wi.inverse()
        for j, wj in enumerate(words):
            x = multiply(wii, wj)
            val = values.get(x)
            if val is None:
                val = values[x] = coefficient(x, f, f)
            g[i, j] = val
    return g


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


def point_mass(v):
    """The spectral mass of a stem, read stem by stem: the form norm of the
    value at a stem at least as long as the depth, read by the vector's
    point evaluator, or the sum over the table entries under a shorter stem;
    the total at the identity.  Masses are memoized by stem."""
    forms = v.space.forms
    value_at = point_values(v)
    memo = {(): max(inner(v, v).real, 0.0)}

    def mass(stem):
        hit = memo.get(stem.letters)
        if hit is None:
            if len(stem) >= v.depth:
                under = [(stem, value_at(stem.letters))]
            else:
                under = [(w, val) for w, val in v.values.items() if w.starts_with(stem)]
            hit = memo[stem.letters] = max(
                sum(float(np.vdot(val, forms[w.last()] @ val).real)
                    for w, val in under if val is not None), 0.0)
        return hit

    return mass


def uniform_mass(alphabet):
    """The uniform probability measure's mass of a stem, in closed form."""
    n = len(alphabet)
    return lambda stem: (1.0 / n) * (n - 1.0) ** (1 - len(stem)) if len(stem) else 1.0


def hellinger_oracle(mass, alphabet, x, depth):
    """The Hellinger sum sum_C sqrt(mass(x.C) mass(C)) over the depth-``depth``
    partition as the literal loop: one stem at a time, each product by
    ``multiply``, each mass by ``mass``, and the terms added by ``math.fsum``
    so that the loop's own rounding does not grow with the partition."""
    terms = []
    for stem in sphere(alphabet, depth):
        m = mass(stem)
        if m <= 0.0:
            continue
        moved = mass(multiply(x, stem))
        if moved > 0.0:
            terms.append(math.sqrt(moved * m))
    return math.fsum(terms)


def additivity_defect(mu, stem):
    """|mu(C) - sum of the masses of C's one-letter refinements|."""
    alphabet = mu.alphabet
    children = sum(mu(multiply(stem, Word(alphabet, (c,))))
                   for c in range(len(alphabet)) if c != alphabet.inv[stem.last()])
    return abs(mu(stem) - children)


def coset_contains(table, w):
    """Membership of a word in the subgroup of a coset table."""
    return table.walk(w.letters) == 0


def is_psd(forms, tol=1e-10):
    """Whether every form of a tuple is positive semidefinite up to ``tol``."""
    return forms.min_eigenvalue() >= -tol


def save_vector(path, vector):
    """Write a vector in the JSON layout ``fileio.load_vector`` reads."""
    doc = {
        "depth": vector.depth,
        "values": {str(w): [_complex_to_entry(z) for z in v.tolist()]
                   for w, v in sorted(vector.values.items(), key=lambda kv: kv[0].letters)},
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
