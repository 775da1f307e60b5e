"""Shared generators for seeded random systems, vectors, and words, and the
literal oracles and test-only predicates the tests compare the package with:
the literal sphere sum, the root-by-root cone sum, crossed-product elements,
boundary cylinders with their refinement and the splitting recursion for
their images, the expansion of subgroup words, the randomized search for an
invariant subsystem, and the QR rank rule of the commutant.  The exact
Q(sqrt(k)) oracle is in ``exact``."""

import json
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from mbrep.fileio import _complex_to_entry
from mbrep.errors import ValidationError
from mbrep.multrep import (MultVector, RepSpace, act, coefficient, cylinder_op,
                           evaluate, inner, point_values, vadd, vscale, zero_vector)
from mbrep.subgroups import SchreierData
from mbrep.system import INVARIANCE_TOL, MatrixSystem, normalize
from mbrep.words import (DEFAULT_CAP, Alphabet, Word, concat, cone_walk, cylinder_image,
                         multiply, sphere)


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


def sphere_coefficient(alphabet: Alphabet, x: Word, f, g, value_at: Callable,
                       pair: Callable, zero, cap: int):
    """Literal truncated sphere sum of the matrix coefficient <act(x, f), g>
    over any scalar type: ``zero`` plus ``pair(letter, f(x^-1 y), g(y))``
    over every y on the sphere of radius max(depths) + |x| + 1, where
    ``letter`` is the last letter of y and ``value_at(f, w)`` evaluates a
    vector.  The exact oracle over Q(sqrt(k)), and over floats the
    small-case gate for both backends.
    """
    m_depth = max(f.depth, g.depth) + len(x) + 1
    xinv = x.inverse()
    total = zero
    for y in sphere(alphabet, m_depth, cap=cap):
        total = total + pair(y.last(), value_at(f, multiply(xinv, y)), value_at(g, y))
    return total


@dataclass(frozen=True)
class CrossedElement:
    """Finite sum of (coefficient, cylinder stem or None for the whole
    boundary, group element) terms acting by boundary multiplication after
    translation."""

    terms: Tuple[Tuple[complex, Optional[Word], Word], ...]

    @classmethod
    def of(cls, *terms) -> "CrossedElement":
        return cls(tuple((complex(coeff), stem, gamma) for coeff, stem, gamma in terms))


def apply_crossed(element: CrossedElement, f: MultVector) -> MultVector:
    out = zero_vector(f.space, f.depth)
    for coeff, stem, gamma in element.terms:
        moved = act(gamma, f)
        if stem is not None:
            moved = cylinder_op(stem, moved)
        out = vadd(out, vscale(coeff, moved))
    return out


def reference_coefficient(x, f, g):
    """The matrix coefficient <act(x, f), g> as the literal sphere sum, word
    by word: it walks no cones, so it checks both backends' partition."""
    forms = f.space.forms
    return complex(sphere_coefficient(f.space.alphabet, x, f, g, evaluate,
                                      lambda a, fv, gv: np.vdot(gv, forms[a] @ fv), 0j,
                                      DEFAULT_CAP))


def _fast_coefficient(x, f, g):
    """The cone sum of the fast backend root by root: for each cone of
    ``cone_walk``, the form pairing of f and g at its roots, each read
    through the vector's point evaluator; the identity's is ``inner``."""
    if x.is_identity():
        return inner(f, g)
    forms = f.space.forms
    f_at = point_values(f)
    g_at = point_values(g)
    total = 0.0 + 0.0j
    for roots in cone_walk(x, f.depth, g.depth):
        for fw, gw in roots:
            # a root where either vector is zero adds an exact zero
            fv = f_at(fw)
            if fv is None:
                continue
            gv = g_at(gw)
            if gv is None:
                continue
            total += np.vdot(gv, forms[fw[-1]] @ fv)
    return complex(total)


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


@dataclass(frozen=True)
class Cylinder:
    """Boundary cylinder: all infinite reduced words starting with ``stem``."""

    stem: Word

    def __post_init__(self):
        if self.stem.is_identity():
            raise ValidationError("cylinder stem must be nonempty")


class CylinderUnion:
    """Finite disjoint union of cylinders (no stem a prefix of another)."""

    __slots__ = ("parts",)

    def __init__(self, parts: Iterable[Cylinder]):
        parts = tuple(parts)
        stems = [c.stem.letters for c in parts]
        stems_set = set(stems)
        if len(stems_set) != len(stems):
            raise ValidationError("cylinder union has repeated parts")
        for s in stems:
            for k in range(1, len(s)):
                if s[:k] in stems_set:
                    raise ValidationError("cylinder union parts are not disjoint")
        self.parts = parts

    def __iter__(self) -> Iterator[Cylinder]:
        return iter(self.parts)

    def __len__(self) -> int:
        return len(self.parts)

    def stems(self) -> Tuple[Word, ...]:
        return tuple(c.stem for c in self.parts)


def refine(c: Cylinder, depth: int) -> CylinderUnion:
    """Partition a cylinder into all cylinders of stem length ``depth``, in
    sphere order."""
    stem = c.stem
    if depth < len(stem):
        raise ValidationError(f"refinement depth {depth} below stem length {len(stem)}")
    alphabet = stem.alphabet
    n = len(alphabet)
    inv = alphabet.inv
    out = [stem.letters]
    for _ in range(depth - len(stem)):
        out = [s + (d,) for s in out for d in range(n) if d != inv[s[-1]]]
    return CylinderUnion(Cylinder(Word._of(alphabet, s)) for s in out)


def recursive_image(x: Word, c: Cylinder) -> CylinderUnion:
    """The set x . C as a disjoint union of cylinders, by splitting: a stem
    whose last letter survives multiplication by x is moved whole, any other
    is split one level deeper, and the cancelling suffix strictly shortens
    each time.  The oracle of the closed form ``cylinder_image``."""
    acc: List[Cylinder] = []

    def image_one(stem: Word) -> None:
        z = multiply(x, stem)
        if not z.is_identity() and z.last() == stem.last():
            acc.append(Cylinder(z))
            return
        forbidden = stem.alphabet.inv[stem.last()]
        for d in range(len(stem.alphabet)):
            if d != forbidden:
                image_one(concat(stem, d))

    image_one(c.stem)
    return CylinderUnion(acc)


def union_image(x, stems):
    """The stems of the set x . U of a union U of disjoint cylinders, given
    by their stems."""
    return tuple(part for z in stems for part in cylinder_image(x, z))


def refine_union_stems(stems, depth):
    """Stems (as letter tuples) of the depth-``depth`` refinement of a union
    of cylinders, given by their stems: a canonical form to compare
    boundary sets."""
    return frozenset(fine.stem.letters for z in stems for fine in refine(Cylinder(z), depth))


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


def qr_null_space(mat, null_tol=1e-9):
    """Orthonormal null vectors (columns) of a dense real matrix under the
    commutant's rank rule, by its earlier path: the triangular factor of a
    QR, then the full SVD of that factor, singular values up to
    ``null_tol * max(1, s0)`` counted null."""
    r = np.linalg.qr(mat, mode="r")
    _, s, vt = np.linalg.svd(r)
    rank = int(np.sum(s > null_tol * max(1.0, s[0] if len(s) else 1.0)))
    return vt[rank:].T


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


def expand_from_subgroup(w: Word, data: SchreierData) -> Word:
    """Inverse of rewriting: evaluate a generator-alphabet word in the free
    group."""
    out = Word.identity(data.table.alphabet)
    for j in w.letters:
        out = multiply(out, data.generator_words[j])
    return out


class Subsystem:
    """Graded family of subspaces, one per letter, stored as matrices whose
    columns are an orthonormal basis (possibly zero columns)."""

    def __init__(self, bases: Sequence[np.ndarray]):
        self.bases = [np.asarray(q, dtype=np.complex128) for q in bases]

    def total_dim(self) -> int:
        return sum(q.shape[1] for q in self.bases)


def subsystem_residual(system: MatrixSystem, sub: Subsystem) -> float:
    """Max over letter pairs of ||(I - P_b) H_ba P_a|| with P the orthogonal
    projection onto the stored basis."""
    worst = 0.0
    for b, a, m in system.nonzero_pairs():
        qa, qb = sub.bases[a], sub.bases[b]
        if qa.shape[1] == 0:
            continue
        image = m @ qa
        if qb.shape[1]:
            image = image - qb @ (qb.conj().T @ image)
        if image.size:
            worst = max(worst, float(np.linalg.norm(image, 2)))
    return worst


def _spin_up(system: MatrixSystem, seeds: List[List[np.ndarray]]) -> Subsystem:
    """Close a graded family of vectors under all maps."""
    def orthobasis(vectors: List[np.ndarray], d: int) -> np.ndarray:
        if not vectors:
            return np.zeros((d, 0), dtype=np.complex128)
        m = np.column_stack(vectors)
        u, s, _ = np.linalg.svd(m, full_matrices=False)
        keep = s > 1e-9 * max(1.0, s[0] if len(s) else 1.0)
        return u[:, keep]

    bases = [orthobasis(vectors, d) for vectors, d in zip(seeds, system.dims)]
    changed = True
    while changed:
        changed = False
        for b, a, m in system.nonzero_pairs():
            if bases[a].shape[1] == 0:
                continue
            image = m @ bases[a]
            qb = bases[b]
            leftover = image - qb @ (qb.conj().T @ image) if qb.shape[1] else image
            norms = np.linalg.norm(leftover, axis=0)
            fresh = leftover[:, norms > 1e-9]
            if fresh.shape[1]:
                bases[b] = orthobasis([qb, fresh] if qb.shape[1] else [fresh], system.dims[b])
                changed = True
    return Subsystem(bases)


def _random_loop_element(system: MatrixSystem, a: int,
                         rng: np.random.Generator) -> Optional[np.ndarray]:
    """Product of maps along a random cycle a -> ... -> a of 2 to 6 steps."""
    n = len(system.alphabet)
    inv = system.alphabet.inv
    length = int(rng.integers(2, 7))
    path = [a]
    for _ in range(length - 1):
        choices = [c for c in range(n) if c != inv[path[-1]]]
        path.append(int(rng.choice(choices)))
    if a == inv[path[-1]]:
        return None
    path.append(a)
    m = np.eye(system.dims[a], dtype=np.complex128)
    for src, dst in zip(path[:-1], path[1:]):
        step = system.maps[dst][src]
        if step is None:
            return None
        m = step @ m
    return m


def find_invariant_subsystem(system: MatrixSystem, seed: int = 0) -> Optional[Subsystem]:
    """Randomized search for a nontrivial proper invariant subsystem.

    Alternates spin-ups of random vectors with spin-ups of eigenvectors of
    random loop-path products (the nullspace trick of computational module
    theory, adapted to the letter-graded setting).  A returned subsystem is
    an exact witness, re-verified against ``INVARIANCE_TOL``; ``None`` only
    means no subsystem was found within 50 rounds.
    """
    n = len(system.alphabet)
    total = sum(system.dims)
    if total == 0:
        return None
    rng = np.random.default_rng(seed)

    def consider(sub: Subsystem) -> Optional[Subsystem]:
        t = sub.total_dim()
        if 0 < t < total and subsystem_residual(system, sub) <= INVARIANCE_TOL:
            return sub
        return None

    for round_no in range(50):
        a = round_no % n
        if system.dims[a] == 0:
            continue
        seeds: List[List[np.ndarray]] = [[] for _ in range(n)]
        if round_no % 2 == 0:
            v = rng.normal(size=system.dims[a]) + 1j * rng.normal(size=system.dims[a])
            seeds[a].append(v / np.linalg.norm(v))
            found = consider(_spin_up(system, seeds))
            if found is not None:
                return found
        else:
            loop = _random_loop_element(system, a, rng)
            if loop is None or not np.isfinite(loop).all():
                continue
            scale = np.abs(loop).max()
            if scale < 1e-14:
                continue
            eigvals, eigvecs = np.linalg.eig(loop / scale)
            for k in range(eigvecs.shape[1]):
                v = eigvecs[:, k]
                nv = np.linalg.norm(v)
                if nv < 1e-12:
                    continue
                trial: List[List[np.ndarray]] = [[] for _ in range(n)]
                trial[a].append(v / nv)
                found = consider(_spin_up(system, trial))
                if found is not None:
                    return found
    return None
