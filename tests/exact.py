"""Exact evaluation over the real quadratic extension Q(sqrt(k)), the
tests' oracle for desk-scale values.

Normalized systems generically carry an irrational map scale sqrt(rho), so
plain rationals cannot express them; scalars a + b*sqrt(k) with rational a, b
can, and they close under the arithmetic of the literal sphere sum
(``helpers.sphere_coefficient``).  Squares of coefficients come out as honest
fractions; real entries only.  Exact entries are read by the package's
parser, ``fileio._parse_exact``, which the float loader shares.
"""

import json
from fractions import Fraction
from typing import Dict, Sequence, Tuple

from mbrep import cli, fileio
from mbrep.errors import DepthError, ValidationError
from mbrep.words import Alphabet, Word

from helpers import sphere_coefficient


class QuadExt:
    """Number a + b*sqrt(k) with rational a, b and a radicand k > 0; the two
    operands of an operation share k."""

    __slots__ = ("a", "b", "k")

    def __init__(self, a, b=0, k=1):
        self.a, self.b, self.k = Fraction(a), Fraction(b), Fraction(k)

    def _k(self, other: "QuadExt") -> Fraction:
        if other.k != self.k:
            raise ValidationError(f"mixed radicands {self.k} and {other.k}")
        return self.k

    def __add__(self, other):
        return QuadExt(self.a + other.a, self.b + other.b, self._k(other))

    def __sub__(self, other):
        return QuadExt(self.a - other.a, self.b - other.b, self._k(other))

    def __mul__(self, other):
        k = self._k(other)
        return QuadExt(self.a * other.a + self.b * other.b * k,
                       self.a * other.b + self.b * other.a, k)

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def square(self) -> "QuadExt":
        return self * self

    def as_fraction(self) -> Fraction:
        if self.b != 0:
            raise ValidationError("value is irrational")
        return self.a

    def __float__(self) -> float:
        return float(self.a) + float(self.b) * float(self.k) ** 0.5

    def __repr__(self) -> str:
        return f"{self.a}+{self.b}*sqrt({self.k})"


ExactMatrix = Tuple[Tuple[QuadExt, ...], ...]


class ExactSystem:
    """Matrix system with real entries in one quadratic extension."""

    def __init__(self, alphabet: Alphabet, dims: Sequence[int],
                 maps: Dict[Tuple[int, int], ExactMatrix],
                 forms: Dict[int, ExactMatrix], radicand=1):
        self.alphabet = alphabet
        self.dims = tuple(dims)
        self.maps = maps
        self.forms = forms
        self.radicand = Fraction(radicand)

    def zero(self) -> QuadExt:
        return QuadExt(0, 0, self.radicand)

    def compatibility_holds(self) -> bool:
        """Exact check of the transfer fixed-point identity
        sum_b H_ba^T B_b H_ba = B_a for the forms."""
        for a, da in enumerate(self.dims):
            for i in range(da):
                for j in range(da):
                    s = self.zero() - self.forms[a][i][j]
                    for (b, source), m in self.maps.items():
                        fb, db = self.forms[b], self.dims[b]
                        if source == a:
                            for p in range(db):
                                for q in range(db):
                                    s = s + m[p][i] * fb[p][q] * m[q][j]
                    if not s.is_zero():
                        return False
        return True


class ExactVector:
    """Sphere table with exact entries; absent words are zero."""

    def __init__(self, system: ExactSystem, depth: int,
                 values: Dict[Word, Tuple[QuadExt, ...]]):
        if depth < 1:
            raise ValidationError("depth must be >= 1")
        self.system = system
        self.depth = depth
        self.values = {w: tuple(v) for w, v in values.items()
                       if not all(x.is_zero() for x in v)}


def exact_evaluate(f: ExactVector, w: Word) -> Tuple[QuadExt, ...]:
    if len(w) < f.depth:
        raise DepthError(f"cannot evaluate below depth {f.depth}")
    zero = f.system.zero()
    v = f.values.get(Word(w.alphabet, w.letters[: f.depth]))
    for k in range(f.depth, len(w)):
        m = None if v is None else f.system.maps.get((w.letters[k], w.letters[k - 1]))
        v = None if m is None else tuple(sum((mi[j] * v[j] for j in range(len(v))), zero)
                                          for mi in m)
    return tuple(zero for _ in range(f.system.dims[w.last()])) if v is None else v


def exact_coefficient(x: Word, f: ExactVector, g: ExactVector) -> QuadExt:
    """Literal truncated sphere sum of the matrix coefficient, exactly, over
    at most 200,000 sphere words."""
    system = f.system

    def pair(letter: int, fv: Tuple[QuadExt, ...], gv: Tuple[QuadExt, ...]) -> QuadExt:
        form, d = system.forms[letter], system.dims[letter]
        return sum((gv[i] * form[i][j] * fv[j] for i in range(d) if not gv[i].is_zero()
                    for j in range(d)), system.zero())

    return sphere_coefficient(system.alphabet, x, f, g, exact_evaluate, pair,
                              system.zero(), 200_000)


def exact_spherical(alphabet: Alphabet) -> ExactSystem:
    """Rank-r spherical system with exact maps 1/sqrt(|A|-1) and unit forms."""
    n = len(alphabet)
    k = n - 1
    scale = QuadExt(0, Fraction(1, k), k)  # sqrt(k)/k == 1/sqrt(k)
    one = QuadExt(1, 0, k)
    maps = {}
    for b in range(n):
        for a in range(n):
            if alphabet.inv[a] != b:
                maps[(b, a)] = ((scale,),)
    forms = {a: ((one,),) for a in range(n)}
    return ExactSystem(alphabet, [1] * n, maps, forms, radicand=k)


def load_exact_builtin() -> ExactSystem:
    """``builtin:spherical2-exact`` as an ``ExactSystem``."""
    with open(cli._resolve("builtin:spherical2-exact")) as fh:
        doc = json.load(fh)
    alphabet, radicand = Alphabet(doc["alphabet"], doc["involution"]), Fraction(doc["radicand"])

    def matrix(rows) -> ExactMatrix:
        return tuple(tuple(QuadExt(*fileio._parse_exact(e), radicand) for e in row) for row in rows)

    maps = {tuple(alphabet.letter(name) for name in key.split("|")): matrix(rows)
            for key, rows in doc["maps"].items()}
    forms = {alphabet.letter(name): matrix(rows) for name, rows in doc["forms"].items()}
    return ExactSystem(alphabet, [doc["dims"][name] for name in alphabet.names],
                       maps, forms, radicand)


def load_exact_vector(path: str, exact_system: ExactSystem) -> ExactVector:
    """A vector file with exact entries, read like ``fileio.load_vector``."""
    depth, values = fileio._vector_doc(
        path, exact_system.alphabet,
        lambda e, _: QuadExt(*fileio._parse_exact(e), exact_system.radicand))
    return ExactVector(exact_system, depth, {w: tuple(v) for w, v in values.items()})
