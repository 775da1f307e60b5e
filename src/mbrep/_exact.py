"""Exact evaluation over the real quadratic extension Q(sqrt(k)).

Normalized systems generically carry an irrational map scale sqrt(rho), so
plain rationals cannot express them; scalars a + b*sqrt(k) with rational a, b
can, and they close under the arithmetic of the literal sphere sum
(``multrep.sphere_coefficient``).  This mode exists to pin desk-scale values
exactly (squares of coefficients come out as honest fractions); it supports
real entries only.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Optional, Sequence, Tuple

from .errors import DepthError, ValidationError
from .multrep import sphere_coefficient
from .words import Alphabet, Word


class QuadExt:
    """Number a + b*sqrt(k) with rational a, b and a fixed radicand k > 0."""

    __slots__ = ("a", "b", "k")

    def __init__(self, a, b=0, k=1):
        self.a = Fraction(a)
        self.b = Fraction(b)
        self.k = Fraction(k)

    def _match(self, other: "QuadExt") -> None:
        if self.b != 0 and other.b != 0 and self.k != other.k:
            raise ValidationError(f"mixed radicands {self.k} and {other.k}")

    def _k_or(self, other: "QuadExt") -> Fraction:
        return self.k if self.b != 0 else other.k

    def __add__(self, other):
        other = _coerce(other, self.k)
        self._match(other)
        return QuadExt(self.a + other.a, self.b + other.b, self._k_or(other))

    __radd__ = __add__

    def __neg__(self):
        return QuadExt(-self.a, -self.b, self.k)

    def __sub__(self, other):
        return self + (-_coerce(other, self.k))

    def __mul__(self, other):
        other = _coerce(other, self.k)
        self._match(other)
        k = self._k_or(other)
        return QuadExt(self.a * other.a + self.b * other.b * k,
                       self.a * other.b + self.b * other.a, k)

    __rmul__ = __mul__

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

    def __eq__(self, other) -> bool:
        other = _coerce(other, self.k)
        return self.a == other.a and self.b == other.b and (self.b == 0 or self.k == other.k)

    def __repr__(self) -> str:
        if self.b == 0:
            return f"{self.a}"
        return f"{self.a}+{self.b}*sqrt({self.k})"


def _coerce(value, k) -> QuadExt:
    if isinstance(value, QuadExt):
        return value
    return QuadExt(Fraction(value), 0, k)


ExactMatrix = Tuple[Tuple[QuadExt, ...], ...]


class ExactSystem:
    """Matrix system with entries in one quadratic extension."""

    def __init__(self, alphabet: Alphabet, dims: Sequence[int],
                 maps: Dict[Tuple[int, int], ExactMatrix],
                 forms: Dict[int, ExactMatrix], radicand=1):
        self.alphabet = alphabet
        self.dims = tuple(dims)
        self.maps = maps
        self.forms = forms
        self.radicand = Fraction(radicand)

    def map(self, b: int, a: int) -> Optional[ExactMatrix]:
        return self.maps.get((b, a))

    def zero(self) -> QuadExt:
        return QuadExt(0, 0, self.radicand)

    def compatibility_holds(self) -> bool:
        """Exact check of the transfer fixed-point identity for the forms."""
        n = len(self.alphabet)
        for a in range(n):
            da = self.dims[a]
            acc = [[self.zero() for _ in range(da)] for _ in range(da)]
            for b in range(n):
                m = self.maps.get((b, a))
                if m is None:
                    continue
                fb = self.forms[b]
                db = self.dims[b]
                # H^T B H for real entries
                for i in range(da):
                    for j in range(da):
                        s = self.zero()
                        for p in range(db):
                            for q in range(db):
                                s = s + m[p][i] * fb[p][q] * m[q][j]
                        acc[i][j] = acc[i][j] + s
            fa = self.forms[a]
            for i in range(da):
                for j in range(da):
                    if not (acc[i][j] - fa[i][j]).is_zero():
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


def _exact_matvec(system: ExactSystem, b: int, a: int,
                  v: Tuple[QuadExt, ...]) -> Tuple[QuadExt, ...]:
    m = system.maps.get((b, a))
    if m is None:
        return tuple(system.zero() for _ in range(system.dims[b]))
    return tuple(sum((m[i][j] * v[j] for j in range(system.dims[a])),
                     system.zero()) for i in range(system.dims[b]))


def exact_evaluate(f: ExactVector, w: Word) -> Tuple[QuadExt, ...]:
    if len(w) < f.depth:
        raise DepthError(f"cannot evaluate below depth {f.depth}")
    prefix = Word(w.alphabet, w.letters[: f.depth])
    v = f.values.get(prefix)
    if v is None:
        return tuple(f.system.zero() for _ in range(f.system.dims[w.last()]))
    for k in range(f.depth, len(w)):
        v = _exact_matvec(f.system, w.letters[k], w.letters[k - 1], v)
    return v


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


def exact_inner(f: ExactVector, g: ExactVector) -> QuadExt:
    return exact_coefficient(Word.identity(f.system.alphabet), f, g)


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
