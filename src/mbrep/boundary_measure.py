"""Cylinder measures on the tree boundary: spectral measures of vectors,
Hellinger-type quasi-regular coefficients, the majorization check they
certify, and the decay demonstration showing the measure must depend on the
representation.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from .errors import CapExceededError, ValidationError
from .multrep import MultVector, coefficient, inner, point_values
from .words import DEFAULT_CAP, Alphabet, Word, multiply, sphere


class CylinderMeasure:
    """Finitely additive nonnegative set function on boundary cylinders,
    lazily evaluated and cached by stem."""

    def __init__(self, alphabet: Alphabet, evaluator: Callable[[Word], float],
                 total: float):
        self.alphabet = alphabet
        self._evaluator = evaluator
        self.total = float(total)
        self._cache: Dict[Tuple[int, ...], float] = {}

    def __call__(self, stem: Word) -> float:
        if stem.is_identity():
            return self.total
        key = stem.letters
        hit = self._cache.get(key)
        if hit is None:
            hit = float(self._evaluator(stem))
            self._cache[key] = hit
        return hit

    def additivity_defect(self, stem: Word) -> float:
        """|mu(C) - sum of one-letter refinements|."""
        n = len(self.alphabet)
        inv = self.alphabet.inv
        children = 0.0
        for c in range(n):
            if c != inv[stem.last()]:
                children += self(multiply(stem, Word(self.alphabet, (c,))))
        return abs(self(stem) - children)


def spectral_measure(v: MultVector, cap: int = DEFAULT_CAP) -> CylinderMeasure:
    """The boundary mass distribution of a vector: the cylinder indicator's
    operator compressed at ``v``.  Nonnegative and additive because those
    operators are commuting orthogonal projections.

    By compatibility a stem at least as long as the presentation depth has
    the form norm of the value there as its mass, read through one shared
    :func:`point_values` evaluator; a shorter stem sums the table entries
    under it.  Masses are cached, so one measure serves every word of a
    ball; ``cap`` bounds the number of cylinders it evaluates.
    """
    forms = v.space.forms
    value_at = point_values(v)
    evaluated = itertools.count(1)

    def evaluator(stem: Word) -> float:
        if next(evaluated) > cap:
            raise CapExceededError(f"the spectral measure would evaluate more than {cap} cylinders")
        if len(stem) >= v.depth:
            under = [(stem, value_at(stem.letters))]
        else:
            under = [(w, val) for w, val in v.values.items() if w.starts_with(stem)]
        return max(sum(float(np.vdot(val, forms[w.last()] @ val).real)
                       for w, val in under if val is not None), 0.0)

    return CylinderMeasure(v.space.alphabet, evaluator, max(inner(v, v).real, 0.0))


def uniform_measure(alphabet: Alphabet) -> CylinderMeasure:
    """The equidistributed probability measure: mass |A|^-1 (|A|-1)^(1-k) on
    each stem of length k."""
    n = len(alphabet)

    def evaluator(stem: Word) -> float:
        return (1.0 / n) * (n - 1.0) ** (1 - len(stem))

    return CylinderMeasure(alphabet, evaluator, 1.0)


def quasi_regular_coefficient(mu: CylinderMeasure, x: Word, depth: int,
                              cap: int = DEFAULT_CAP) -> float:
    """Hellinger sum over the depth-``depth`` cylinder partition:
    sum_C sqrt(mu(x.C) mu(C)).

    Requires depth >= |x| + 1, so every translated cylinder x.C(stem) is the
    single cylinder at x.stem.  Non-increasing in the depth and an upper
    bound for the quasi-regular diagonal coefficient of the measure.
    """
    if depth < len(x) + 1:
        raise ValidationError(f"partition depth {depth} must exceed |x| = {len(x)}")
    total = 0.0
    for stem in sphere(mu.alphabet, depth, cap=cap):
        mass = mu(stem)
        if mass <= 0.0:
            continue
        moved = mu(multiply(x, stem))
        if moved > 0.0:
            total += math.sqrt(moved * mass)
    return total


@dataclass
class HerzResult:
    lhs: float
    rhs: float
    passed: bool

    @property
    def margin(self) -> float:
        return self.rhs - self.lhs


def herz_check(v: MultVector, x: Word, depth: int, tol: float = 1e-9,
               mu: Optional[CylinderMeasure] = None, cap: int = DEFAULT_CAP) -> HerzResult:
    """Majorization of the matrix coefficient by the quasi-regular
    coefficient of the vector's own spectral measure.

    Sound upper bound: splitting the coefficient over the depth partition and
    applying Cauchy-Schwarz cylinder by cylinder dominates the left side by
    the Hellinger sum, so a failure beyond tolerance is a bug, not a
    counterexample.

    ``mu`` is ``spectral_measure(v)``, built here when omitted; pass one
    measure to every check over a ball so its cylinder masses and its point
    evaluator are shared.
    """
    if mu is None:
        mu = spectral_measure(v, cap=cap)
    lhs = abs(coefficient(x, v, v, cap=cap))
    rhs = quasi_regular_coefficient(mu, x, depth, cap=cap)
    return HerzResult(lhs, rhs, lhs <= rhs + tol)


def no_harish_chandra_demo(mu: CylinderMeasure, w: Word, max_power: int,
                           cap: int = DEFAULT_CAP) -> List[Tuple[int, int, float]]:
    """Decay table phi(w^n) for one fixed probability measure.

    A measure working uniformly for every tempered representation would force
    these diagonal values to stay at one; the strict decay below one exhibits
    the dependence of the majorizing measure on the representation.
    ``cap`` bounds each Hellinger sum's cylinder partition.
    """
    if w.is_identity():
        raise ValidationError("the demo needs a nontrivial group element")
    if max_power < 0:
        raise ValidationError(f"max power must be >= 0, got {max_power}")
    if abs(mu.total - 1.0) > 1e-9:
        raise ValidationError("the demo expects a probability measure")
    rows: List[Tuple[int, int, float]] = []
    power = Word.identity(w.alphabet)
    for n in range(1, max_power + 1):
        power = multiply(power, w)
        phi = quasi_regular_coefficient(mu, power, len(power) + 1, cap=cap)
        rows.append((n, len(power), phi))
    return rows
