"""Cylinder measures on the tree boundary: spectral measures of vectors,
Hellinger-type quasi-regular coefficients, the majorization check they
certify, and the decay demonstration showing the measure must depend on the
representation.  A measure holds one array of masses per sphere, in the
prefix-major :func:`words.word_index` order, so Hellinger sums slice blocks.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from . import _kernels
from .errors import CapExceededError, ValidationError
from .multrep import MultVector, coefficient, inner
from .words import (DEFAULT_CAP, Alphabet, Word, multiply, prefix_indices, sphere_size,
                    word_index)


class CylinderMeasure:
    """Finitely additive nonnegative set function on boundary cylinders: one
    array of masses per sphere, drawn from ``spheres`` (radius 1, 2, ...) on
    first use.  ``cap`` bounds the masses held; None for constant views."""

    def __init__(self, alphabet: Alphabet, total: float, spheres: Iterator[np.ndarray],
                 cap: Optional[int]):
        self.alphabet, self.total, self.cap = alphabet, float(total), cap
        self._spheres = spheres
        self._masses: List[np.ndarray] = [np.array([self.total])]

    def masses(self, r: int) -> np.ndarray:
        """The masses of the stems of length ``r``, in word_index order."""
        if r >= len(self._masses):
            held = sum(sphere_size(self.alphabet, k) for k in range(1, r + 1))
            if self.cap is not None and held > self.cap:
                raise CapExceededError(f"the measure would hold {held} masses, cap is {self.cap}")
            self._masses.extend(itertools.islice(self._spheres, r + 1 - len(self._masses)))
        return self._masses[r]

    def __call__(self, stem: Word) -> float:
        return float(self.masses(len(stem))[word_index(stem)])


def spectral_measure(v: MultVector, cap: int = DEFAULT_CAP) -> CylinderMeasure:
    """The boundary mass distribution of a vector: the cylinder indicator's
    operator compressed at ``v``.  Nonnegative and additive because those
    operators are commuting orthogonal projections.

    A stem at least as long as the depth M has its value's form norm as
    mass: the vector's level steps out a sphere at a time by
    ``_kernels.level_step``, with one einsum per letter; a shorter stem
    sums its block of sphere M.  Deeper spheres grow on first use, so one
    measure serves a whole ball; ``cap`` bounds the masses held.
    """
    alphabet, forms = v.space.alphabet, v.space.forms

    def spheres() -> Iterator[np.ndarray]:
        level = v.level
        for r in itertools.count(v.depth):
            top = np.zeros(sphere_size(alphabet, r))
            for p, (rows, keys) in level.items():
                top[keys] = np.einsum("ia,ab,ib->i", rows.conj(), forms[p], rows).real.clip(0)
            if r == v.depth:
                yield from (top.reshape(sphere_size(alphabet, k), -1).sum(1) for k in range(1, r))
            yield top
            level = _kernels.level_step(v.space.system.maps, alphabet.inv, level)

    mu = CylinderMeasure(alphabet, max(inner(v, v).real, 0.0), spheres(), cap)
    mu.masses(v.depth)
    return mu


def uniform_measure(alphabet: Alphabet) -> CylinderMeasure:
    """The equidistributed probability measure: mass |A|^-1 (|A|-1)^(1-k) on
    each stem of length k, one constant view per sphere."""
    n = len(alphabet)
    return CylinderMeasure(alphabet, 1.0, (
        np.broadcast_to((1.0 / n) * (n - 1.0) ** (1 - k), (sphere_size(alphabet, k),))
        for k in itertools.count(1)), None)


def _block(masses: np.ndarray, inv: Sequence[int], prefix: Tuple[int, ...], index: int,
           width: int, drop: Optional[int]) -> np.ndarray:
    """The masses under ``prefix``, whose word index is ``index``, less the
    ``width`` of them whose next letter is ``drop`` (None drops none): next
    letters run in order, skipping the inverse of the prefix's last."""
    if prefix:
        size = (len(inv) - 1) * width
        masses = masses[index * size:(index + 1) * size]
        drop = None if drop is None else drop - (drop > inv[prefix[-1]])
    return masses if drop is None else np.concatenate(
        (masses[:drop * width], masses[(drop + 1) * width:]))


def quasi_regular_coefficient(mu: CylinderMeasure, x: Word, depth: int,
                              cap: int = DEFAULT_CAP) -> float:
    """Hellinger sum over the depth-``depth`` cylinder partition:
    sum_C sqrt(mu(x.C) mu(C)).

    Requires depth >= |x| + 1, so every translated cylinder x.C(stem) is the
    single cylinder at x.stem.  Non-increasing in the depth and an upper
    bound for the quasi-regular diagonal coefficient of the measure.  The
    stems cancelling exactly k letters of x, and their images, are each a
    block of a sphere less one sub-block, in the same order, so each k pairs
    two slices of ``mu``'s arrays.  ``cap`` bounds the partition.
    """
    if depth < len(x) + 1:
        raise ValidationError(f"partition depth {depth} must exceed |x| = {len(x)}")
    alphabet, xs = mu.alphabet, x.letters
    if sphere_size(alphabet, depth) > cap:
        raise CapExceededError(f"the depth-{depth} partition exceeds the cap of {cap} cylinders")
    inv, lx = alphabet.inv, len(xs)
    xinv = tuple(inv[c] for c in reversed(xs))
    at_x, at_xinv = prefix_indices(alphabet, xs), prefix_indices(alphabet, xinv)
    total = 0.0
    for k in range(lx + 1):
        width = (len(alphabet) - 1) ** (depth - k - 1)
        stems = _block(mu.masses(depth), inv, xinv[:k], at_xinv[k], width,
                       inv[xs[lx - k - 1]] if k < lx else None)
        images = _block(mu.masses(lx + depth - 2 * k), inv, xs[:lx - k], at_x[lx - k], width,
                        xs[lx - k] if k else None)
        total += float(np.sqrt(stems * images).sum())
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
    counterexample.  ``mu`` is ``spectral_measure(v)``, built when omitted;
    pass one measure to every check over a ball to share its mass arrays.
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
    if max_power < 1:
        raise ValidationError(f"max power must be >= 1, got {max_power}")
    if abs(mu.total - 1.0) > 1e-9:
        raise ValidationError("the demo expects a probability measure")
    rows: List[Tuple[int, int, float]] = []
    power = Word.identity(w.alphabet)
    for n in range(1, max_power + 1):
        power = multiply(power, w)
        phi = quasi_regular_coefficient(mu, power, len(power) + 1, cap=cap)
        rows.append((n, len(power), phi))
    return rows
