"""Multiplicative vectors and their unitary action, inner products and matrix
coefficients, and boundary cylinder operators.

A vector is a finite germ: values on one word sphere, propagated outward by
the system maps.  :func:`deepen` propagates a whole table through
``_kernels.level_step``, one level at a time; :func:`point_values` is each
vector's one memoized evaluator, which steps single words one matvec per
letter from the longest prefix any reader has stepped through.  Every
single-word read goes through it; :func:`evaluate` alone walks afresh.

Matrix coefficients come in two backends over the cones of
:func:`cone_walk`, which partitions the sphere by where a word leaves the
geodesic of the acting word.  ``fast``, :func:`coefficients`, regroups the
cone sum into one row carried along the prefixes of a word set, a few small
matvecs per prefix shared by every word through it: the matrix-product form
of the coefficients of multiplicative representations.  ``brute``, the
literal sphere-sum oracle (exponential, see ``_kernels``), steps the cones'
root values outward with the same level step as ``deepen`` to three levels
short of the truncation sphere, where one kernel per path of the last three
steps pairs each sphere word's term from the values at its prefix there.
"""

from __future__ import annotations

import functools
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from . import _kernels
from .errors import CapExceededError, DepthError, ValidationError
from .system import FormTuple, MatrixSystem, compatibility_residual
from .words import (DEFAULT_CAP, Alphabet, Cylinder, Word, cylinder_image, multiply,
                    refine, sphere_size, word_index)


class RepSpace:
    """A matrix system with a compatible form tuple, ready for evaluation.

    Compatibility is what makes sphere sums depth-independent, so grossly
    incompatible forms are rejected here rather than allowed to corrupt every
    downstream quantity.
    """

    def __init__(self, system: MatrixSystem, forms: FormTuple, check: bool = True):
        self.system = system
        self.forms = forms
        self.residual = compatibility_residual(system, forms)
        if check:
            scale = max(forms.max_abs(), 1e-30)
            if self.residual > 1e-6 * max(1.0, scale):
                raise ValidationError(
                    f"forms are not compatible with the maps (residual {self.residual:.3e})")

    @property
    def alphabet(self) -> Alphabet:
        return self.system.alphabet

    def dim(self, letter: int) -> int:
        return self.system.dims[letter]

    @functools.cached_property
    def cone_tables(self) -> Tuple[list, list]:
        """The maps H[b][a], zero matrices for None maps, and the cone kernels
        K[a][b] = sum over c not in {b, a^-1} of H[c][a]^* B_c H[c][b^-1]
        (None where b is a^-1), built on first use, once per space."""
        inv, forms, n = self.alphabet.inv, self.forms, len(self.alphabet)
        H = [[self.system.map(b, a) for a in range(n)] for b in range(n)]
        K = [[None if b == inv[a] else sum(H[c][a].conj().T @ forms[c] @ H[c][inv[b]]
                                            for c in range(n) if c != b and c != inv[a])
              for b in range(n)] for a in range(n)]
        return H, K

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if not isinstance(other, RepSpace):
            return NotImplemented
        if self.system.alphabet != other.system.alphabet:
            return False
        if self.system.dims != other.system.dims:
            return False
        for b in range(len(self.alphabet)):
            for a in range(len(self.alphabet)):
                if not np.array_equal(self.system.map(b, a), other.system.map(b, a)):
                    return False
        return all(np.array_equal(x, y) for x, y in zip(self.forms.forms, other.forms.forms))

    def __hash__(self):
        return hash((self.system.alphabet, self.system.dims))


class MultVector:
    """Finite presentation of a multiplicative function: a depth M >= 1 and a
    table of values on the radius-M sphere (absent words mean zero).

    Values at longer words follow by map propagation; two presentations of
    different depths describe the same function when one deepens to the
    other.
    """

    __slots__ = ("space", "depth", "values", "_at")

    def __init__(self, space: RepSpace, depth: int, values: Dict[Word, np.ndarray]):
        if depth < 1:
            raise ValidationError(f"depth must be >= 1, got {depth}")
        self.space = space
        self.depth = depth
        table: Dict[Word, np.ndarray] = {}
        for w, v in values.items():
            if len(w) != depth:
                raise ValidationError(f"value word {w} has length {len(w)}, expected {depth}")
            v = np.asarray(v, dtype=np.complex128)
            want = space.dim(w.last())
            if v.shape != (want,):
                raise ValidationError(f"value at {w} has shape {v.shape}, expected ({want},)")
            if np.any(v != 0):
                table[w] = v
        self.values = table
        self._at = None

    @classmethod
    def _of(cls, space: RepSpace, depth: int, values: Dict[Word, np.ndarray]) -> "MultVector":
        """Trusted constructor for a table the program built itself: keys of
        length ``depth``, values of the right shapes, no zero values."""
        out = cls.__new__(cls)
        out.space = space
        out.depth = depth
        out.values = values
        out._at = None
        return out

    @classmethod
    def seed(cls, space: RepSpace, values: Dict[Word, Sequence[complex]]) -> "MultVector":
        depths = {len(w) for w in values}
        if len(depths) != 1:
            raise ValidationError("seed words must all have the same length")
        return cls(space, depths.pop(), {w: np.asarray(v) for w, v in values.items()})

    def is_zero(self) -> bool:
        return not self.values

    def __repr__(self) -> str:
        return f"MultVector(depth={self.depth}, support={len(self.values)})"


#: marks a word that an evaluator has not memoized (None is a zero value)
_UNSET = object()


def point_values(f: MultVector) -> Callable[[Tuple[int, ...]], Optional[np.ndarray]]:
    """The memoized evaluator of ``f``: given the letters of a reduced word
    of length >= the depth, it returns the value there, or None where it is
    zero.  It is made on first use and kept for the vector's lifetime, so
    every reader of ``f`` shares its memo.

    Each word is stepped out from its longest memoized prefix, or else from
    its table entry, one matvec per letter; the table entry, the prefixes
    passed and the word itself are memoized.  The chain of products is
    always the one from the table entry, so values do not depend on the
    order in which words are asked, nor on who asked them.
    """
    if f._at is None:
        f._at = _evaluator(f)
    return f._at


def _evaluator(f: MultVector) -> Callable[[Tuple[int, ...]], Optional[np.ndarray]]:
    """A new evaluator of ``f`` with an empty memo (see :func:`point_values`)."""
    maps = f.space.system.maps
    alphabet = f.space.alphabet
    depth = f.depth
    table = f.values
    memo: Dict[Tuple[int, ...], Optional[np.ndarray]] = {}

    def value_at(letters: Tuple[int, ...]) -> Optional[np.ndarray]:
        n = len(letters)
        if n < depth:
            raise DepthError(f"cannot evaluate at {letters}: below presentation depth {depth}")
        k = n
        v = memo.get(letters, _UNSET)
        while v is _UNSET and k > depth:
            k -= 1
            v = memo.get(letters[:k], _UNSET)
        if v is _UNSET:
            head = letters[:depth]
            v = memo[head] = table.get(Word._of(alphabet, head))
        while k < n and v is not None:
            m = maps[letters[k]][letters[k - 1]]
            v = None if m is None else m @ v
            k += 1
            memo[letters[:k]] = v
        return v

    return value_at


def evaluate(f: MultVector, w: Word) -> np.ndarray:
    """Value of the propagated function at a word of length >= the depth,
    by one walk of a fresh evaluator that shares no memo with
    :func:`point_values`; the tests' independent oracle."""
    if len(w) < f.depth:
        raise DepthError(f"cannot evaluate at {w}: below presentation depth {f.depth}")
    v = _evaluator(f)(w.letters)
    if v is None:
        return np.zeros(f.space.dim(w.last()), dtype=np.complex128)
    return v


def deepen(f: MultVector, new_depth: int, cap: int = DEFAULT_CAP) -> MultVector:
    """Re-present the same function on a deeper sphere by propagation.

    The table is stepped out one level at a time by
    :func:`_kernels.level_step`; rows that become zero are dropped at each
    level, so the new table, like every table, holds no zero values.
    """
    if new_depth < f.depth:
        raise ValidationError(f"cannot deepen from {f.depth} to shallower {new_depth}")
    if new_depth == f.depth:
        return f
    space = f.space
    alphabet = space.alphabet
    growth = (len(alphabet) - 1) ** (new_depth - f.depth)
    if len(f.values) * growth > cap:
        raise CapExceededError(
            f"deepening to {new_depth} would track {len(f.values) * growth} words, cap {cap}")
    # indices past int64 stay exact as Python ints
    level = table_level(f, np.int64 if sphere_size(alphabet, new_depth) < 2 ** 63 else object)
    letters = {word_index(w): w.letters for w in f.values}
    for _ in range(new_depth - f.depth):
        level = _kernels.level_step(space.system.maps, alphabet.inv, level)
        for c, (rows, keys) in level.items():
            live = np.any(rows != 0, axis=1)
            if not live.all():
                level[c] = (rows[live], keys[live])
        # a child's index divided by |A|-1 is its parent's
        letters = {k: letters[k // (len(alphabet) - 1)] + (c,)
                   for c, (_, keys) in level.items() for k in keys.tolist()}
    return MultVector._of(space, new_depth, {
        Word._of(alphabet, letters[k]): row
        for rows, keys in level.values() for k, row in zip(keys.tolist(), rows)})


def table_level(f: MultVector, dtype=np.int64) -> _kernels.Level:
    """The table of ``f`` as a ``_kernels.level_step`` level keyed by word index."""
    grouped: Dict[int, Tuple[list, list]] = {}
    for w, v in f.values.items():
        rows, keys = grouped.setdefault(w.last(), ([], []))
        rows.append(v)
        keys.append(word_index(w))
    return {p: (np.array(rows), np.array(keys, dtype=dtype))
            for p, (rows, keys) in grouped.items()}


def _common_depth(f: MultVector, g: MultVector, cap: int = DEFAULT_CAP) -> Tuple[MultVector, MultVector]:
    d = max(f.depth, g.depth)
    return tuple(h if h.depth == d else deepen(h, d, cap=cap) for h in (f, g))


def inner(f: MultVector, g: MultVector, cap: int = DEFAULT_CAP) -> complex:
    """Inner product: the sphere sum of form pairings at the common depth.

    Compatibility telescopes the sum, so any admissible depth gives the same
    value; this is the accelerated backend, checked in tests against the
    literal sum at deeper truncations.
    """
    if f.space != g.space:
        raise ValidationError("vectors live on different systems")
    fd, gd = _common_depth(f, g, cap=cap)
    forms = f.space.forms
    total = 0.0 + 0.0j
    for w, fv in fd.values.items():
        gv = gd.values.get(w)
        if gv is not None:
            total += np.vdot(gv, forms[w.last()] @ fv)
    return complex(total)


def norm(f: MultVector) -> float:
    return float(np.sqrt(max(inner(f, f).real, 0.0)))


def vadd(f: MultVector, g: MultVector, cap: int = DEFAULT_CAP) -> MultVector:
    if f.space != g.space:
        raise ValidationError("vectors live on different systems")
    fd, gd = _common_depth(f, g, cap=cap)
    vals = dict(fd.values)
    for w, v in gd.values.items():
        s = vals.get(w)
        if s is None:
            vals[w] = v
        else:
            # a sum that cancels drops out; the other values are nonzero
            s = s + v
            if np.count_nonzero(s):
                vals[w] = s
            else:
                del vals[w]
    return MultVector._of(f.space, fd.depth, vals)


def vscale(c: complex, f: MultVector) -> MultVector:
    vals = {w: c * v for w, v in f.values.items()}
    if c != 1 and c != -1:
        # only a factor of +-1 is exact; any other can round a value to zero
        vals = {w: v for w, v in vals.items() if np.count_nonzero(v)}
    return MultVector._of(f.space, f.depth, vals)


def vsub(f: MultVector, g: MultVector) -> MultVector:
    return vadd(f, vscale(-1.0, g))


def zero_vector(space: RepSpace, depth: int = 1) -> MultVector:
    return MultVector(space, depth, {})


def distance(f: MultVector, g: MultVector) -> float:
    return norm(vsub(f, g))


def act(x: Word, f: MultVector, cap: int = DEFAULT_CAP) -> MultVector:
    """The unitary action: (act(x, f))(y) = f(x^-1 y), presented at depth
    f.depth + |x|.  One point evaluator serves every y, so the words x^-1 y
    share the steps of their common prefixes."""
    if x.is_identity():
        return f
    space = f.space
    new_depth = f.depth + len(x)
    xinv = x.inverse()
    value_at = point_values(f)
    values: Dict[Word, np.ndarray] = {}
    budget = 0
    n = len(space.alphabet)
    for z in f.values:
        for part in cylinder_image(x, Cylinder(z)):
            budget += (n - 1) ** (new_depth - len(part.stem))
            if budget > cap:
                raise CapExceededError(f"action support would exceed cap {cap}")
            for fine in refine(part, new_depth, cap=cap):
                y = fine.stem
                v = value_at(multiply(xinv, y).letters)
                if v is not None and np.count_nonzero(v):
                    values[y] = v
    return MultVector._of(space, new_depth, values)


def _brute_coefficient(x: Word, f: MultVector, g: MultVector, cap: int) -> complex:
    m_depth = max(f.depth, g.depth) + len(x) + 1
    if sphere_size(f.space.alphabet, m_depth) > cap:
        raise CapExceededError(
            f"brute sum over sphere {m_depth} exceeds cap {cap} for word {x}")
    return _kernels.brute_pairing(f.space, x, f, g, m_depth)


def cone_walk(x: Word, f_depth: int, g_depth: int) -> Iterator[List[Tuple[tuple, tuple]]]:
    """The root pairs (x^-1 y, y) of each geodesic cone of ``x``, as letter tuples.

    Every reduced y of length > |x| leaves the geodesic of ``x`` after a
    common prefix x[:i] with one letter c, so y lies in the cone of
    x[:i] c and x^-1 y in the cone of x^-1[:|x|-i] c.  Per cone, for i = 0,
    1, ..., |x|, this yields the pairs at the shallowest common extension of
    those two roots where both vectors have values (depths ``f_depth`` and
    ``g_depth``); all pairs of one cone share their length and, within a
    pair, their last letter.
    """
    alphabet = x.alphabet
    n = len(alphabet)
    inv = alphabet.inv
    xl = x.letters
    lx = len(xl)
    xinv = x.inverse().letters
    for i in range(lx + 1):
        for c in range(n):
            if (i < lx and c == xl[i]) or (i > 0 and c == inv[xl[i - 1]]):
                continue
            tails = [(c,)]
            for _ in range(max(0, f_depth - (lx - i + 1), g_depth - (i + 1))):
                tails = [t + (d,) for t in tails for d in range(n) if d != inv[t[-1]]]
            yield [(xinv[: lx - i] + t, xl[:i] + t) for t in tails]


def _prefix_step(g: MultVector, cone: Callable, s: Optional[np.ndarray],
                 p: Tuple[int, ...]) -> np.ndarray:
    """The row s_k of :func:`coefficients` at a nonempty prefix p = x[:k+1]
    from s_{k-1} at x[:k] (None at the identity): r_k is
    ``cone(g, x[:k], x_{k+1}^-1)`` up to g's depth, then conj(g(x[:k])) K."""
    H, K = g.space.cone_tables
    inv = g.space.alphabet.inv
    if len(p) <= g.depth:
        r = cone(g, p[:-1], inv[p[-1]])
    else:
        v = point_values(g)(p[:-1])
        r = 0 if v is None else v.conj() @ K[p[-2]][p[-1]]
    return r if s is None else s @ H[inv[p[-2]]][inv[p[-1]]] + r


def coefficients(words: Iterable[Tuple[int, ...]], f: MultVector,
                 g: MultVector) -> Dict[Tuple[int, ...], complex]:
    """Matrix coefficients <act(x, f), g> at the reduced words x of a set,
    given as letter tuples, by one :func:`_prefix_step` per node of the trie
    of their nonempty prefixes.

    With f of depth M, g of depth N and x = x_1 ... x_n, the cone of
    :func:`cone_walk` at i pairs g at x[:i] c with f at x^-1[:n-i] c.  For
    N <= i <= n - M it is conj(g(x[:i])) K(x_i, x_{i+1}) f(x^-1[:n-i]) (K of
    :attr:`RepSpace.cone_tables`), and f(x^-1[:n-i]) is the map of
    x_{i+1}^-1 applied to f(x^-1[:n-i-1]).  So the row
    s_k = s_{k-1} H[x_k^-1][x_{k+1}^-1] + r_k, carried from each prefix to
    its children, sums the cones up to k, and s_{n-M} meets f at x^-1[:M].
    The first N rows r_k pull g's table back; each of the last M cones
    meets g(x[:i]) with f's table pulled back or, below both depths, pairs
    the two over common extensions; the identity's one cone is the whole
    sphere.  A value's chain of products is fixed by its word, so it does
    not depend on the set it is asked with.
    """
    if f.space != g.space:
        raise ValidationError("vectors live on different systems")
    inv, forms, H = f.space.alphabet.inv, f.space.forms, f.space.cone_tables[0]
    every, M, N = range(len(inv)), f.depth, g.depth
    f_at, g_at = point_values(f), point_values(g)

    @functools.cache
    def row(h, u):
        """conj(h) B at a nonempty word u, pulled back to u from h's depth."""
        if len(u) < h.depth:
            return cone(h, u, u[-1])
        v = point_values(h)(u)
        return np.zeros(h.space.dim(u[-1]), dtype=np.complex128) if v is None else v.conj() @ forms[u[-1]]

    @functools.cache
    def cone(h, w, e):
        """The rows of h at w c times H[c][e], over the letters c after w and e."""
        return sum(row(h, w + (c,)) @ H[c][e] for c in every if inv[c] not in w[-1:] + (e,))

    def below(u, v):
        """A root pair below both depths: g's row against f, over the common
        extensions to f's depth."""
        if len(v) < M:
            return sum(below(u + (d,), v + (d,)) for d in every if d != inv[u[-1]])
        w = f_at(v)
        return 0j if w is None else row(g, u) @ w

    state: Dict[Tuple[int, ...], Optional[np.ndarray]] = {(): None}
    out: Dict[Tuple[int, ...], complex] = {}
    for x in words:
        lx = k = len(x)
        while x[:k] not in state:
            k -= 1
        for j in range(k + 1, lx + 1):
            state[x[:j]] = _prefix_step(g, cone, state[x[:j - 1]], x[:j])
        xinv = tuple(inv[c] for c in reversed(x))
        w = f_at(xinv[:M]) if lx >= M else None
        total = 0j if w is None else state[x[:lx - M + 1]] @ w
        for i in range(max(lx - M + 1, 0), lx + 1):
            u, v = x[:i], xinv[:lx - i]
            if i < N:
                total += sum(below(u + (c,), v + (c,)) for c in every if inv[c] not in u[-1:] + v[-1:])
            elif (gv := g_at(u)) is not None:
                total += np.conj(cone(f, v, u[-1]) @ gv)
        out[x] = complex(total)
    return out


def coefficient(x: Word, f: MultVector, g: MultVector, backend: str = "fast",
                cap: int = DEFAULT_CAP) -> complex:
    """Matrix coefficient <act(x, f), g>.

    ``fast`` is :func:`coefficients` on the prefixes of x: one step of a few
    small matvecs per prefix, so the cost grows as O(|x|) matvecs; over a
    word set each new prefix costs one step, shared by every word through
    it.  ``brute`` steps the root values of the cones of :func:`cone_walk`
    outward with ``_kernels.level_step``, in bounded chunks, to three levels
    short of the truncation sphere and pairs every sphere word there through
    the kernel of its last one to three steps; each word still adds its own
    term, so it stays the independent oracle, and its cost grows as
    (|A|-1)^|x| but not its memory.
    """
    if f.space != g.space:
        raise ValidationError("vectors live on different systems")
    if backend == "fast":
        return coefficients([x.letters], f, g)[x.letters]
    if backend == "brute":
        return _brute_coefficient(x, f, g, cap)
    raise ValidationError(f"unknown backend {backend!r}")


def cylinder_op(z: Union[Word, Cylinder], f: MultVector) -> MultVector:
    """Boundary multiplication operator of the cylinder indicator at ``z``:
    keep the values inside the cone, zero the rest.  The cone of a stem at
    least as long as the depth holds one word, the stem, so the result is the
    value there, read by :func:`point_values` and presented at depth |stem|."""
    stem = z.stem if isinstance(z, Cylinder) else z
    if stem.is_identity():
        raise ValidationError("cylinder stem must be nonempty")
    if len(stem) < f.depth:
        return MultVector._of(f.space, f.depth,
                              {w: v for w, v in f.values.items() if w.starts_with(stem)})
    v = point_values(f)(stem.letters)
    kept = {stem: v} if v is not None and np.count_nonzero(v) else {}
    return MultVector._of(f.space, len(stem), kept)


def covariance_check(x: Word, z: Word, f: MultVector) -> float:
    """Norm of the defect of the boundary covariance identity on ``f``:
    conjugating the cylinder operator by the action of ``x`` must equal the
    operator of the translated cylinder set."""
    lhs = act(x, cylinder_op(z, act(x.inverse(), f)))
    rhs = zero_vector(f.space, f.depth)
    for part in cylinder_image(x, Cylinder(z)):
        rhs = vadd(rhs, cylinder_op(part.stem, f))
    return distance(lhs, rhs)
