"""Multiplicative vectors and their unitary action, inner products and matrix
coefficients, and boundary cylinder operators, each cylinder given by its
stem ``Word``.

A vector is a finite germ: values on one word sphere, propagated outward by
the system maps, held as one ``_kernels.Level`` keyed by word index, int64
or, past 2^63 words, Python ints.  :func:`deepen` and :func:`act` step
levels through ``_kernels.level_step``, :func:`inner` and :func:`vadd` match
keys letter by letter; :func:`point_values` is each vector's one memoized
evaluator, which steps single words one matvec per letter from the longest
prefix any reader has stepped through.  Every single-word read goes through
it; :func:`evaluate` alone walks afresh.  That matvec is the one product of
propagation, which ``level_step`` stacks over a level's rows, so a value's
bits depend only on its word, never on which reader propagated it.

The geodesic cones of ``words.cone_walk`` partition the sphere by where a
word leaves the geodesic of the acting word.  :func:`act` steps the cones'
root values out as levels, and matrix coefficients come in two backends
over the same cones.  ``fast``, :func:`coefficients`, regroups the
cone sum into one row carried along the prefixes of a word set, a few small
matvecs per prefix shared by every word through it: the matrix-product form
of the coefficients of multiplicative representations.  ``brute``, the
literal sphere-sum oracle (exponential, see ``_kernels``), steps the cones'
root values outward with the same level step as ``deepen`` to three levels
short of the truncation sphere, where one moment per letter of those values
meets the kernels of the paths of the last three steps, one term per word.
"""

from __future__ import annotations

import functools
from typing import Callable, Dict, Iterable, Optional, Tuple

import numpy as np

from . import _kernels
from .errors import CapExceededError, DepthError, ValidationError
from .system import FormTuple, MatrixSystem, compatibility_residual
from .words import (DEFAULT_CAP, Alphabet, Word, cone_walk, cylinder_image, index_word,
                    prefix_indices, sphere_size, word_index)


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
        letters = range(len(self.alphabet))
        return (self.system.alphabet == other.system.alphabet
                and self.system.dims == other.system.dims
                and all(np.array_equal(self.system.map(b, a), other.system.map(b, a))
                        for b in letters for a in letters)
                and all(np.array_equal(x, y) for x, y in zip(self.forms.forms, other.forms.forms)))

    def __hash__(self):
        return hash((self.system.alphabet, self.system.dims))


class MultVector:
    """Finite presentation of a multiplicative function: a depth M >= 1 and
    its values on the radius-M sphere as one ``_kernels.Level``: per last
    letter, the nonzero rows and their word-index keys, of :func:`key_dtype`
    (absent words mean zero).  The constructor validates a dict from words
    to values; :attr:`values` decodes the level back to one.

    Values at longer words follow by map propagation; two presentations of
    different depths describe the same function when one deepens to the
    other.
    """

    __slots__ = ("space", "depth", "level", "_at")

    def __init__(self, space: RepSpace, depth: int, values: Dict[Word, np.ndarray]):
        if depth < 1:
            raise ValidationError(f"depth must be >= 1, got {depth}")
        items = []
        for w, v in values.items():
            if len(w) != depth:
                raise ValidationError(f"value word {w} has length {len(w)}, expected {depth}")
            v = np.asarray(v, dtype=np.complex128)
            want = space.dim(w.last())
            if v.shape != (want,):
                raise ValidationError(f"value at {w} has shape {v.shape}, expected ({want},)")
            items.append((w.last(), word_index(w), v))
        self.space, self.depth, self._at = space, depth, None
        self.level = _grouped(space.alphabet, depth, items)

    @classmethod
    def _of(cls, space: RepSpace, depth: int, level: _kernels.Level) -> "MultVector":
        """Trusted constructor for a level the program built itself: keys of
        the :func:`key_dtype` of ``depth``, no zero row and no empty letter."""
        out = cls.__new__(cls)
        out.space, out.depth, out.level, out._at = space, depth, level, None
        return out

    @property
    def values(self) -> Dict[Word, np.ndarray]:
        """The table as a dict from words to values in sphere order, decoded
        from the level on each read."""
        pairs = sorted(((k, row) for rows, keys in self.level.values()
                        for k, row in zip(keys.tolist(), rows)), key=lambda kr: kr[0])
        return {index_word(self.space.alphabet, self.depth, k): row for k, row in pairs}

    def is_zero(self) -> bool:
        return not self.level

    def __repr__(self) -> str:
        return f"MultVector(depth={self.depth}, support={sum(len(k) for _, k in self.level.values())})"


def key_dtype(alphabet: Alphabet, depth: int):
    """The dtype of a level's keys at ``depth``: past int64, exact Python ints."""
    return np.int64 if sphere_size(alphabet, depth) < 2 ** 63 else object


def live_rows(level: _kernels.Level) -> _kernels.Level:
    """The level without its zero rows, and without the letters they empty."""
    out = {}
    for p, (rows, keys) in level.items():
        live = rows.any(axis=1)
        if live.any():
            out[p] = (rows, keys) if live.all() else (rows[live], keys[live])
    return out


def _grouped(alphabet: Alphabet, depth: int, items) -> _kernels.Level:
    """The level of (last letter, word index, value) triples of words of
    length ``depth``: rows grouped by last letter in the order given, zero
    rows dropped."""
    grouped: Dict[int, Tuple[list, list]] = {}
    for p, k, v in items:
        rows, keys = grouped.setdefault(p, ([], []))
        rows.append(v)
        keys.append(k)
    return live_rows({p: (np.array(rows, dtype=np.complex128),
                          np.array(keys, dtype=key_dtype(alphabet, depth)))
                      for p, (rows, keys) in grouped.items()})


def table_row(f: MultVector, letters: Tuple[int, ...]) -> Optional[np.ndarray]:
    """The table value of ``f`` at a word of its depth, given by its letters,
    or None off the table."""
    part = f.level.get(letters[-1])
    if part is None:
        return None
    hit = np.flatnonzero(part[1] == prefix_indices(f.space.alphabet, letters)[-1])
    return part[0][hit[0]] if hit.size else None


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
    depth = f.depth
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
            v = memo[head] = table_row(f, head)
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


def deepen(f: MultVector, new_depth: int) -> MultVector:
    """Re-present the same function on a deeper sphere (:func:`_step_out`)."""
    if new_depth < f.depth:
        raise ValidationError(f"cannot deepen from {f.depth} to shallower {new_depth}")
    if new_depth == f.depth:
        return f
    words = sum(len(keys) for _, keys in f.level.values())
    growth = (len(f.space.alphabet) - 1) ** (new_depth - f.depth)
    if words * growth > DEFAULT_CAP:
        raise CapExceededError(
            f"deepening to {new_depth} would track {words * growth} words, cap {DEFAULT_CAP}")
    return MultVector._of(f.space, new_depth, _step_out(f.space, f.level, f.depth, new_depth))


def _step_out(space: RepSpace, level: _kernels.Level, depth: int, new_depth: int) -> _kernels.Level:
    """A level at ``depth`` stepped out to ``new_depth`` one sphere at a
    time by :func:`_kernels.level_step`, its keys cast to the deeper
    :func:`key_dtype` first; rows that become zero are dropped at each step,
    so the new level, like every level, holds no zero rows."""
    if key_dtype(space.alphabet, new_depth) is object:
        level = {p: (rows, keys.astype(object)) for p, (rows, keys) in level.items()}
    for _ in range(new_depth - depth):
        level = live_rows(_kernels.level_step(space.system.maps, space.alphabet.inv, level))
    return level


def _common_depth(f: MultVector, g: MultVector) -> Tuple[MultVector, MultVector]:
    d = max(f.depth, g.depth)
    return tuple(h if h.depth == d else deepen(h, d) for h in (f, g))


def inner(f: MultVector, g: MultVector) -> complex:
    """Inner product: the sphere sum of form pairings at the common depth.

    Compatibility telescopes the sum, so any admissible depth gives the same
    value; this is the accelerated backend, checked in tests against the
    literal sum at deeper truncations.
    """
    if f.space != g.space:
        raise ValidationError("vectors live on different systems")
    fd, gd = _common_depth(f, g)
    forms = f.space.forms
    total = 0.0 + 0.0j
    for p, (frows, fkeys) in fd.level.items():
        if p in gd.level:
            grows, gkeys = gd.level[p]
            # a table with itself pairs every row, in intersect1d's sorted order
            at_f, at_g = ((np.argsort(fkeys),) * 2 if fkeys is gkeys else
                          np.intersect1d(fkeys, gkeys, assume_unique=True, return_indices=True)[1:])
            total += np.vdot(grows[at_g], frows[at_f] @ forms[p].T)
    return complex(total)


def norm(f: MultVector) -> float:
    return float(np.sqrt(max(inner(f, f).real, 0.0)))


def vadd(f: MultVector, g: MultVector) -> MultVector:
    if f.space != g.space:
        raise ValidationError("vectors live on different systems")
    fd, gd = _common_depth(f, g)
    level = dict(fd.level)
    for p, (grows, gkeys) in gd.level.items():
        if p in level:
            frows, fkeys = level[p]
            keys = np.union1d(fkeys, gkeys)
            rows = np.zeros((len(keys), grows.shape[1]), dtype=np.complex128)
            rows[np.searchsorted(keys, fkeys)] = frows
            rows[np.searchsorted(keys, gkeys)] += grows
            level[p] = (rows, keys)
        else:
            level[p] = (grows, gkeys)
    # a sum that cancels drops out
    return MultVector._of(f.space, fd.depth, live_rows(level))


def vscale(c: complex, f: MultVector) -> MultVector:
    level = {p: (c * rows, keys) for p, (rows, keys) in f.level.items()}
    # only a factor of +-1 is exact; any other can round a value to zero
    return MultVector._of(f.space, f.depth, level if c in (1, -1) else live_rows(level))


def vsub(f: MultVector, g: MultVector) -> MultVector:
    return vadd(f, vscale(-1.0, g))


def zero_vector(space: RepSpace, depth: int = 1) -> MultVector:
    return MultVector(space, depth, {})


def distance(f: MultVector, g: MultVector) -> float:
    return norm(vsub(f, g))


def act(x: Word, f: MultVector) -> MultVector:
    """The unitary action: (act(x, f))(y) = f(x^-1 y), presented at depth
    f.depth + |x|.  A geodesic cone of :func:`cone_walk` with roots (u, y0)
    maps u t to y0 t, so each root value f(u) is read once through the
    point evaluator; the roots of each length, as one level, are stepped out
    by :func:`_step_out`, and as the cones are disjoint the parts of each
    last letter are concatenated."""
    if x.is_identity():
        return f
    space, alphabet, n = f.space, f.space.alphabet, len(f.space.alphabet)
    new_depth = f.depth + len(x)
    value_at = point_values(f)
    roots: Dict[int, list] = {}
    for cone in cone_walk(x, f.depth, 1):
        for u, y0 in cone:
            if (v := value_at(u)) is not None:
                roots.setdefault(len(y0), []).append((y0[-1], prefix_indices(alphabet, y0)[-1], v))
    # the whole support is held against the cap before any cone is stepped,
    # so an image over the cap builds none of its words
    if sum(len(r) * (n - 1) ** (new_depth - k) for k, r in roots.items()) > DEFAULT_CAP:
        raise CapExceededError(f"action support would exceed cap {DEFAULT_CAP}")
    parts: Dict[int, list] = {}
    for k, r in roots.items():
        for p, part in _step_out(space, _grouped(alphabet, k, r), k, new_depth).items():
            parts.setdefault(p, []).append(part)
    return MultVector._of(space, new_depth, {p: tuple(map(np.concatenate, zip(*ps)))
                                             for p, ps in parts.items()})


def _brute_coefficient(x: Word, f: MultVector, g: MultVector, cap: int) -> complex:
    m_depth = max(f.depth, g.depth) + len(x) + 1
    if sphere_size(f.space.alphabet, m_depth) > cap:
        raise CapExceededError(
            f"brute sum over sphere {m_depth} exceeds cap {cap} for word {x}")
    return _kernels.brute_pairing(f.space, x, f, g, m_depth)


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
    short of the truncation sphere, sums each letter's rows there into one
    moment F^T conj(G), as a sphere word's term is bilinear in its prefix's
    values, and pairs it with the kernel of every path of the last one to
    three steps; each word still adds its own term, so it stays the
    independent oracle, and its cost grows as (|A|-1)^|x| but not its memory.
    """
    if f.space != g.space:
        raise ValidationError("vectors live on different systems")
    if backend == "fast":
        return coefficients([x.letters], f, g)[x.letters]
    if backend == "brute":
        return _brute_coefficient(x, f, g, cap)
    raise ValidationError(f"unknown backend {backend!r}")


def cylinder_op(stem: Word, f: MultVector) -> MultVector:
    """Boundary multiplication operator of the cylinder indicator at ``stem``:
    keep the values inside the cone, zero the rest.  The cone of a stem at
    least as long as the depth holds one word, the stem, so the result is the
    value there, read by :func:`point_values` and presented at depth |stem|.
    Under a shorter stem of index i lie the keys [i w, (i+1) w), w the count
    of words under it, as word_index is prefix-major."""
    if stem.is_identity():
        raise ValidationError("cylinder stem must be nonempty")
    alphabet = f.space.alphabet
    if len(stem) < f.depth:
        width = (len(alphabet) - 1) ** (f.depth - len(stem))
        low = word_index(stem) * width
        level = {}
        for p, (rows, keys) in f.level.items():
            kept = (keys >= low) & (keys < low + width)
            if kept.any():
                level[p] = (rows[kept], keys[kept])
        return MultVector._of(f.space, f.depth, level)
    v = point_values(f)(stem.letters)
    kept = [] if v is None else [(stem.last(), word_index(stem), v)]
    return MultVector._of(f.space, len(stem), _grouped(alphabet, len(stem), kept))


def covariance_check(x: Word, z: Word, f: MultVector) -> float:
    """Norm of the defect of the boundary covariance identity on ``f``:
    conjugating the cylinder operator by the action of ``x`` must equal the
    operator of the translated cylinder set."""
    lhs = act(x, cylinder_op(z, act(x.inverse(), f)))
    rhs = zero_vector(f.space, f.depth)
    for stem in cylinder_image(x, z):
        rhs = vadd(rhs, cylinder_op(stem, f))
    return distance(lhs, rhs)
