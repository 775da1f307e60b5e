"""Reduced words over a symmetric alphabet: free multiplication, spheres,
the geodesic cones around a word and the action of a word on boundary
cylinders, each given by its stem ``Word``.

Letters are small integers indexing into an :class:`Alphabet`; the inverse of
a letter is a table lookup, so no string handling happens in inner loops.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

from .errors import CapExceededError, ValidationError

#: default ceiling on the number of words any enumeration may materialize
DEFAULT_CAP = 10_000_000

#: the largest rank of a standard alphabet, one lower-case letter per generator
MAX_RANK = 26


class Alphabet:
    """Finite symmetric set of free generators with a fixed-point-free
    involution pairing each letter with its inverse.

    Letter names must be distinct single characters so that words serialize
    as plain concatenations.
    """

    __slots__ = ("names", "inv", "_index")

    def __init__(self, names: Sequence[str], involution_pairs: Sequence[Tuple[str, str]]):
        names = tuple(names)
        if len(names) < 4 or len(names) % 2 != 0:
            raise ValidationError(f"alphabet needs an even number >= 4 of letters, got {len(names)}")
        for nm in names:
            if not isinstance(nm, str) or len(nm) != 1:
                raise ValidationError(f"alphabet letter name {nm!r} must be a single character")
        if len(set(names)) != len(names):
            raise ValidationError("alphabet letter names must be distinct")
        self.names = names
        self._index = {nm: i for i, nm in enumerate(names)}
        inv = [-1] * len(names)
        for pair in involution_pairs:
            try:
                i, j = (self._index[nm] for nm in pair)
            except (KeyError, TypeError, ValueError):
                raise ValidationError(f"involution pair {pair!r} must name two letters") from None
            if i == j:
                raise ValidationError(f"letter {names[i]!r} cannot be its own inverse")
            inv[i], inv[j] = j, i
        if any(v < 0 for v in inv):
            missing = [names[i] for i, v in enumerate(inv) if v < 0]
            raise ValidationError(f"letters without an inverse pairing: {missing}")
        for i, j in enumerate(inv):
            if inv[j] != i:
                raise ValidationError("involution is not an involution")
        self.inv = tuple(inv)

    @classmethod
    def rank(cls, r: int) -> "Alphabet":
        """Standard alphabet of rank ``r``: a, A, b, B, ... with X = x^-1, so
        ``r`` runs from 2 to :data:`MAX_RANK`."""
        if not 2 <= r <= MAX_RANK:
            raise ValidationError(f"rank must be between 2 and {MAX_RANK}, got {r}")
        lowers = [chr(ord("a") + k) for k in range(r)]
        names: List[str] = []
        pairs = []
        for lo in lowers:
            names.extend([lo, lo.upper()])
            pairs.append((lo, lo.upper()))
        return cls(names, pairs)

    def __len__(self) -> int:
        return len(self.names)

    def letter(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise ValidationError(f"unknown letter {name!r}") from None

    def __eq__(self, other) -> bool:
        return isinstance(other, Alphabet) and self.names == other.names and self.inv == other.inv

    def __hash__(self) -> int:
        return hash((self.names, self.inv))

    def __repr__(self) -> str:
        return f"Alphabet({''.join(self.names)})"


class Word:
    """A reduced word; the empty word is the group identity."""

    __slots__ = ("alphabet", "letters")

    def __init__(self, alphabet: Alphabet, letters: Iterable[int] = ()):
        letters = tuple(letters)
        inv = alphabet.inv
        n = len(alphabet)
        for k, c in enumerate(letters):
            if not 0 <= c < n:
                raise ValidationError(f"letter index {c} out of range")
            if k > 0 and letters[k - 1] == inv[c]:
                raise ValidationError(f"word not reduced at position {k}")
        self.alphabet = alphabet
        self.letters = letters

    @classmethod
    def _of(cls, alphabet: Alphabet, letters: Tuple[int, ...]) -> "Word":
        """Trusted constructor for a reduced letter tuple the program built
        itself; skips the checks ``__init__`` makes on outside input."""
        w = cls.__new__(cls)
        w.alphabet = alphabet
        w.letters = letters
        return w

    @classmethod
    def identity(cls, alphabet: Alphabet) -> "Word":
        return cls(alphabet, ())

    @classmethod
    def parse(cls, alphabet: Alphabet, text: str) -> "Word":
        """Parse a concatenation of letter names; "e" or "" is the identity."""
        if text in ("", "e"):
            return cls(alphabet, ())
        return cls(alphabet, [alphabet.letter(ch) for ch in text])

    def inverse(self) -> "Word":
        inv = self.alphabet.inv
        return Word(self.alphabet, [inv[c] for c in reversed(self.letters)])

    def first(self) -> int:
        return self.letters[0]

    def last(self) -> int:
        return self.letters[-1]

    def is_identity(self) -> bool:
        return not self.letters

    def starts_with(self, prefix: "Word") -> bool:
        return self.letters[: len(prefix.letters)] == prefix.letters

    def __len__(self) -> int:
        return len(self.letters)

    def __getitem__(self, k):
        return self.letters[k]

    def __eq__(self, other) -> bool:
        return (isinstance(other, Word) and self.letters == other.letters
                and (self.alphabet is other.alphabet or self.alphabet == other.alphabet))

    def __hash__(self) -> int:
        return hash(self.letters)

    def __str__(self) -> str:
        return "".join(self.alphabet.names[c] for c in self.letters) or "e"

    def __repr__(self) -> str:
        return f"Word({self})"


def product_letters(inv: Sequence[int], xs: Tuple[int, ...],
                    ys: Tuple[int, ...]) -> Tuple[int, ...]:
    """Letters of the free product of two reduced letter tuples under the
    involution ``inv``: only the junction cancels, dropping a suffix of
    ``xs`` and the prefix of ``ys`` inverse to it."""
    n, m = len(xs), len(ys)
    k = 0
    while k < n and k < m and xs[n - 1 - k] == inv[ys[k]]:
        k += 1
    return xs[:n - k] + ys[k:]


def multiply(x: Word, y: Word) -> Word:
    """Product in the free group, by :func:`product_letters`."""
    if x.alphabet is not y.alphabet and x.alphabet != y.alphabet:
        raise ValidationError("words over different alphabets")
    return Word._of(x.alphabet, product_letters(x.alphabet.inv, x.letters, y.letters))


def concat(x: Word, c: int) -> Word:
    """Append one letter with cancellation."""
    inv = x.alphabet.inv
    if x.letters and x.letters[-1] == inv[c]:
        letters = x.letters[:-1]
    else:
        letters = x.letters + (c,)
    return Word._of(x.alphabet, letters)


def sphere_size(alphabet: Alphabet, r: int) -> int:
    """Number of reduced words of length exactly ``r``."""
    n = len(alphabet)
    if r < 0:
        raise ValidationError("radius must be nonnegative")
    if r == 0:
        return 1
    return n * (n - 1) ** (r - 1)


def sphere(alphabet: Alphabet, r: int, cap: Optional[int] = DEFAULT_CAP) -> Iterator[Word]:
    """Yield every reduced word of length ``r`` once, in dense-index order.

    The order matches :func:`word_index`: first letter ascending, then each
    subsequent letter ascending among the letters distinct from the inverse
    of its predecessor.  Streaming; nothing is materialized.
    """
    if cap is not None and sphere_size(alphabet, r) > cap:
        raise CapExceededError(f"sphere of radius {r} has {sphere_size(alphabet, r)} words, cap is {cap}")
    if r == 0:
        yield Word.identity(alphabet)
        return
    n = len(alphabet)
    inv = alphabet.inv
    stack = [c for c in range(n - 1, -1, -1)]
    path: List[int] = []
    while stack:
        c = stack.pop()
        if c < 0:
            path.pop()
            continue
        path.append(c)
        if len(path) == r:
            yield Word._of(alphabet, tuple(path))
            path.pop()
        else:
            stack.append(-1)
            forbidden = inv[c]
            stack.extend(d for d in range(n - 1, -1, -1) if d != forbidden)


def ball(alphabet: Alphabet, r: int, cap: Optional[int] = DEFAULT_CAP) -> Iterator[Word]:
    """All reduced words of length at most ``r``; a ball of more than ``cap``
    words is a :class:`CapExceededError` before any word is yielded."""
    if r < 0:
        raise ValidationError(f"radius must be nonnegative, got {r}")
    if cap is not None:
        size = 0
        for k in range(r + 1):
            size += sphere_size(alphabet, k)
            if size > cap:
                raise CapExceededError(f"ball of radius {r} exceeds the cap of {cap} words")
    for k in range(r + 1):
        yield from sphere(alphabet, k, cap=None)


def prefix_indices(alphabet: Alphabet, letters: Sequence[int]) -> List[int]:
    """The :func:`word_index` of each prefix of reduced letters, shortest first."""
    inv, n = alphabet.inv, len(alphabet)
    out = [0]
    for k, c in enumerate(letters):
        out.append(c if k == 0 else out[-1] * (n - 1) + (c if c < inv[letters[k - 1]] else c - 1))
    return out


def word_index(w: Word) -> int:
    """Dense index of ``w`` within its own sphere (see :func:`sphere`)."""
    return prefix_indices(w.alphabet, w.letters)[-1]


def index_word(alphabet: Alphabet, r: int, index: int) -> Word:
    """The word of length ``r`` >= 1 whose :func:`word_index` is ``index``."""
    inv, ranks = alphabet.inv, []
    for _ in range(r - 1):
        index, rank = divmod(index, len(alphabet) - 1)
        ranks.append(rank)
    letters = [index]
    for rank in reversed(ranks):
        letters.append(rank + (rank >= inv[letters[-1]]))
    return Word._of(alphabet, tuple(letters))


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


def cylinder_image(x: Word, z: Word) -> Tuple[Word, ...]:
    """The set x . C(z) of boundary points x w, w starting with the nonempty
    stem ``z``, as the stems of disjoint cylinders, one per geodesic cone of
    ``x`` that meets it.

    A cone of :func:`cone_walk` with roots (u, y0) maps u t to y0 t, so it
    meets the image when u and z agree on their common length, in the
    cylinder on y0 followed by what z has beyond u.  A stem longer than
    ``x`` meets one cone; full cancellation spreads it over several.
    """
    if z.is_identity():
        raise ValidationError("cylinder stem must be nonempty")
    zl = z.letters
    return tuple(Word._of(x.alphabet, y0 + zl[len(u):])
                 for [(u, y0)] in cone_walk(x, 1, 1) if u[:len(zl)] == zl[:len(u)])
