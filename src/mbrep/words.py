"""Reduced words over a symmetric alphabet: free multiplication, spheres,
boundary cylinders and the group action on them.

Letters are small integers indexing into an :class:`Alphabet`; the inverse of
a letter is a table lookup, so no string handling happens in inner loops.
"""

from __future__ import annotations

from dataclasses import dataclass
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

    def inverse(self, letter: int) -> int:
        return self.inv[letter]

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
        if not self.letters:
            return "e"
        return "".join(self.alphabet.names[c] for c in self.letters)

    def __repr__(self) -> str:
        return f"Word({self})"


def multiply(x: Word, y: Word) -> Word:
    """Product in the free group; both factors are reduced, so only the
    junction cancels, dropping a suffix of ``x`` and the prefix of ``y`` inverse to it."""
    if x.alphabet is not y.alphabet and x.alphabet != y.alphabet:
        raise ValidationError("words over different alphabets")
    xs, ys = x.letters, y.letters
    inv = x.alphabet.inv
    n, m = len(xs), len(ys)
    k = 0
    while k < n and k < m and xs[n - 1 - k] == inv[ys[k]]:
        k += 1
    return Word._of(x.alphabet, xs[:n - k] + ys[k:])


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
    """All reduced words of length at most ``r``."""
    if r < 0:
        raise ValidationError(f"radius must be nonnegative, got {r}")
    for k in range(r + 1):
        yield from sphere(alphabet, k, cap=cap)


def word_index(w: Word) -> int:
    """Dense index of ``w`` within its own sphere (see :func:`sphere`)."""
    if not w.letters:
        return 0
    inv = w.alphabet.inv
    n = len(w.alphabet)
    idx = w.letters[0]
    for k in range(1, len(w.letters)):
        c, p = w.letters[k], w.letters[k - 1]
        pos = c if c < inv[p] else c - 1
        idx = idx * (n - 1) + pos
    return idx


@dataclass(frozen=True)
class Cylinder:
    """Boundary cylinder: all infinite reduced words starting with ``stem``."""

    stem: Word

    def __post_init__(self):
        if self.stem.is_identity():
            raise ValidationError("cylinder stem must be nonempty")

    def __str__(self) -> str:
        return f"C({self.stem})"


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

    def __repr__(self) -> str:
        return "CylinderUnion(" + ", ".join(str(c) for c in self.parts) + ")"


def refine(c: Cylinder, depth: int, cap: Optional[int] = DEFAULT_CAP) -> CylinderUnion:
    """Partition a cylinder into all cylinders of stem length ``depth``."""
    stem = c.stem
    if depth < len(stem):
        raise ValidationError(f"refinement depth {depth} below stem length {len(stem)}")
    alphabet = stem.alphabet
    n = len(alphabet)
    count = (n - 1) ** (depth - len(stem))
    if cap is not None and count > cap:
        raise CapExceededError(f"refinement would produce {count} cylinders, cap is {cap}")
    inv = alphabet.inv
    out = [stem.letters]
    for _ in range(depth - len(stem)):
        nxt = []
        for s in out:
            forbidden = inv[s[-1]]
            nxt.extend(s + (d,) for d in range(n) if d != forbidden)
        out = nxt
    return CylinderUnion(Cylinder(Word._of(alphabet, s)) for s in out)


def _image_one(x: Word, stem: Word, acc: List[Cylinder]) -> None:
    z = multiply(x, stem)
    if not z.is_identity() and z.last() == stem.last():
        acc.append(Cylinder(z))
        return
    # cancellation consumed the stem's final letter: split one level deeper
    # and recurse; the cancelling suffix strictly shortens each time
    alphabet = stem.alphabet
    forbidden = alphabet.inv[stem.last()]
    for d in range(len(alphabet)):
        if d != forbidden:
            _image_one(x, concat(stem, d), acc)


def cylinder_image(x: Word, c: Cylinder) -> CylinderUnion:
    """The set x . C as a disjoint union of cylinders.

    When the stem is longer than ``x`` the image is the single cylinder on
    ``multiply(x, stem)``; with full cancellation the image is assembled from
    sibling cylinders one level down.
    """
    acc: List[Cylinder] = []
    _image_one(x, c.stem, acc)
    return CylinderUnion(acc)
