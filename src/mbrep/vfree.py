"""Virtually free groups presented as free products of finite cyclic groups,
with a verified transversal/free-basis/factorization-table datum, routing of
group words through the table, and induced matrix coefficients.

Normal forms are alternating syllables (factor, exponent); the factorization
table realizes t . s = basis_word . t' for every transversal element t and
standard generator s, which lets any product be routed left to right while
accumulating a free-subgroup word.  Routing is a cocycle, route(t, lam mu) =
route(t, lam) route(t', mu), so :func:`vf_gram` routes each element only once.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

from .errors import CapExceededError, ValidationError
from .multrep import MultVector, coefficients
from .words import DEFAULT_CAP, Alphabet, Word, multiply, product_letters

Element = Tuple[Tuple[int, int], ...]  # alternating (factor, exponent) syllables


class FreeProduct:
    """Free product of finite cyclic groups with normal-form arithmetic."""

    def __init__(self, orders: Sequence[int], names: Sequence[str]):
        if len(orders) != len(names):
            raise ValidationError("one generator name per factor required")
        if len(orders) < 2:
            raise ValidationError("need at least two factors")
        for m in orders:
            if m < 2:
                raise ValidationError(f"factor order {m} must be >= 2")
        for nm in names:
            if not isinstance(nm, str) or len(nm) != 1:
                raise ValidationError(f"generator name {nm!r} must be a single character")
        if len(set(names)) != len(names):
            raise ValidationError("generator names must be distinct")
        self.orders = tuple(int(m) for m in orders)
        self.names = tuple(names)
        self._index = {nm: i for i, nm in enumerate(names)}

    identity: Element = ()

    def generator(self, i: int, power: int = 1) -> Element:
        power %= self.orders[i]
        return ((i, power),) if power else ()

    def multiply(self, x: Element, y: Element) -> Element:
        out = list(x)
        for syl in y:
            if out and out[-1][0] == syl[0]:
                f = syl[0]
                e = (out[-1][1] + syl[1]) % self.orders[f]
                out.pop()
                if e:
                    out.append((f, e))
            else:
                out.append(syl)
        return tuple(out)

    def inverse(self, x: Element) -> Element:
        return tuple((f, self.orders[f] - e) for f, e in reversed(x))

    def parse(self, text: str) -> Element:
        if text in ("", "e"):
            return ()
        out: Element = ()
        for ch in text:
            if ch not in self._index:
                raise ValidationError(f"unknown generator {ch!r}")
            out = self.multiply(out, self.generator(self._index[ch]))
        return out

    def format(self, x: Element) -> str:
        return "".join(self.names[f] * e for f, e in x) or "e"

    def generator_letters(self, x: Element) -> List[int]:
        """Expand a normal form into single standard-generator steps."""
        return [f for f, e in x for _ in range(e)]

    def abelianization(self, x: Element) -> Tuple[int, ...]:
        img = [0] * len(self.orders)
        for f, e in x:
            img[f] = (img[f] + e) % self.orders[f]
        return tuple(img)

    def ball(self, radius: int, cap: int = DEFAULT_CAP) -> List[Element]:
        """All normal forms of syllable length <= radius, the identity
        first; more than ``cap`` of them is a :class:`CapExceededError`."""
        if radius < 0:
            raise ValidationError(f"radius must be nonnegative, got {radius}")
        out = [()]
        frontier: List[Element] = [()]
        for _ in range(radius):
            nxt = []
            for x in frontier:
                last = x[-1][0] if x else -1
                for f in range(len(self.orders)):
                    if f == last:
                        continue
                    for e in range(1, self.orders[f]):
                        nxt.append(x + ((f, e),))
                if len(out) + len(nxt) > cap:
                    raise CapExceededError(
                        f"ball of radius {radius} exceeds the cap of {cap} elements")
            out.extend(nxt)
            frontier = nxt
        return out

    def euler_characteristic(self) -> Fraction:
        return sum(Fraction(1, m) for m in self.orders) - (len(self.orders) - 1)


@dataclass
class VFGroupDatum:
    """A virtually free group with a finite-index free subgroup: transversal,
    free basis (as group elements, matched to a rank-r alphabet), and the
    factorization table sending (t, s) to (basis word, t')."""

    group: FreeProduct
    transversal: List[Element]
    basis_alphabet: Alphabet
    basis_elements: List[Element]  # one per basis letter, inverse-closed
    table: Dict[Tuple[int, int], Tuple[Word, int]]  # (t_idx, factor) -> (word, t'_idx)
    name: str = ""

    def expand_basis_word(self, w: Word) -> Element:
        out: Element = ()
        for j in w.letters:
            out = self.group.multiply(out, self.basis_elements[j])
        return out

    def free_rank(self) -> int:
        return len(self.basis_alphabet) // 2

    def expected_free_rank(self) -> int:
        chi = self.group.euler_characteristic() * len(self.transversal)
        rank = 1 - chi
        if rank.denominator != 1:
            raise ValidationError(
                f"index {len(self.transversal)} is incompatible with the factor orders")
        return int(rank)

    def route(self, t_idx: int, lam: Element) -> Tuple[Word, int]:
        """Accumulated basis word and final transversal index of t . lam:
        the letters of the table words along the route, cancelled in one
        pass."""
        inv = self.basis_alphabet.inv
        out: List[int] = []
        cur = t_idx
        for f in self.group.generator_letters(lam):
            step_word, cur = self.table[(cur, f)]
            for c in step_word.letters:
                if out and out[-1] == inv[c]:
                    out.pop()
                else:
                    out.append(c)
        return Word._of(self.basis_alphabet, tuple(out)), cur


def vf_validate(datum: VFGroupDatum) -> List[str]:
    """Exhaustive consistency diagnostics; an empty list means the datum is
    coherent.

    Besides the table's defining identity, every factor's relation
    f^order = e is routed through the table from every transversal index,
    one table step per letter: each route must come back to its start with
    the empty basis word, so the table respects the free product's
    relations.  The checks are deterministic and draw no random numbers.
    """
    problems: List[str] = []
    grp = datum.group
    n_t = len(datum.transversal)

    if datum.free_rank() < 2:
        problems.append(f"free subgroup rank {datum.free_rank()} is below the supported minimum 2")
    try:
        want = datum.expected_free_rank()
        if want != datum.free_rank():
            problems.append(
                f"free basis has rank {datum.free_rank()} but the index forces rank {want}")
    except ValidationError as err:
        problems.append(str(err))

    if not datum.transversal or datum.transversal[0] != ():
        problems.append("transversal must start with the identity")

    # basis letters must pair to inverse elements
    for j in range(0, len(datum.basis_alphabet), 2):
        x = datum.basis_elements[j]
        y = datum.basis_elements[datum.basis_alphabet.inv[j]]
        if grp.multiply(x, y) != ():
            problems.append(f"basis letters {j} and its partner are not inverse in the group")

    # table totality and the defining identity t . s = word . t'
    for t_idx in range(n_t):
        for f in range(len(grp.orders)):
            if (t_idx, f) not in datum.table:
                problems.append(f"table misses entry ({t_idx},{grp.names[f]})")
                continue
            word, t2 = datum.table[(t_idx, f)]
            try:
                lhs = grp.multiply(datum.transversal[t_idx], grp.generator(f))
                rhs = grp.multiply(datum.expand_basis_word(word), datum.transversal[t2])
            except (ValidationError, IndexError) as err:
                problems.append(f"table entry ({t_idx},{grp.names[f]}) is malformed: {err}")
                continue
            if lhs != rhs:
                problems.append(
                    f"table entry ({t_idx},{grp.names[f]}) violates t.s = word.t'")

    # the subgroup generated by the basis must meet the transversal only at e
    seen = {(): True}
    frontier: List[Element] = [()]
    for _ in range(4):
        nxt = []
        for x in frontier:
            for j in range(len(datum.basis_alphabet)):
                y = grp.multiply(x, datum.basis_elements[j])
                if y not in seen:
                    seen[y] = True
                    nxt.append(y)
        frontier = nxt
    for t in datum.transversal[1:]:
        if t in seen:
            problems.append(f"transversal element {grp.format(t)} lies in the free subgroup")

    # every relation f^order = e, routed from every transversal index
    for t_idx, t in enumerate(datum.transversal):
        for f, order in enumerate(grp.orders):
            relation = f"relation {grp.names[f]}^{order} from transversal element {grp.format(t)}"
            try:
                word, end = datum.route(t_idx, ((f, order),))
            except KeyError as err:
                problems.append(f"{relation} leaves the table at entry {err}")
                continue
            if end != t_idx or len(word):
                problems.append(f"{relation} ends at transversal index {end} "
                                f"with basis word {word}, not at itself with e")
    return problems


def induce_to_vf(datum: VFGroupDatum, coeff: Callable[[Word, MultVector, MultVector], complex],
                 lam: Element, blocks: Dict[int, MultVector]) -> complex:
    """Matrix coefficient of the representation induced from the free
    subgroup, evaluated by routing ``lam`` through the factorization table:
    the term at transversal element t pairs the block at the routed endpoint,
    moved by the accumulated basis word, with the block at t; an endpoint
    without a block adds 0."""
    total = 0.0 + 0.0j
    for t in range(len(datum.transversal)):
        if t in blocks:
            word, end_idx = datum.route(t, lam)
            if end_idx in blocks:
                total += coeff(word, blocks[end_idx], blocks[t])
    return complex(total)


def vf_gram(datum: VFGroupDatum, elements: Sequence[Element],
            blocks: Dict[int, MultVector]) -> np.ndarray:
    """Gram matrix [phi(lam_i^-1 lam_j)] of the induced coefficient phi.

    Routing is a Schreier cocycle: lam_i^-1 is routed once from each index t
    carrying a block, lam_j once from each transversal index, and the route
    of lam_i^-1 lam_j from t joins the two on letter tuples.  Each pair gets
    the index of its key, the (letters, end) of its routes over the carriers;
    the words of each (end, carrier) block pair go through one
    :func:`multrep.coefficients` call, and a key's terms add up in the order
    of :func:`induce_to_vf`.
    """
    grp = datum.group
    inv = datum.basis_alphabet.inv
    carriers = [t for t in range(len(datum.transversal)) if t in blocks]
    k = len(elements)
    if not carriers:
        return np.zeros((k, k), dtype=np.complex128)
    heads = [[datum.route(t, li) for t in carriers] for li in map(grp.inverse, elements)]
    tails = [[(word.letters, end_idx) for word, end_idx in (datum.route(s, lj) for lj in elements)]
             for s in range(len(datum.transversal))]
    keys: Dict[Tuple[Tuple[Tuple[int, ...], int], ...], int] = {}
    index = np.empty((k, k), dtype=np.int32 if k * k < 2 ** 31 else np.int64)
    for i in range(k):
        # entry j of carrier t's column is the route of lam_i^-1 lam_j from t
        columns = [[(product_letters(inv, word.letters, tail), end_idx) for tail, end_idx in tails[s]]
                   for word, s in heads[i]]
        index[i] = [keys.setdefault(key, len(keys)) for key in zip(*columns)]
    values = {(e, t): coefficients({key[c][0] for key in keys if key[c][1] == e}, blocks[e], blocks[t])
              for c, t in enumerate(carriers) for e in blocks}
    return np.array([sum((values[e, t][letters] for t, (letters, e) in zip(carriers, key)
                          if e in blocks), 0.0 + 0.0j) for key in keys], dtype=np.complex128)[index]


def _basis_word_search(grp: FreeProduct, basis: List[Element],
                       targets: List[Element], alphabet: Alphabet) -> Dict[Element, Word]:
    """Express each target as a reduced word of length at most 4 in the
    basis elements."""
    found: Dict[Element, Word] = {(): Word.identity(alphabet)}
    frontier: List[Tuple[Element, Word]] = [((), Word.identity(alphabet))]
    wanted = set(targets)
    for _ in range(4):
        nxt = []
        for x, w in frontier:
            for j in range(len(alphabet)):
                if len(w) and alphabet.inv[w.last()] == j:
                    continue
                y = grp.multiply(x, basis[j])
                nw = multiply(w, Word(alphabet, (j,)))
                if y not in found:
                    found[y] = nw
                    nxt.append((y, nw))
        frontier = nxt
        if wanted <= set(found):
            break
    missing = [t for t in targets if t not in found]
    if missing:
        raise ValidationError(f"could not express {len(missing)} elements in the basis")
    return found


def psl2z_datum() -> VFGroupDatum:
    """The order-2 * order-3 free product with its commutator subgroup: index
    six, free of rank two on the two basic commutators; the factorization
    table is constructed from the abelianization and verified exactly."""
    grp = FreeProduct([2, 3], ["s", "r"])
    s = grp.generator(0)
    r = grp.generator(1)
    r2 = grp.generator(1, 2)
    transversal = [(), s, r, r2, grp.multiply(s, r), grp.multiply(s, r2)]

    alphabet = Alphabet.rank(2)
    x = grp.multiply(grp.multiply(s, r), grp.multiply(s, r2))   # s r s r^2
    y = grp.multiply(grp.multiply(s, r2), grp.multiply(s, r))   # s r^2 s r
    basis = [x, grp.inverse(x), y, grp.inverse(y)]

    ab_of = {grp.abelianization(t): i for i, t in enumerate(transversal)}
    targets: List[Element] = []
    pending: List[Tuple[int, int, Element, int]] = []
    for t_idx, t in enumerate(transversal):
        for f in range(2):
            prod = grp.multiply(t, grp.generator(f))
            t2_idx = ab_of[grp.abelianization(prod)]
            gamma = grp.multiply(prod, grp.inverse(transversal[t2_idx]))
            pending.append((t_idx, f, gamma, t2_idx))
            targets.append(gamma)
    expressions = _basis_word_search(grp, basis, targets, alphabet)
    table = {(t_idx, f): (expressions[gamma], t2_idx)
             for t_idx, f, gamma, t2_idx in pending}
    return VFGroupDatum(grp, transversal, alphabet, basis, table, name="psl2z")
