"""Finite-index subgroups of free groups: coset tables from finite-quotient
homomorphisms, prefix-closed Schreier transversals, symmetrized Schreier
generator sets, and the per-letter block index sets used by induction.

Subgroups are specified as kernels (more generally, preimages of the trivial
subgroup) of homomorphisms onto finite groups; this keeps membership and
rewriting trivially correct.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .errors import MembershipError, ValidationError
from .words import MAX_RANK, Alphabet, Word, concat, multiply


class FiniteGroup:
    """Finite group given by its multiplication table (element 0 is the
    identity)."""

    def __init__(self, table: Sequence[Sequence[int]]):
        t = np.asarray(table, dtype=np.int64)
        n = t.shape[0]
        if t.shape != (n, n):
            raise ValidationError(f"multiplication table must be square, got {t.shape}")
        if not (np.all(t[0] == np.arange(n)) and np.all(t[:, 0] == np.arange(n))):
            raise ValidationError("element 0 must be the identity")
        for g in range(n):
            if sorted(t[g]) != list(range(n)) or sorted(t[:, g]) != list(range(n)):
                raise ValidationError(f"row/column {g} is not a permutation")
        self.table = t
        self.order = n
        self.inverse = np.argmax(t == 0, axis=1)

    @classmethod
    def cyclic(cls, m: int) -> "FiniteGroup":
        if m < 1:
            raise ValidationError("cyclic order must be >= 1")
        # built valid, so the checks of __init__ are skipped
        group = cls.__new__(cls)
        k = np.arange(m)
        group.table = np.add.outer(k, k)
        np.subtract(group.table, m, out=group.table, where=group.table >= m)
        group.order = m
        group.inverse = (m - k) % m
        return group

    def mul(self, g: int, h: int) -> int:
        return int(self.table[g, h])


class CosetTable:
    """Right action of the letters on the cosets of a finite-index subgroup;
    the basepoint coset 0 is the subgroup itself.  ``action[s][c]`` is the
    coset reached from coset s by letter c."""

    def __init__(self, alphabet: Alphabet, action: np.ndarray):
        action = np.asarray(action, dtype=np.int64)
        n, na = action.shape
        if na != len(alphabet):
            raise ValidationError("action table has wrong number of letter columns")
        self.alphabet = alphabet
        self.action: List[List[int]] = action.tolist()
        self.index = n
        self._check()

    def _check(self) -> None:
        n = self.index
        for c in range(len(self.alphabet)):
            if sorted(row[c] for row in self.action) != list(range(n)):
                raise ValidationError(f"letter {self.alphabet.names[c]} does not permute the cosets")
        for c in range(len(self.alphabet)):
            ci = self.alphabet.inv[c]
            for s in range(n):
                if self.action[self.action[s][c]][ci] != s:
                    raise ValidationError("inverse letters do not act inversely")
        seen = {0}
        frontier = [0]
        while frontier:
            s = frontier.pop()
            for t in self.action[s]:
                if t not in seen:
                    seen.add(t)
                    frontier.append(t)
        if len(seen) != n:
            raise ValidationError("coset graph is not connected")

    def step(self, coset: int, letter: int) -> int:
        return self.action[coset][letter]

    def walk(self, letters: Sequence[int]) -> int:
        """The coset reached from the subgroup along a letter sequence (a
        word's letters, or any concatenation of them)."""
        s = 0
        for c in letters:
            s = self.action[s][c]
        return s


def coset_table_from_quotient(alphabet: Alphabet, group: FiniteGroup,
                              images: Dict[int, int]) -> CosetTable:
    """Coset table of the kernel of the homomorphism sending each letter to
    the given group element.

    Images may be supplied for one letter of each inverse pair; supplied
    pairs must map to inverse elements.  The cosets enumerate the subgroup of
    the quotient generated by the images (all of it, for surjections).
    """
    full: Dict[int, int] = {}
    for c, img in images.items():
        if not 0 <= img < group.order:
            raise ValidationError(f"image {img} outside the group of order {group.order}")
        ci = alphabet.inv[c]
        full[c] = img
        want = int(group.inverse[img])
        if ci in images and images[ci] != want:
            raise ValidationError(
                f"letters {alphabet.names[c]},{alphabet.names[ci]} do not map to inverse elements")
        full.setdefault(ci, want)
    missing = [alphabet.names[c] for c in range(len(alphabet)) if c not in full]
    if missing:
        raise ValidationError(f"no image for letters {missing}")

    # enumerate the image subgroup
    elements = [0]
    seen = {0}
    queue = [0]
    while queue:
        g = queue.pop()
        for c in range(len(alphabet)):
            h = group.mul(g, full[c])
            if h not in seen:
                seen.add(h)
                elements.append(h)
                queue.append(h)
    elements.sort()
    pos = {g: i for i, g in enumerate(elements)}
    action = np.array([[pos[group.mul(g, full[c])] for c in range(len(alphabet))]
                       for g in elements], dtype=np.int64)
    # relabel so the identity coset is 0
    if pos[0] != 0:
        perm = list(range(len(elements)))
        perm[0], perm[pos[0]] = perm[pos[0]], perm[0]
        inv_perm = np.argsort(perm)
        action = inv_perm[action[perm]]
    return CosetTable(alphabet, action)


@dataclass
class SchreierData:
    """Prefix-closed transversal, symmetrized Schreier generators as a fresh
    rank-r alphabet, and the per-letter block index pairs.

    ``generator_factors[j]`` is the triple (u, c, v) of transversal indices
    and the middle letter with generator j equal to u . c . v^-1; the pairs
    under Gamma-letter ``a`` are exactly those (u, j) whose reduced word
    u^-1 . gen_j starts with ``a``.

    ``edge_gen[s][c]`` labels the edge of the coset graph from coset s by
    letter c: the index j of the Schreier generator t_s . c . t_{s.c}^-1
    (t_s the transversal element of coset s) on an edge outside the
    transversal tree, and -1 on a tree edge.  Each generator labels exactly
    one directed edge and the reverse edge carries its inverse, so the labels
    along a walk from coset 0 back to coset 0 spell the walked element.
    """

    table: CosetTable
    transversal: List[Word]
    subgroup_alphabet: Alphabet
    generator_words: List[Word]
    generator_factors: List[Tuple[int, int, int]]
    pairs: List[List[Tuple[int, int]]]
    edge_gen: List[List[int]]
    _coset_of_transversal: List[int]
    _transversal_of_coset: List[int]

    @property
    def index(self) -> int:
        return self.table.index

    @property
    def rank(self) -> int:
        return len(self.subgroup_alphabet) // 2

    def transversal_of_coset(self, coset: int) -> int:
        return self._transversal_of_coset[coset]

    def coset_of_transversal(self, u_idx: int) -> int:
        return self._coset_of_transversal[u_idx]


def schreier(table: CosetTable) -> SchreierData:
    """Breadth-first shortlex transversal, Schreier generators, and block
    pairs for a coset table.

    The transversal is prefix-closed by construction (a subtree containing
    the identity); the generators are the nontrivial u . c . rep(uc)^-1,
    symmetrized, with inverse pairs adjacent in shortlex order.
    """
    alphabet = table.alphabet
    n_letters = len(alphabet)
    rank = 1 + table.index * (n_letters // 2 - 1)  # the Schreier formula
    if rank > MAX_RANK:
        raise ValidationError(f"a subgroup of index {table.index} in the free group of rank "
                              f"{n_letters // 2} has rank {rank}, letter names allow {MAX_RANK}")

    rep_of_coset: List[Optional[Word]] = [None] * table.index
    rep_of_coset[0] = Word.identity(alphabet)
    order: List[int] = [0]
    head = 0
    while head < len(order):
        s = order[head]
        head += 1
        u = rep_of_coset[s]
        for c in range(n_letters):
            t = table.step(s, c)
            if rep_of_coset[t] is None:
                rep_of_coset[t] = concat(u, c)
                order.append(t)
    if any(r is None for r in rep_of_coset):
        raise ValidationError("coset table is not connected")

    transversal = [rep_of_coset[s] for s in order]
    coset_of_transversal = list(order)
    transversal_of_coset = [0] * table.index
    for i, s in enumerate(order):
        transversal_of_coset[s] = i

    # nontrivial Schreier generators with their (u, c, v) factorizations; the
    # rank check below also proves that no two edges share a generator
    raw: Dict[Tuple[int, ...], Tuple[Word, Tuple[int, int, int]]] = {}
    for u_idx, u in enumerate(transversal):
        s = coset_of_transversal[u_idx]
        for c in range(n_letters):
            v_idx = transversal_of_coset[table.step(s, c)]
            gen = multiply(concat(u, c), transversal[v_idx].inverse())
            if not gen.is_identity():
                raw[gen.letters] = (gen, (u_idx, c, v_idx))

    # shortlex order, each generator followed by its inverse
    placed: List[Tuple[int, ...]] = []
    for letters in sorted(raw, key=lambda l: (len(l), l)):
        inv_letters = raw[letters][0].inverse().letters
        if inv_letters not in raw:
            raise ValidationError("generator set is not closed under inversion")
        if letters not in placed:
            placed += [letters, inv_letters]

    if len(placed) != 2 * rank:
        raise ValidationError(
            f"Schreier generator count {len(placed)} contradicts the rank formula "
            f"(expected rank {rank})")
    sub_alphabet = Alphabet.rank(rank)
    generator_words = [raw[letters][0] for letters in placed]
    generator_factors = [raw[letters][1] for letters in placed]
    edge_gen = [[-1] * n_letters for _ in range(table.index)]
    for j, (u_idx, c, _v_idx) in enumerate(generator_factors):
        edge_gen[coset_of_transversal[u_idx]][c] = j

    pairs: List[List[Tuple[int, int]]] = [[] for _ in range(n_letters)]
    for u_idx in range(len(transversal)):
        u_inv = transversal[u_idx].inverse()
        for j, gw in enumerate(generator_words):
            w = multiply(u_inv, gw)
            if w.is_identity():
                raise ValidationError("transversal meets the subgroup away from the identity")
            pairs[w.first()].append((u_idx, j))

    return SchreierData(table, transversal, sub_alphabet, generator_words,
                        generator_factors, pairs, edge_gen,
                        coset_of_transversal, transversal_of_coset)


def rewrite_to_subgroup(w: Union[Word, Sequence[int]], data: SchreierData) -> Word:
    """Express a subgroup element as a reduced word over the Schreier
    generator alphabet; expansion recovers the original element.

    ``w`` is a word, or the letters of a product of words that need not be
    freely reduced: the walk reads each edge's generator from
    ``data.edge_gen`` and cancels it against the tail of the output, so any
    spelling of the element gives the same reduced result.
    """
    letters = w.letters if isinstance(w, Word) else w
    action, edge_gen = data.table.action, data.edge_gen
    sub_inv = data.subgroup_alphabet.inv
    out: List[int] = []
    s = 0
    for c in letters:
        j = edge_gen[s][c]
        if j >= 0:
            if out and out[-1] == sub_inv[j]:
                out.pop()
            else:
                out.append(j)
        s = action[s][c]
    if s != 0:
        spelled = "".join(data.table.alphabet.names[c] for c in letters) or "e"
        raise MembershipError(f"{spelled} is not in the subgroup")
    return Word._of(data.subgroup_alphabet, tuple(out))
