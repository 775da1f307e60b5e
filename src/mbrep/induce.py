"""Block induction of a matrix system from a finite-index subgroup to the
ambient free group, the unitary intertwiner onto the induced system's
multiplicative vectors, and the boundary action on the induced picture.

The induced letter space at ``a`` is the direct sum over pairs (u, c') of a
transversal element and a subgroup generator whose combination u^-1 c' starts
with ``a``; the induced map carries a block either by copying (when the
shifted transversal element stays inside the transversal tree) or by applying
the subgroup map attached to the unique Schreier generator crossing the tree
boundary.  Both cases are read off one edge table of the layout, which gives
each block of each induced map its one source block.

The intertwiner :func:`intertwiner_J` steps a block's argument h.j at a word
x.a to the next level as the induced maps step values (Reidemeister-Schreier
rewriting run one letter at a time): a copy block keeps the argument of its
source block, a crossing block appends its generator.  So its depth is a
min-plus recursion over the finite states (letter, block, source), and its
level is stepped out in arrays, one copy or stacked product per block of
each induced map, reading a source only where an argument reaches its depth.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, product
from typing import Dict, Iterator, List, Tuple

import numpy as np

from .errors import CapExceededError, DepthError, LayoutError, ValidationError
from .multrep import (MultVector, RepSpace, act, cylinder_op, inner, point_values, vadd,
                      zero_vector)
from .subgroups import SchreierData, rewrite_to_subgroup
from .system import FormTuple, MatrixSystem
from .words import DEFAULT_CAP, Cylinder, Word, cylinder_image, multiply


@dataclass
class InducedLayout:
    """Block bookkeeping of the induced letter spaces.

    For each ambient letter: the ordered (transversal index, generator index)
    pairs, the offset of each block, and the block dimensions.  For letter a
    and transversal index v, ``edges[a][v]`` is (u, jc): u indexes the coset
    v.a^-1 and jc is the Schreier generator u.a.v^-1 on its a-edge (-1 on a
    tree edge).  ``root[v]`` is the :data:`Route` of (e, v), rewritten whole;
    ``first[a][k]`` holds the source and argument h.j of block k at the word
    a; ``targets[a][ka]`` lists the (b, k, jc) where the map from a to b fills
    block k of b from block ka of a, by a copy (jc = -1) or by generator jc.
    """

    pairs: List[List[Tuple[int, int]]]
    offsets: List[List[int]]
    block_dims: List[List[int]]
    edges: List[List[Tuple[int, int]]]
    root: List[Route]
    first: List[List[Route]]
    targets: List[List[List[Tuple[int, int, int]]]]

    def letter_dim(self, a: int) -> int:
        return sum(self.block_dims[a])


def _build_layout(data: SchreierData, sub_dims: Tuple[int, ...]) -> InducedLayout:
    inv = data.table.alphabet.inv
    sub_inv = data.subgroup_alphabet.inv
    n = len(inv)
    pairs = [list(p) for p in data.pairs]
    block_dims = [[sub_dims[j] for _, j in p] for p in pairs]
    offsets = [list(accumulate(dims, initial=0))[:-1] for dims in block_dims]
    slot = [{pair: k for k, pair in enumerate(p)} for p in pairs]
    edges = []
    for a in range(n):
        cosets = [data.table.step(data.coset_of_transversal(v_idx), inv[a])
                  for v_idx in range(data.index)]
        edges.append([(data.transversal_of_coset(c), data.edge_gen[c][a]) for c in cosets])
    root = [(src_idx, rewrite_to_subgroup(h, data).letters) for src_idx, h in
            (_decompose_element(data, t.inverse().letters) for t in data.transversal)]
    first = [[(root[v][0], _argument(root[v][1], j, sub_inv)) for v, j in p] for p in pairs]
    targets = [[[] for _ in p] for p in pairs]
    for b, a in product(range(n), range(n)):
        for k, (v_idx, jd) in enumerate(pairs[b] if a != inv[b] else ()):
            u_idx, jc = edges[a][v_idx]
            if jc >= 0 and sub_inv[jc] == jd:
                raise LayoutError("crossing generator pairs with an inverse letter")
            # a tree edge copies the block of the same generator
            pair = (u_idx, jd if jc < 0 else jc)
            if pair not in slot[a]:
                raise LayoutError(f"pair (transversal {pair[0]}, generator {pair[1]}) "
                                  f"missing under letter {a}")
            targets[a][slot[a][pair]].append((b, k, jc))
    return InducedLayout(pairs, offsets, block_dims, edges, root, first, targets)


def induce_system(sub_system: MatrixSystem, sub_forms: FormTuple,
                  data: SchreierData) -> Tuple[MatrixSystem, FormTuple, InducedLayout]:
    """Induced matrix system over the ambient alphabet, with block-diagonal
    induced forms; compatibility of the output forms is inherited from the
    input (and checked by the callers' tests, not assumed silently).
    """
    if sub_system.alphabet != data.subgroup_alphabet:
        raise ValidationError("subgroup system is not over the Schreier generator alphabet")
    alphabet = data.table.alphabet
    n = len(alphabet)
    layout = _build_layout(data, sub_system.dims)
    dims = [layout.letter_dim(a) for a in range(n)]

    maps: Dict[Tuple[int, int], np.ndarray] = {}
    for a, fed_by_block in enumerate(layout.targets):
        for ka, targets in enumerate(fed_by_block):
            c_off, c_dim = layout.offsets[a][ka], layout.block_dims[a][ka]
            for b, k, jc in targets:
                r_off, r_dim = layout.offsets[b][k], layout.block_dims[b][k]
                # a None subgroup map is structurally zero
                m = np.eye(r_dim) if jc < 0 else sub_system.maps[layout.pairs[b][k][1]][jc]
                if m is not None:
                    block = maps.setdefault((b, a), np.zeros((dims[b], dims[a]),
                                                             dtype=np.complex128))
                    block[r_off:r_off + r_dim, c_off:c_off + c_dim] = m
    maps = {ba: block for ba, block in maps.items() if np.any(block != 0)}

    forms = []
    for a in range(n):
        f = np.zeros((dims[a], dims[a]), dtype=np.complex128)
        for (_, j), off, d in zip(layout.pairs[a], layout.offsets[a], layout.block_dims[a]):
            f[off:off + d, off:off + d] = sub_forms[j]
        forms.append(f)

    return MatrixSystem(alphabet, dims, maps), FormTuple(forms), layout


class InducedVector:
    """Element of the induced space in block form: one subgroup-side vector
    per transversal element (functions on the group, equivariant under right
    subgroup translation, determined by their transversal values)."""

    def __init__(self, data: SchreierData, space: RepSpace,
                 blocks: Dict[int, MultVector]):
        self.data = data
        self.space = space
        self.blocks = {u: v for u, v in blocks.items() if not v.is_zero()}


def _decompose_element(data: SchreierData, g: Tuple[int, ...]) -> Tuple[int, Tuple[int, ...]]:
    """g = u . h with u in the transversal and h in the subgroup, for g given
    by its letters: the index of u and the letters of u^-1 . g, not freely
    reduced, for :func:`rewrite_to_subgroup`."""
    u_idx = data.transversal_of_coset(data.table.walk(g))
    return u_idx, data.transversal[u_idx].inverse().letters + g


def induced_inner(f: InducedVector, g: InducedVector) -> complex:
    total = 0.0 + 0.0j
    for u, fv in f.blocks.items():
        gv = g.blocks.get(u)
        if gv is not None:
            total += inner(fv, gv)
    return complex(total)


def induced_action(x: Word, f: InducedVector) -> InducedVector:
    """The induced representation acting in block form."""
    data = f.data
    xinv = x.inverse().letters
    blocks: Dict[int, MultVector] = {}
    for u_idx, u in enumerate(data.transversal):
        src_idx, h = _decompose_element(data, xinv + u.letters)
        src = f.blocks.get(src_idx)
        if src is None:
            continue
        word_h = rewrite_to_subgroup(h, data)
        moved = act(word_h.inverse(), src)
        if not moved.is_zero():
            blocks[u_idx] = moved
    return InducedVector(data, f.space, blocks)


#: deepest presentation depth the intertwiner's depth search tries
MAX_INTERTWINER_DEPTH = 16

#: the route of a prefix x and a transversal element u: the source transversal
#: index and the letters of the reduced subgroup word h, x . u^-1 = t_source . h
Route = Tuple[int, Tuple[int, ...]]


def intertwiner_J(f: InducedVector, layout: InducedLayout,
                  induced_space: RepSpace) -> MultVector:
    """The unitary identification of the induced space with the induced
    system's multiplicative vectors: the value at a word x.a collects, block
    by block, the source function at x u^-1 evaluated on the crossing
    generator.  It is presented at the least depth where every block
    argument h.j reaches its source block's depth (else :class:`DepthError`
    past ``MAX_INTERTWINER_DEPTH``), found by :func:`_least_depth`, and that
    level is evaluated in arrays by :func:`_evaluate_level`.

    Both step arguments through ``layout.targets``: a copy block keeps the
    argument of the block feeding it and a crossing block appends its
    generator.  Once an argument ends in its block's generator no append
    cancels, as no crossing block pairs a generator with its inverse (the
    Nielsen property of a Schreier transversal).  A first-level argument
    can end otherwise, where the transversal element cancels into the
    crossing letter, and the next appends may cancel it further (at S3 with
    a to a 3-cycle and b to a transposition, for one), so such an argument
    is followed letter by letter until an append keeps its last letter.
    """
    return _evaluate_level(f, layout, induced_space, _least_depth(f, layout))


def _argument(h: Tuple[int, ...], j: int, sub_inv: Tuple[int, ...]) -> Tuple[int, ...]:
    """The letters of the reduced subgroup word h.j: a block argument, or a
    route stepped over a crossing edge.  h can end in j^-1 even though x.a
    is reduced: the transversal element of the route may cancel x and the
    crossing letter of generator j (index 2 at x = e, for one)."""
    return h[:-1] if h and h[-1] == sub_inv[j] else h + (j,)


def _stepped(layout: InducedLayout, a: int, ka: int, arg: Tuple[int, ...],
             sub_inv: Tuple[int, ...]) -> Iterator[Tuple[int, int, Tuple[int, ...]]]:
    """The blocks (b, k) that block ka of letter a feeds, each with its
    argument one level on from ``arg``: kept, or with b's generator appended."""
    for b, k, jc in layout.targets[a][ka]:
        yield b, k, arg if jc < 0 else _argument(arg, layout.pairs[b][k][1], sub_inv)


def _least_depth(f: InducedVector, layout: InducedLayout) -> int:
    """The least sphere level at which every block argument with a source
    in ``f`` reaches that source's depth, by a min-plus recursion over the
    states (letter, block, source): a state keeps its shortest argument, the
    shortest among the blocks feeding it, one letter longer on a crossing.
    An argument that does not end in its block's generator is a state of
    its own.  Every level up to the chosen one is held against the cap.
    """
    sub_inv = f.data.subgroup_alphabet.inv
    n = len(layout.pairs)
    width = sum(layout.letter_dim(a) for a in range(n))
    level = [(a, k, s, arg) for a, firsts in enumerate(layout.first)
             for k, (s, arg) in enumerate(firsts) if s in f.blocks]
    for depth in range(1, MAX_INTERTWINER_DEPTH + 1):
        held = (n - 1) ** (depth - 1) * width
        if held > DEFAULT_CAP:
            raise CapExceededError(f"intertwiner level {depth} would store {held} entries, "
                                   f"cap is {DEFAULT_CAP}")
        shortest: Dict[tuple, Tuple[int, ...]] = {}
        for a, k, s, arg in level:
            key = (a, k, s, None if arg[-1:] == (layout.pairs[a][k][1],) else arg)
            if key not in shortest or len(arg) < len(shortest[key]):
                shortest[key] = arg
        if all(len(arg) >= f.blocks[s].depth for (_, _, s, _), arg in shortest.items()):
            return depth
        level = [(b, k, s, arg_to) for (a, ka, s, _), arg in shortest.items()
                 for b, k, arg_to in _stepped(layout, a, ka, arg, sub_inv)]
    raise DepthError(
        f"no admissible presentation depth up to {MAX_INTERTWINER_DEPTH}: depth "
        f"{MAX_INTERTWINER_DEPTH} too small, a block argument is shorter than its source depth")


def _evaluate_level(f: InducedVector, layout: InducedLayout, induced_space: RepSpace,
                    depth: int) -> MultVector:
    """The values of J f on the sphere of radius ``depth``, stepped out from
    the words of length 1.  A level holds one array per letter, a row per
    word ending in it (grouped by the parent's last letter) and its blocks
    side by side; each block of each induced map fills its rows by one copy
    or one stacked product.  A block is pending, with its argument, until
    the argument ends in the block's generator and reaches its source's
    depth; there it is read from the source table, or by a point evaluation
    where a first-level argument is already longer.
    """
    alphabet = f.data.table.alphabet
    sub_alphabet = f.data.subgroup_alphabet
    maps = f.space.system.maps
    n = len(alphabet)
    inv = alphabet.inv
    dims = [layout.letter_dim(a) for a in range(n)]
    value_at = {s: point_values(src) for s, src in f.blocks.items()}

    def settle(a: int, values: np.ndarray, due: list, last: bool) -> list:
        """Read the due (row, block, source, argument) of letter a, all of
        them at the last level, into ``values``; return the still pending."""
        pending = []
        for row, k, s, arg in due:
            src = f.blocks[s]
            if not last and (arg[-1:] != (layout.pairs[a][k][1],) or len(arg) < src.depth):
                pending.append((row, k, s, arg))
                continue
            v = (src.values.get(Word._of(sub_alphabet, arg)) if len(arg) == src.depth
                 else value_at[s](arg))
            lo = layout.offsets[a][k]
            values[row, lo:lo + layout.block_dims[a][k]] = 0 if v is None else v
        return pending

    level = [np.zeros((1, d), dtype=np.complex128) for d in dims]
    words = [np.array([[a]]) for a in range(n)]
    due = [[(0, k, s, arg) for k, (s, arg) in enumerate(layout.first[a]) if s in f.blocks]
           for a in range(n)]
    for d in range(1, depth + 1):
        if d > 1:
            width = len(words[0])
            level, previous = [np.empty(((n - 1) * width, dims[b]), dtype=np.complex128)
                               for b in range(n)], level
            due = [[] for _ in range(n)]
            for a, fed_by_block in enumerate(layout.targets):
                for ka, targets in enumerate(fed_by_block):
                    lo_a = layout.offsets[a][ka]
                    v = previous[a][:, lo_a:lo_a + layout.block_dims[a][ka]]
                    for b, k, jc in targets:
                        at = (a - (a > inv[b])) * width
                        lo, jd = layout.offsets[b][k], layout.pairs[b][k][1]
                        out = level[b][at:at + width, lo:lo + layout.block_dims[b][k]]
                        if jc < 0:
                            out[...] = v
                        elif maps[jd][jc] is None:
                            out[...] = 0
                        else:
                            np.matmul(maps[jd][jc], v[:, :, None], out=out[:, :, None])
            for a, waiting in enumerate(pending):
                for row, ka, s, arg in waiting:
                    for b, k, arg_to in _stepped(layout, a, ka, arg, sub_alphabet.inv):
                        due[b].append(((a - (a > inv[b])) * width + row, k, s, arg_to))
            words = [np.concatenate([np.column_stack((words[a], np.full(width, b)))
                                     for a in range(n) if a != inv[b]]) for b in range(n)]
        pending = [settle(a, level[a], due[a], d == depth) for a in range(n)]

    # sphere order is the lexicographic order of the letters
    letters = np.concatenate(words)
    live = np.concatenate([values.any(axis=1) for values in level])
    order = np.lexsort(letters.T[::-1])
    order = order[live[order]]
    rows = [row for values in level for row in values]
    return MultVector._of(induced_space, depth, {
        Word._of(alphabet, key): rows[p]
        for key, p in zip(map(tuple, letters[order].tolist()), order.tolist())})


def boundary_pullback(data: SchreierData, z: Word) -> List[Word]:
    """Stems of the subgroup-side cylinders whose image under the boundary
    identification lies in the ambient cylinder at ``z``.

    Depth |z| always suffices: the entry vertex of the k-th tree tile along a
    reduced generator word lies on the limit geodesic at distance >= k, so
    membership is decided by comparing it with the stem.
    """
    if z.is_identity():
        raise ValidationError("pullback needs a nonempty stem")
    sub_alphabet = data.subgroup_alphabet
    alphabet = data.table.alphabet
    k_target = len(z)
    out: List[Word] = []

    def walk(prefix: Tuple[int, ...], g: Word) -> None:
        depth = len(prefix)
        if depth == k_target:
            return
        last_forbidden = sub_alphabet.inv[prefix[-1]] if prefix else -1
        for j in range(len(sub_alphabet)):
            if j == last_forbidden:
                continue
            u_idx, mid, _v_idx = data.generator_factors[j]
            entry = multiply(g, multiply(data.transversal[u_idx],
                                         Word(alphabet, (mid,))))
            new_prefix = prefix + (j,)
            if depth + 1 == k_target:
                if len(entry) < k_target:
                    raise LayoutError("entry vertex shorter than the tile count")
                if entry.letters[:k_target] == z.letters:
                    out.append(Word(sub_alphabet, new_prefix))
            else:
                walk(new_prefix, multiply(g, data.generator_words[j]))

    walk((), Word.identity(alphabet))
    return out


def induced_boundary_op(f: InducedVector, z: Word) -> InducedVector:
    """Boundary multiplication by the ambient cylinder indicator at ``z`` in
    block form: each block gets the indicator translated by its transversal
    element and pulled back through the boundary identification.

    This is an implementation independent of the intertwiner, so agreement of
    the two routes is a substantive check.
    """
    data = f.data
    blocks: Dict[int, MultVector] = {}
    for u_idx, src in f.blocks.items():
        u_inv = data.transversal[u_idx].inverse()
        acc = zero_vector(f.space, src.depth)
        for part in cylinder_image(u_inv, Cylinder(z)):
            for stem in boundary_pullback(data, part.stem):
                acc = vadd(acc, cylinder_op(stem, src))
        if not acc.is_zero():
            blocks[u_idx] = acc
    return InducedVector(data, f.space, blocks)
