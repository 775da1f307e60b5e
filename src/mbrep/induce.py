"""Block induction of a matrix system from a finite-index subgroup to the
ambient free group, the unitary intertwiner onto the induced system's
multiplicative vectors, and the boundary action on the induced picture.

The induced letter space at ``a`` is the direct sum over pairs (u, c') of a
transversal element and a subgroup generator whose combination u^-1 c' starts
with ``a``; the induced map carries a block either by copying (when the
shifted transversal element stays inside the transversal tree) or by applying
the subgroup map attached to the unique Schreier generator crossing the tree
boundary.

The intertwiner :func:`intertwiner_J` is one routing pass and one evaluated
level: it routes the (prefix, transversal) pairs of the sphere levels 1, 2,
... to their source blocks until every block argument h.j reaches its
source depth, then evaluates that level only, through one
:func:`~mbrep.multrep.point_values` evaluator per source block, so the
arguments h.j that share h step out of h's value once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from .errors import CapExceededError, DepthError, LayoutError, ValidationError
from .multrep import (MultVector, RepSpace, act, cylinder_op, inner, point_values, vadd,
                      vscale, zero_vector)
from .subgroups import SchreierData, rewrite_to_subgroup
from .system import FormTuple, MatrixSystem
from .words import (DEFAULT_CAP, Alphabet, Cylinder, Word, cylinder_image, multiply, sphere,
                    sphere_size)


@dataclass
class InducedLayout:
    """Block bookkeeping of the induced letter spaces.

    For each ambient letter: the ordered (transversal index, generator index)
    pairs, the offset of each block, and the block dimensions.
    """

    pairs: List[List[Tuple[int, int]]]
    offsets: List[List[int]]
    block_dims: List[List[int]]
    slot: List[Dict[Tuple[int, int], int]]

    def letter_dim(self, a: int) -> int:
        if not self.pairs[a]:
            return 0
        return self.offsets[a][-1] + self.block_dims[a][-1]

    def locate(self, a: int, u_idx: int, gen_idx: int) -> Tuple[int, int]:
        k = self.slot[a].get((u_idx, gen_idx))
        if k is None:
            raise LayoutError(
                f"pair (transversal {u_idx}, generator {gen_idx}) missing under letter {a}")
        return self.offsets[a][k], self.block_dims[a][k]


def _build_layout(data: SchreierData, sub_dims: Tuple[int, ...]) -> InducedLayout:
    n = len(data.table.alphabet)
    pairs: List[List[Tuple[int, int]]] = [list(data.pairs[a]) for a in range(n)]
    offsets: List[List[int]] = []
    block_dims: List[List[int]] = []
    slot: List[Dict[Tuple[int, int], int]] = []
    for a in range(n):
        offs, dims, pos = [], [], {}
        run = 0
        for k, (u_idx, j) in enumerate(pairs[a]):
            offs.append(run)
            dims.append(sub_dims[j])
            pos[(u_idx, j)] = k
            run += sub_dims[j]
        offsets.append(offs)
        block_dims.append(dims)
        slot.append(pos)
    return InducedLayout(pairs, offsets, block_dims, slot)


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
    inv = alphabet.inv
    sub_inv = data.subgroup_alphabet.inv
    layout = _build_layout(data, sub_system.dims)
    dims = [layout.letter_dim(a) for a in range(n)]

    maps: Dict[Tuple[int, int], np.ndarray] = {}
    for b in range(n):
        for a in range(n):
            if inv[a] == b:
                continue
            db, da = dims[b], dims[a]
            if db == 0 or da == 0:
                continue
            block = np.zeros((db, da), dtype=np.complex128)
            for row_k, (v_idx, jd) in enumerate(layout.pairs[b]):
                r_off = layout.offsets[b][row_k]
                r_dim = layout.block_dims[b][row_k]
                # the edge by letter a into the coset of v
                coset = data.table.step(data.coset_of_transversal(v_idx), inv[a])
                u_idx = data.transversal_of_coset(coset)
                jc = data.edge_gen[coset][a]
                if jc < 0:
                    # copy block: a tree edge keeps the block inside the tree
                    c_off, c_dim = layout.locate(a, u_idx, jd)
                    if c_dim != r_dim:
                        raise LayoutError("copy block dimensions disagree")
                    block[r_off:r_off + r_dim, c_off:c_off + c_dim] = np.eye(r_dim)
                else:
                    if sub_inv[jc] == jd:
                        raise LayoutError("crossing generator pairs with an inverse letter")
                    c_off, c_dim = layout.locate(a, u_idx, jc)
                    m = sub_system.maps[jd][jc]
                    if m is not None:  # None is a structurally zero subgroup map
                        block[r_off:r_off + r_dim, c_off:c_off + c_dim] = m
            if np.any(block != 0):
                maps[(b, a)] = block

    forms = []
    for a in range(n):
        f = np.zeros((dims[a], dims[a]), dtype=np.complex128)
        for k, (u_idx, j) in enumerate(layout.pairs[a]):
            off = layout.offsets[a][k]
            d = layout.block_dims[a][k]
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

# the routes of one sphere level: per prefix x and transversal index of u,
# the source transversal index and the subgroup word h with
# x . u^-1 = t_source . h (None where no block of x's words needs u)
Routes = Dict[Tuple[int, ...], List[Optional[Tuple[int, Word]]]]


def intertwiner_J(f: InducedVector, layout: InducedLayout,
                  induced_space: RepSpace, depth: Optional[int] = None) -> MultVector:
    """The unitary identification of the induced space with the induced
    system's multiplicative vectors: the value at a word x.a collects, block
    by block, the source function at x u^-1 evaluated on the crossing
    generator.

    One routing pass walks the sphere levels 1, 2, ... and only routes each
    (prefix x, transversal u) pair to its source block and subgroup word h;
    with ``depth=None`` it stops at the first level where every block
    argument h.j is at least as long as its source block's depth (|h.j| is
    read off h's letters).  An explicit ``depth`` that is too small raises
    :class:`DepthError`.  Only the chosen level is evaluated, by one
    :func:`~mbrep.multrep.point_values` evaluator per source block: the
    block arguments h.j of one base h share the steps out to h.
    """
    if depth is not None:
        routes, bad = _route_level(f, layout, depth)
        if bad is not None:
            raise DepthError(f"depth {depth} too small to evaluate block at {bad}")
        return _evaluate_level(f, layout, induced_space, depth, routes)
    for d in range(1, MAX_INTERTWINER_DEPTH + 1):
        routes, bad = _route_level(f, layout, d)
        if bad is None:
            return _evaluate_level(f, layout, induced_space, d, routes)
    raise DepthError(
        f"no admissible presentation depth up to {MAX_INTERTWINER_DEPTH}: "
        f"depth {MAX_INTERTWINER_DEPTH} too small to evaluate block at {bad}")


def _next_letters(alphabet: Alphabet, x: Tuple[int, ...]) -> List[int]:
    """The letters a with x.a reduced, ascending (the sphere order)."""
    if not x:
        return list(range(len(alphabet)))
    return [a for a in range(len(alphabet)) if a != alphabet.inv[x[-1]]]


def _argument(h: Tuple[int, ...], j: int, sub_inv: Tuple[int, ...]) -> Tuple[int, ...]:
    """The letters of the reduced subgroup word h.j.  h can end in j^-1 even
    though x.a is reduced: the transversal element of the route may cancel
    x and the crossing letter of generator j (index 2 at x = e, for one)."""
    return h[:-1] if h and h[-1] == sub_inv[j] else h + (j,)


def _route_level(f: InducedVector, layout: InducedLayout,
                 depth: int) -> Tuple[Routes, Optional[Word]]:
    """Route the blocks of every word x.a on the sphere of radius ``depth``,
    in sphere order.  Returns the routes and the first word with a block
    argument shorter than its source depth, where the pass stops (None when
    there is none).  Both the sphere and the routes it may store, one per
    (prefix x, transversal u) pair, are held against the cap."""
    data = f.data
    alphabet = data.table.alphabet
    if sphere_size(alphabet, depth) > DEFAULT_CAP:
        raise CapExceededError(f"sphere of radius {depth} has {sphere_size(alphabet, depth)} "
                               f"words, cap is {DEFAULT_CAP}")
    held = sphere_size(alphabet, depth - 1) * len(data.transversal)
    if held > DEFAULT_CAP:
        raise CapExceededError(f"routing level {depth} would store {held} routes, "
                               f"cap is {DEFAULT_CAP}")
    inverses = [t.inverse().letters for t in data.transversal]
    sub_inv = data.subgroup_alphabet.inv
    routes: Routes = {}
    for xw in sphere(alphabet, depth - 1):
        x = xw.letters
        rx: List[Optional[Tuple[int, Word]]] = [None] * len(inverses)
        routes[x] = rx
        for a in _next_letters(alphabet, x):
            for u_idx, j in layout.pairs[a]:
                route = rx[u_idx]
                if route is None:
                    src_idx, h = _decompose_element(data, x + inverses[u_idx])
                    route = rx[u_idx] = (src_idx, rewrite_to_subgroup(h, data))
                src = f.blocks.get(route[0])
                if src is not None and len(_argument(route[1].letters, j, sub_inv)) < src.depth:
                    return routes, Word._of(alphabet, x + (a,))
    return routes, None


def _evaluate_level(f: InducedVector, layout: InducedLayout, induced_space: RepSpace,
                    depth: int, routes: Routes) -> MultVector:
    alphabet = f.data.table.alphabet
    sub_inv = f.data.subgroup_alphabet.inv
    slots = [[(u_idx, j, off, off + dim) for (u_idx, j), off, dim
              in zip(layout.pairs[a], layout.offsets[a], layout.block_dims[a])]
             for a in range(len(alphabet))]
    value_of = {src_idx: point_values(src) for src_idx, src in f.blocks.items()}
    values: Dict[Word, np.ndarray] = {}
    for x, rx in routes.items():
        for a in _next_letters(alphabet, x):
            out: Optional[np.ndarray] = None
            for u_idx, j, lo, hi in slots[a]:
                route = rx[u_idx]
                if route is None or route[0] not in value_of:
                    continue
                val = value_of[route[0]](_argument(route[1].letters, j, sub_inv))
                if val is not None and np.count_nonzero(val):
                    if out is None:
                        out = np.zeros(layout.letter_dim(a), dtype=np.complex128)
                    out[lo:hi] = val
            if out is not None:
                values[Word._of(alphabet, x + (a,))] = out
    return MultVector._of(induced_space, depth, values)


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


def induced_distance(f: InducedVector, g: InducedVector) -> float:
    """Norm distance in the induced space."""
    total = 0.0
    keys = set(f.blocks) | set(g.blocks)
    for u in keys:
        fv = f.blocks.get(u)
        gv = g.blocks.get(u)
        if fv is None:
            diff = gv
        elif gv is None:
            diff = fv
        else:
            diff = vadd(fv, vscale(-1.0, gv))
        total += max(inner(diff, diff).real, 0.0)
    return float(np.sqrt(total))
