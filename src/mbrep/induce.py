"""Block induction of a matrix system from a finite-index subgroup to the
ambient free group, the unitary intertwiner onto the induced system's
multiplicative vectors, and the boundary action on the induced picture.

The induced letter space at ``a`` is the direct sum over pairs (u, c') of a
transversal element and a subgroup generator whose combination u^-1 c' starts
with ``a``; the induced map carries a block either by copying (when the
shifted transversal element stays inside the transversal tree) or by applying
the subgroup map attached to the unique Schreier generator crossing the tree
boundary.  Both cases are read off one edge table of the layout.

The intertwiner :func:`intertwiner_J` is one routing pass and one evaluated
level.  It routes the (prefix, transversal) pairs of the sphere levels 1, 2,
... to their source blocks, stepping each prefix's routes from its parent's
through the same edge table (Reidemeister-Schreier rewriting run one letter
at a time), until every block argument h.j reaches its source depth.  Then
it evaluates that level only, through one :func:`~mbrep.multrep.point_values`
evaluator per source block, so the arguments h.j that share h step out of
h's value once.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from .errors import CapExceededError, DepthError, LayoutError, ValidationError
from .multrep import (MultVector, RepSpace, act, cylinder_op, inner, point_values, vadd,
                      vscale, zero_vector)
from .subgroups import SchreierData, rewrite_to_subgroup
from .system import FormTuple, MatrixSystem
from .words import DEFAULT_CAP, Alphabet, Cylinder, Word, cylinder_image, multiply, sphere_size


@dataclass
class InducedLayout:
    """Block bookkeeping of the induced letter spaces.

    For each ambient letter: the ordered (transversal index, generator index)
    pairs, the offset of each block, and the block dimensions.  For letter a
    and transversal index v, ``edges[a][v]`` is (u, jc): u indexes the coset
    v.a^-1 and jc is the Schreier generator u.a.v^-1 on its a-edge (-1 on a
    tree edge).  ``root[v]`` is the :data:`Route` of (e, v), rewritten whole.
    """

    pairs: List[List[Tuple[int, int]]]
    offsets: List[List[int]]
    block_dims: List[List[int]]
    slot: List[Dict[Tuple[int, int], int]]
    edges: List[List[Tuple[int, int]]]
    root: List[Route]

    def letter_dim(self, a: int) -> int:
        return sum(self.block_dims[a])

    def locate(self, a: int, u_idx: int, gen_idx: int) -> Tuple[int, int]:
        k = self.slot[a].get((u_idx, gen_idx))
        if k is None:
            raise LayoutError(
                f"pair (transversal {u_idx}, generator {gen_idx}) missing under letter {a}")
        return self.offsets[a][k], self.block_dims[a][k]


def _build_layout(data: SchreierData, sub_dims: Tuple[int, ...]) -> InducedLayout:
    inv = data.table.alphabet.inv
    pairs = [list(p) for p in data.pairs]
    block_dims = [[sub_dims[j] for _, j in p] for p in pairs]
    offsets = [list(accumulate(dims, initial=0))[:-1] for dims in block_dims]
    slot = [{pair: k for k, pair in enumerate(p)} for p in pairs]
    edges = []
    for a in range(len(pairs)):
        cosets = [data.table.step(data.coset_of_transversal(v_idx), inv[a])
                  for v_idx in range(data.index)]
        edges.append([(data.transversal_of_coset(c), data.edge_gen[c][a]) for c in cosets])
    root = [(src_idx, rewrite_to_subgroup(h, data).letters) for src_idx, h in
            (_decompose_element(data, t.inverse().letters) for t in data.transversal)]
    return InducedLayout(pairs, offsets, block_dims, slot, edges, root)


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
            for (v_idx, jd), r_off, r_dim in zip(layout.pairs[b], layout.offsets[b],
                                                 layout.block_dims[b]):
                u_idx, jc = layout.edges[a][v_idx]
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
# the routes of one sphere level: per prefix x, one route per transversal index
Routes = Dict[Tuple[int, ...], List[Route]]


def intertwiner_J(f: InducedVector, layout: InducedLayout,
                  induced_space: RepSpace) -> MultVector:
    """The unitary identification of the induced space with the induced
    system's multiplicative vectors: the value at a word x.a collects, block
    by block, the source function at x u^-1 evaluated on the crossing
    generator.

    One routing pass walks the sphere levels 1, 2, ... and routes each
    (prefix x, transversal u) pair, stepped from x's parent through the
    layout's edge table.  It stops at the first level where every block
    argument h.j is at least as long as its source block's depth (else
    :class:`DepthError` past ``MAX_INTERTWINER_DEPTH``) and evaluates that
    level only, by one :func:`~mbrep.multrep.point_values` evaluator per
    source block, so the arguments h.j of one h share the steps out to h.
    """
    for d in range(1, MAX_INTERTWINER_DEPTH + 1):
        routes, bad = _route_level(f, layout, d)
        if bad is None:
            return _evaluate_level(f, layout, induced_space, d, routes)
    raise DepthError(
        f"no admissible presentation depth up to {MAX_INTERTWINER_DEPTH}: "
        f"depth {MAX_INTERTWINER_DEPTH} too small to evaluate block at {bad}")


def _next_letters(alphabet: Alphabet, x: Tuple[int, ...]) -> List[int]:
    """The letters a with x.a reduced, ascending (the sphere order)."""
    return [a for a in range(len(alphabet)) if not x or a != alphabet.inv[x[-1]]]


def _argument(h: Tuple[int, ...], j: int, sub_inv: Tuple[int, ...]) -> Tuple[int, ...]:
    """The letters of the reduced subgroup word h.j: a block argument, or a
    route stepped over a crossing edge.  h can end in j^-1 even though x.a
    is reduced: the transversal element of the route may cancel x and the
    crossing letter of generator j (index 2 at x = e, for one)."""
    return h[:-1] if h and h[-1] == sub_inv[j] else h + (j,)


def _prefix_routes(data: SchreierData, layout: InducedLayout,
                   length: int) -> Iterator[Tuple[Tuple[int, ...], List[Route]]]:
    """Every reduced prefix x of the given length with its routes, in sphere
    order, stepped depth-first from e.  With (u, jc) = ``layout.edges[a][v]``,
    x.a.v^-1 = x.u^-1 . (u.a.v^-1): a tree edge keeps the route of (x, u),
    and a crossing edge appends jc to its h."""
    alphabet = data.table.alphabet
    sub_inv = data.subgroup_alphabet.inv
    stack = [((), layout.root)]
    while stack:
        x, rx = stack.pop()
        if len(x) == length:
            yield x, rx
            continue
        for a in reversed(_next_letters(alphabet, x)):
            stack.append((x + (a,), [rx[u] if jc < 0 else (rx[u][0], _argument(rx[u][1], jc, sub_inv))
                                     for u, jc in layout.edges[a]]))


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
    sub_inv = data.subgroup_alphabet.inv
    routes: Routes = {}
    for x, rx in _prefix_routes(data, layout, depth - 1):
        routes[x] = rx
        for a in _next_letters(alphabet, x):
            for u_idx, j in layout.pairs[a]:
                src_idx, h = rx[u_idx]
                src = f.blocks.get(src_idx)
                if src is not None and len(_argument(h, j, sub_inv)) < src.depth:
                    return routes, Word._of(alphabet, x + (a,))
    return routes, None


def _evaluate_level(f: InducedVector, layout: InducedLayout, induced_space: RepSpace,
                    depth: int, routes: Routes) -> MultVector:
    alphabet = f.data.table.alphabet
    sub_inv = f.data.subgroup_alphabet.inv
    value_of = {src_idx: point_values(src) for src_idx, src in f.blocks.items()}
    values: Dict[Word, np.ndarray] = {}
    for x, rx in routes.items():
        for a in _next_letters(alphabet, x):
            out: Optional[np.ndarray] = None
            for (u_idx, j), lo, dim in zip(layout.pairs[a], layout.offsets[a],
                                           layout.block_dims[a]):
                src_idx, h = rx[u_idx]
                if src_idx not in value_of:
                    continue
                val = value_of[src_idx](_argument(h, j, sub_inv))
                if val is not None and np.count_nonzero(val):
                    if out is None:
                        out = np.zeros(layout.letter_dim(a), dtype=np.complex128)
                    out[lo:lo + dim] = val
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
