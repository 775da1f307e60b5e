"""Sphere propagation by levels, and the brute-force sphere pairing.

A level holds the values of a function on one word sphere, grouped by the
last letter of the word: one array per letter whose rows (the trailing axis
is the letter's space) are the values at the words ending in it.
``level_step`` moves a level one step outward; ``multrep.deepen``,
``multrep.act``, the spectral measure and ``brute_pairing`` all propagate
through it.  Its product is the point evaluator's, ``m @ row`` for one row,
stacked over the rows of a level: batched gemm rounds a row differently
from that matvec, and differently again with the number of rows sharing
the call, so with one product a value's bits depend only on its word.

The literal inner-product sum over a whole word sphere is the package's
exponential inner loop.  ``brute_pairing`` seeds each geodesic cone of
``words.cone_walk`` with the (f, g) values at its roots and steps those
pairs outward, in chunks of at most ``CHUNK_ROWS`` rows, to three levels
short of the truncation sphere.  The last three steps are folded into path
kernels: a sphere word y = u.t, with t a path of one to three letters beyond
u and M the product of the maps along t, has the term conj(g(u))^T K f(u)
with K = M^T B^T conj(M) in row form, bilinear in u's pair, so the rows of
each letter of u's level are summed once into their moment F^T conj(G),
which the kernels of all paths pair in one product.  The three outer spheres
are never formed and memory does not grow with |x|.  Only the order of the
sum changes: every sphere word adds its own term, no kernels are added
together and compatibility is never used.  It is the independent oracle for
the cone-collapsed ``fast`` backend.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from .words import cone_walk

#: a level: last letter -> (rows, keys), keys each row's word_index (a child's is
#: its parent's times |A|-1 plus its letter's rank), int64 or, past 2^63 words,
#: Python ints; None only inside the brute sum, which needs no keys
Level = Dict[int, Tuple[np.ndarray, Optional[np.ndarray]]]

#: the brute sum halves a level while its next step would exceed this many rows
CHUNK_ROWS = 1 << 15


def level_step(maps, inv, level: Level) -> Level:
    """The next level outward: each row at a word ending in ``p`` grows one
    child row ``maps[c][p] @ row`` for every letter c other than the inverse
    of p, by one stacked matvec per letter pair, bit for bit the point
    evaluator's product, written straight into its slice of the child array.
    A ``None`` map is zero and adds no rows.  Each child array holds its rows
    by parent letter, then parent row, along its second-to-last axis;
    leading axes are carried through."""
    feeds: Dict[int, list] = {}
    for p, (rows, keys) in level.items():
        for c, m in _children(maps, inv, p):
            feeds.setdefault(c, []).append((m, rows, keys, c if c < inv[p] else c - 1))
    grown: Level = {}
    for c, parts in feeds.items():
        lead = parts[0][1].shape[:-2]
        width = sum(rows.shape[-2] for _, rows, _, _ in parts)
        out = np.empty(lead + (width, parts[0][0].shape[0]), dtype=np.complex128)
        start = 0
        for m, rows, _, _ in parts:
            stop = start + rows.shape[-2]
            np.matmul(m, rows[..., None], out=out[..., start:stop, :, None])
            start = stop
        grown[c] = (out, None if parts[0][2] is None
                    else np.concatenate([k * (len(maps) - 1) + r for _, _, k, r in parts]))
    return grown


def _children(maps, inv, p: int):
    """The (child letter, map) pairs that a word ending in ``p`` grows."""
    for c, row_of_maps in enumerate(maps):
        m = row_of_maps[p]
        if m is not None and c != inv[p]:
            yield c, m


def _path_kernels(maps, inv, forms) -> List[List[np.ndarray]]:
    """Per last letter p and path length 0 to 3, the row-form kernels
    K = M^T B^T conj(M) of the T paths beyond p as the columns of a
    (d_p^2, T) matrix: M is the product of the maps along the path, grown one
    letter at a time, and B the form of its last letter.  A path through a
    ``None`` map has no kernel, and T may be 0."""
    kernels = []
    for p in range(len(maps)):
        d = len(forms[p])
        by_length, paths = [[forms[p].T]], [(p, np.eye(d))]
        for _ in range(3):
            paths = [(c, m @ path) for q, path in paths for c, m in _children(maps, inv, q)]
            by_length.append([path.T @ forms[c].T @ path.conj() for c, path in paths])
        kernels.append([np.array(ks, dtype=np.complex128).reshape(-1, d * d).T
                        for ks in by_length])
    return kernels


def _pair(kernels, rows) -> complex:
    """Sum of conj(g)^T K f over stacked rows of shape (2, n, d), the f block
    then the g block, and over the row-form kernels K, the columns of
    ``kernels``: the rows are summed first, into their moment F^T conj(G),
    which pairs every kernel in one product, n.d^2 + T.d^2 work for n.T terms."""
    moment = rows[0].T @ rows[1].conj()
    return (moment.reshape(-1) @ kernels).sum()


def _pair_sum(maps, inv, kernels, level: Level, rest: int) -> complex:
    """Sum conj(g)^T B f over every word ``rest`` steps beyond a level of
    stacked (f, g) rows of shape (2, n, d).  Within three steps of the
    sphere, each letter's rows pair the kernels of its paths of that length
    from :func:`_path_kernels` through one moment, one term per sphere word;
    further out the level steps outward, halved first when the next level
    would exceed ``CHUNK_ROWS`` rows."""
    if rest <= 3:
        return sum(_pair(kernels[p][rest], rows) for p, (rows, _) in level.items())
    width = sum(rows.shape[-2] for rows, _ in level.values())
    if width > 1 and width * (len(maps) - 1) > CHUNK_ROWS:
        # halve the level to bound the memory of the next step
        return sum(_pair_sum(maps, inv, kernels, {p: (part, None)}, rest)
                   for p, (rows, _) in level.items()
                   for part in np.array_split(rows, min(2, rows.shape[-2]), axis=-2))
    return _pair_sum(maps, inv, kernels, level_step(maps, inv, level), rest - 1)


def brute_pairing(space, x, f, g, m_depth: int) -> complex:
    """Literal sphere-sum pairing <pi(x) f, g> at truncation depth ``m_depth``.

    The sphere is partitioned into the cones of ``words.cone_walk``; each
    cone's (f, g) root values, read through one ``multrep.point_values``
    evaluator per vector, are stepped out in chunks towards the sphere of
    radius ``m_depth``; within three steps of it, each letter's rows are
    reduced to one moment that the path kernels, built once per call, pair,
    one term per sphere word.
    """
    from .multrep import point_values

    if m_depth < max(f.depth + len(x), g.depth):
        raise ValueError("truncation depth too small for the brute sum")
    maps, inv = space.system.maps, space.alphabet.inv
    kernels = _path_kernels(maps, inv, space.forms)
    f_at, g_at = point_values(f), point_values(g)
    total = 0.0 + 0.0j
    for roots in cone_walk(x, f.depth, g.depth):
        # every root is at most max(|x| + f.depth, g.depth) long
        rest = m_depth - len(roots[0][1])
        grouped: Dict[int, Tuple[list, list]] = {}
        for fw, gw in roots:
            fs, gs = grouped.setdefault(gw[-1], ([], []))
            fv, gv = f_at(fw), g_at(gw)
            # a zero value (None) is a zero row; both roots end in one letter
            zero = np.zeros(space.dim(gw[-1]), dtype=np.complex128)
            fs.append(zero if fv is None else fv)
            gs.append(zero if gv is None else gv)
        level = {p: (np.array(pair, dtype=np.complex128), None)
                 for p, pair in grouped.items()}
        total += _pair_sum(maps, inv, kernels, level, rest)
    return complex(total)
