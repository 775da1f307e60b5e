"""Sphere propagation by levels, and the brute-force sphere pairing.

A level holds the values of a function on one word sphere, grouped by the
last letter of the word: one array per letter whose rows (the trailing axis
is the letter's space) are the values at the words ending in it.
``level_step`` moves a level one step outward with one matmul per (parent,
child) letter pair; ``multrep.deepen`` and ``brute_pairing`` both propagate
through it.

The literal inner-product sum over a whole word sphere is the package's
exponential inner loop.  ``brute_pairing`` seeds each geodesic cone of
``multrep.cone_walk`` with the (f, g) values at its roots and steps those
pairs out to the truncation sphere.  It is the independent oracle for the
cone-collapsed ``fast`` backend.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

#: a level: last letter -> (rows, keys), where keys names each row's word as
#: a letter tuple, or is None when the caller does not track words
Level = Dict[int, Tuple[np.ndarray, Optional[List[Tuple[int, ...]]]]]

#: the brute sum halves a level while its next step would exceed this many rows
CHUNK_ROWS = 1 << 18


def level_step(maps, inv, level: Level) -> Level:
    """The next level outward: each row at a word ending in ``p`` grows one
    child row ``maps[c][p] @ row`` for every letter c other than the inverse
    of p.  A ``None`` map is zero and adds no rows.  Each child array holds
    its rows by parent letter, then parent row; rows of any leading shape
    go through one 2-D matmul per letter pair.
    """
    grown: Dict[int, list] = {}
    for p, (rows, keys) in level.items():
        flat = rows.reshape(-1, rows.shape[-1])
        for c, row_of_maps in enumerate(maps):
            m = row_of_maps[p]
            if m is None or c == inv[p]:
                continue
            child = (flat @ m.T).reshape(rows.shape[:-1] + (m.shape[0],))
            grown.setdefault(c, []).append(
                (child, None if keys is None else [k + (c,) for k in keys]))
    return {c: (np.concatenate([r for r, _ in parts]),
                None if parts[0][1] is None else [k for _, ks in parts for k in ks])
            for c, parts in grown.items()}


def _pair_sum(maps, inv, forms, level: Level, rest: int) -> complex:
    """Sum conj(g)^T B f over every word ``rest`` steps beyond a level of
    stacked (f, g) rows, each of shape (2, d)."""
    if rest == 0:
        return sum(np.einsum("ni,ij,nj->", rows[:, 1].conj(), forms[p], rows[:, 0])
                   for p, (rows, _) in level.items())
    width = sum(len(rows) for rows, _ in level.values())
    if width > 1 and width * (len(maps) - 1) > CHUNK_ROWS:
        # split the level to bound the memory of the next step
        total = 0.0 + 0.0j
        for p, (rows, _) in level.items():
            half = len(rows) // 2
            for part in ((rows[:half], rows[half:]) if half else (rows,)):
                total += _pair_sum(maps, inv, forms, {p: (part, None)}, rest)
        return total
    return _pair_sum(maps, inv, forms, level_step(maps, inv, level), rest - 1)


def brute_pairing(space, x, f, g, m_depth: int) -> complex:
    """Literal sphere-sum pairing <pi(x) f, g> at truncation depth ``m_depth``.

    The sphere is partitioned into the cones of ``multrep.cone_walk``; each
    cone's (f, g) root values are stepped out to the sphere of radius
    ``m_depth`` and paired there.
    """
    from .multrep import cone_walk, evaluate

    if m_depth < max(f.depth + len(x), g.depth):
        raise ValueError("truncation depth too small for the brute sum")
    maps = space.system.maps
    inv = space.alphabet.inv
    forms = space.forms
    total = 0.0 + 0.0j
    for roots in cone_walk(x, f.depth, g.depth):
        # every root is at most max(|x| + f.depth, g.depth) long
        rest = m_depth - len(roots[0][1])
        grouped: Dict[int, list] = {}
        for fw, gw in roots:
            grouped.setdefault(gw.last(), []).append((evaluate(f, fw), evaluate(g, gw)))
        level = {p: (np.array(pairs, dtype=np.complex128), None)
                 for p, pairs in grouped.items()}
        total += _pair_sum(maps, inv, forms, level, rest)
    return complex(total)
