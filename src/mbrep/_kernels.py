"""Hot kernel for the brute-force sphere pairing.

The literal inner-product sum over a whole word sphere is the package's
exponential inner loop.  ``brute_pairing`` evaluates it with numpy: it
splits the sphere by where each word leaves the geodesic of the acting word
and grows each branch level by level, one batched matmul per letter pair.
It is the independent oracle for the cone-collapsed ``fast`` backend.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np


def pack_system(system, forms) -> Tuple[np.ndarray, np.ndarray, int]:
    """Pad the ragged per-letter maps/forms into dense arrays.

    Padding is exact: spurious rows/columns are zero, so padded matvecs agree
    with the unpadded ones.
    """
    n = len(system.alphabet)
    dmax = max(system.dims) if system.dims else 0
    h = np.zeros((n, n, dmax, dmax), dtype=np.complex128)
    bmat = np.zeros((n, dmax, dmax), dtype=np.complex128)
    for b, a, m in system.nonzero_pairs():
        h[b, a, : m.shape[0], : m.shape[1]] = m
    for a in range(n):
        f = forms[a]
        bmat[a, : f.shape[0], : f.shape[1]] = f
    return h, bmat, dmax


def _expand_pairing_numpy(n, inv, h, bmat, seeds, rest, chunk=1 << 18):
    """Sum conj(g)^T B f over all non-backtracking tails of length ``rest``
    grown from (letter, fvec, gvec) seeds; seeds at the same tree level."""
    total = 0.0 + 0.0j
    # group seeds by last letter
    by_letter = {}
    for last, fv, gv in seeds:
        by_letter.setdefault(last, []).append((fv, gv))
    frontier = {}
    for last, pairs in by_letter.items():
        fmat = np.array([p[0] for p in pairs], dtype=np.complex128)
        gmat = np.array([p[1] for p in pairs], dtype=np.complex128)
        frontier[last] = (fmat, gmat)

    def reduce_frontier(front):
        s = 0.0 + 0.0j
        for last, (fmat, gmat) in front.items():
            s += np.einsum("ni,ij,nj->", gmat.conj(), bmat[last], fmat)
        return s

    def grow(front, levels):
        if levels == 0:
            return reduce_frontier(front)
        width = sum(fm.shape[0] for fm, _ in front.values())
        if width * (n - 1) > chunk and width > 1:
            # split the frontier and recurse to bound memory
            s = 0.0 + 0.0j
            for last, (fmat, gmat) in front.items():
                half = fmat.shape[0] // 2
                if half == 0:
                    s += grow({last: (fmat, gmat)}, levels)
                else:
                    s += grow({last: (fmat[:half], gmat[:half])}, levels)
                    s += grow({last: (fmat[half:], gmat[half:])}, levels)
            return s
        nxt = {}
        for last, (fmat, gmat) in front.items():
            for c in range(n):
                if c == inv[last]:
                    continue
                step = h[c, last].T
                fnew = fmat @ step
                gnew = gmat @ step
                if c in nxt:
                    of, og = nxt[c]
                    nxt[c] = (np.vstack([of, fnew]), np.vstack([og, gnew]))
                else:
                    nxt[c] = (fnew, gnew)
        return grow(nxt, levels - 1)

    if frontier:
        total += grow(frontier, rest)
    return total


def brute_pairing(space, x, f, g, m_depth: int) -> complex:
    """Literal sphere-sum pairing <pi(x) f, g> at truncation depth ``m_depth``.

    The sphere is partitioned by the longest common prefix with ``x``; each
    part is seeded at the depth where both vectors have values and then
    expanded by ``_expand_pairing_numpy``.
    """
    from .multrep import evaluate
    from .words import Word, multiply

    system = space.system
    alphabet = system.alphabet
    n = len(alphabet)
    h, bmat, dmax = space.padded()
    df, dg = f.depth, g.depth
    if m_depth < max(df + len(x), dg):
        raise ValueError("truncation depth too small for the brute sum")
    xinv = np.array(x.inverse().letters, dtype=np.int64)

    xl = x.letters
    lx = len(xl)
    total = 0.0 + 0.0j
    xinv_letters = tuple(int(t) for t in xinv)
    for i in range(lx + 1):
        for c in range(n):
            if i < lx and c == xl[i]:
                continue
            if i > 0 and c == alphabet.inv[xl[i - 1]]:
                continue
            if i == lx and lx > 0 and c == alphabet.inv[xl[lx - 1]]:
                continue
            froot = Word(alphabet, xinv_letters[: lx - i] + (c,))
            groot = Word(alphabet, xl[:i] + (c,))
            warm = max(0, df - len(froot), dg - len(groot))
            rest = m_depth - len(groot) - warm
            if rest < 0:
                raise ValueError("truncation depth too small for the brute sum")
            seeds = []
            stack = [(froot, groot)]
            for _ in range(warm):
                nxt = []
                for fw, gw in stack:
                    last = fw.last()
                    for d in range(n):
                        if d == alphabet.inv[last]:
                            continue
                        nxt.append((multiply(fw, Word(alphabet, (d,))),
                                    multiply(gw, Word(alphabet, (d,)))))
                stack = nxt
            for fw, gw in stack:
                fv = evaluate(f, fw)
                gv = evaluate(g, gw)
                fpad = np.zeros(dmax, dtype=np.complex128)
                gpad = np.zeros(dmax, dtype=np.complex128)
                fpad[: fv.shape[0]] = fv
                gpad[: gv.shape[0]] = gv
                seeds.append((fw.last(), fpad, gpad))
            total += _expand_pairing_numpy(n, np.array(alphabet.inv), h, bmat, seeds, rest)
    return complex(total)

