"""Matrix systems with inner products: validation, the transfer fixed-point
normalization, radical quotients, and decomposition into form-orthogonal
subsystems that admit no further orthogonal split (irreducible when the
system is completely reducible; see ROADMAP.md, item 1).

A system assigns a vector space to every letter and a linear map to every
ordered letter pair (b, a) with ba != e; a form tuple assigns a Hermitian
matrix to every letter.  All numerics are double precision; the tolerance
ladder is: structural validation 1e-12, fixed-point residual 1e-9, subspace
invariance 1e-8.  Normalization iterates to ``NORMALIZE_TOL``, far below the
residual gate: the intertwiner checks of induction are absolute, and a
subgroup system whose fixed point is left near 1e-10 can miss them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .errors import DegenerateSystemError, NormalizationError, ValidationError
from .words import Alphabet

VALIDATION_TOL = 1e-12
FIXED_POINT_TOL = 1e-9
INVARIANCE_TOL = 1e-8
#: default fixed-point tolerance of :func:`normalize` and ``mbrep normalize``
NORMALIZE_TOL = 1e-13
#: power-iteration budget of :func:`normalize` (a tenth of it for the probe)
NORMALIZE_MAX_ITER = 100_000


class MatrixSystem:
    """Per-letter dimensions plus the transition maps between letter spaces.

    ``maps[b][a]`` is the matrix of the map from the space of ``a`` into the
    space of ``b`` (shape ``dims[b] x dims[a]``), or ``None`` for the zero
    map.  The map must be zero whenever ``b`` is the inverse of ``a``.
    """

    __slots__ = ("alphabet", "dims", "maps")

    def __init__(self, alphabet: Alphabet, dims: Sequence[int],
                 maps: Dict[Tuple[int, int], np.ndarray]):
        n = len(alphabet)
        if len(dims) != n:
            raise ValidationError(f"expected {n} dimensions, got {len(dims)}")
        self.alphabet = alphabet
        self.dims = tuple(int(d) for d in dims)
        grid: List[List[Optional[np.ndarray]]] = [[None] * n for _ in range(n)]
        for (b, a), m in maps.items():
            grid[b][a] = np.asarray(m, dtype=np.complex128)
        self.maps = grid

    def map(self, b: int, a: int) -> np.ndarray:
        """Matrix of the (b, a) map, materializing zeros."""
        m = self.maps[b][a]
        if m is None:
            return np.zeros((self.dims[b], self.dims[a]), dtype=np.complex128)
        return m

    def nonzero_pairs(self):
        for b in range(len(self.alphabet)):
            for a in range(len(self.alphabet)):
                if self.maps[b][a] is not None:
                    yield b, a, self.maps[b][a]

    def scaled(self, factor: float) -> "MatrixSystem":
        return MatrixSystem(self.alphabet, self.dims,
                            {(b, a): factor * m for b, a, m in self.nonzero_pairs()})

    def __repr__(self) -> str:
        return f"MatrixSystem(dims={self.dims})"


class FormTuple:
    """One Hermitian matrix per letter."""

    __slots__ = ("forms",)

    def __init__(self, forms: Sequence[np.ndarray]):
        self.forms = [np.asarray(f, dtype=np.complex128) for f in forms]

    def __getitem__(self, a: int) -> np.ndarray:
        return self.forms[a]

    def __len__(self) -> int:
        return len(self.forms)

    @classmethod
    def identity(cls, dims: Sequence[int]) -> "FormTuple":
        return cls([np.eye(d, dtype=np.complex128) for d in dims])

    def total_trace(self) -> float:
        return float(sum(np.trace(f).real for f in self.forms))

    def max_abs(self) -> float:
        return max((np.abs(f).max() if f.size else 0.0) for f in self.forms)

    def min_eigenvalue(self) -> float:
        vals = [np.linalg.eigvalsh(f).min() for f in self.forms if f.size]
        return float(min(vals)) if vals else 0.0


def validate(system: MatrixSystem) -> List[str]:
    """Structural diagnostics; an empty list means the system is well formed."""
    problems: List[str] = []
    alphabet = system.alphabet
    n = len(alphabet)
    names = alphabet.names
    for a in range(n):
        if system.dims[a] < 1:
            problems.append(f"letter {names[a]} has dimension {system.dims[a]}, must be positive")
    for b in range(n):
        for a in range(n):
            m = system.maps[b][a]
            if m is None:
                continue
            want = (system.dims[b], system.dims[a])
            if m.shape != want:
                problems.append(f"map ({names[b]},{names[a]}) has shape {m.shape}, expected {want}")
            if alphabet.inv[a] == b and np.abs(m).max() > VALIDATION_TOL:
                problems.append(f"map ({names[b]},{names[a]}) must vanish: the pair composes to the identity")
    return problems


def transfer_apply(system: MatrixSystem, forms: FormTuple) -> FormTuple:
    """One application of the transfer map: a -> sum_b H_ba^* B_b H_ba."""
    out = [np.zeros((d, d), dtype=np.complex128) for d in system.dims]
    for b, a, m in system.nonzero_pairs():
        fb = forms[b]
        if fb.shape != (system.dims[b], system.dims[b]):
            raise ValidationError(f"form at letter {system.alphabet.names[b]} has shape {fb.shape}")
        out[a] += m.conj().T @ fb @ m
    return FormTuple(out)


def compatibility_residual(system: MatrixSystem, forms: FormTuple) -> float:
    """Max-norm of transfer_apply(S, B) - B; zero exactly when compatible,
    and infinite when an entry of the difference is not finite."""
    image = transfer_apply(system, forms)
    res = 0.0
    for a in range(len(system.alphabet)):
        res = np.abs(image[a] - forms[a]).max(initial=res)
    return np.inf if np.isnan(res) else float(res)


def _hermitize(forms: FormTuple) -> FormTuple:
    return FormTuple([(f + f.conj().T) / 2 for f in forms.forms])


def _trace_normalize(forms: FormTuple) -> FormTuple:
    t = forms.total_trace()
    if t <= 0:
        raise DegenerateSystemError("form tuple lost all mass during iteration")
    return FormTuple([f / t for f in forms.forms])


def _tuple_dot(x: FormTuple, y: FormTuple) -> float:
    return float(sum(np.vdot(a, b).real for a, b in zip(x.forms, y.forms)))


def _max_diff(x: FormTuple, y: FormTuple) -> float:
    return max(float(np.abs(a - b).max()) if a.size else 0.0 for a, b in zip(x.forms, y.forms))


@dataclass
class NormalizationResult:
    """Scaled system together with its compatible fixed-point tuple, and the
    solver that found it: ``"power"`` iteration, or the ``"dense"`` spectral
    solve after the iteration plateaued (``iterations`` counts the power
    steps either way)."""

    system: MatrixSystem
    forms: FormTuple
    spectral_radius: float
    residual: float
    iterations: int
    degenerate: bool = False
    solver: str = "power"

    def __iter__(self):
        return iter((self.system, self.forms, self.spectral_radius))


def _power_iterate(system: MatrixSystem, start: FormTuple, tol: float,
                   max_iter: int) -> Tuple[FormTuple, float, float, int]:
    b = _trace_normalize(_hermitize(start))
    best, best_res, best_rho, stall = None, np.inf, 0.0, 0
    for it in range(1, max_iter + 1):
        tb = _hermitize(transfer_apply(system, b))
        rho = _tuple_dot(tb, b) / _tuple_dot(b, b)
        if rho <= 0 or tb.total_trace() <= 0:
            raise DegenerateSystemError("transfer map annihilated the iterate: all paths die out")
        res = _max_diff(FormTuple([f / rho for f in tb.forms]), b)
        stall = 0 if res < best_res and res <= 0.5 * best_res else stall + 1
        if res < best_res:
            best, best_res, best_rho = b, res, rho
        if res <= tol:
            return b, rho, res, it
        if stall > 200:
            # converged to the attainable floating-point plateau
            return best, best_rho, best_res, it
        b = _trace_normalize(tb)
    return best if best is not None else b, best_rho, best_res, max_iter


#: weight of the off-diagonal elements of the Hermitian basis
_HALF_ROOT = np.sqrt(0.5)


def _hermitian(x: np.ndarray, d: int) -> np.ndarray:
    """The Hermitian d x d matrix with real coordinates ``x`` (the d x d grid,
    row-major, on the last axis; leading axes are carried through) in a
    Frobenius-orthonormal basis: grid entry (s, s) is e_ss, (s, t) with
    s < t is (e_st + e_ts)/sqrt 2 and (t, s) is i (e_st - e_ts)/sqrt 2."""
    x = x.reshape(x.shape[:-1] + (d, d))
    upper = np.triu(x, 1) + 1j * np.tril(x, -1).swapaxes(-1, -2)
    return np.tril(np.triu(x)) + _HALF_ROOT * (upper + upper.conj().swapaxes(-1, -2))


def _hermitian_bases(dims: Sequence[int]) -> Tuple[List[np.ndarray], np.ndarray]:
    """Every letter's basis of :func:`_hermitian`, stacked d * d x d x d, and
    the letters' column offsets in the concatenated coordinates."""
    offsets = np.concatenate([[0], np.cumsum([d * d for d in dims])]).astype(int)
    return [_hermitian(np.eye(d * d), d) for d in dims], offsets


def _transfer_matrix(system: MatrixSystem) -> Tuple[np.ndarray, np.ndarray]:
    """Real matrix of the transfer map in the Hermitian coordinates of
    :func:`_hermitian`, with the column offsets of the letters: block (a, b)
    holds Re <P_a, H_ba^* P_b H_ba>_F over the basis elements P of letters a
    and b.  The complex tuple space is the complexification of the
    Hermitian one, so the spectrum and its multiplicities are those of the
    map on complex tuples."""
    bases, offsets = _hermitian_bases(system.dims)
    mat = np.zeros((offsets[-1], offsets[-1]))
    for b, a, m in system.nonzero_pairs():
        image = m.conj().T @ bases[b] @ m
        mat[offsets[a]:offsets[a + 1], offsets[b]:offsets[b + 1]] = np.tensordot(
            bases[a].conj(), image, axes=([1, 2], [1, 2])).real
    return mat, offsets


def _dense_fixed_point(system: MatrixSystem) -> Tuple[FormTuple, float, float, bool]:
    """The exact leading eigenpair of the transfer map: spectral projection of
    the identity tuple onto the leading eigenspace.  Covers imprimitive
    systems whose peripheral spectrum makes plain power iteration cycle."""
    matrix, offsets = _transfer_matrix(system)
    lam, vecs = np.linalg.eig(matrix)
    radius = float(np.abs(lam).max())
    if radius <= 0:
        raise DegenerateSystemError("transfer map is nilpotent: all paths die out")
    peripheral = np.abs(lam) >= radius * (1 - 1e-9)
    real_leads = lam[peripheral & (np.abs(lam.imag) <= 1e-9 * radius) & (lam.real > 0)]
    if real_leads.size == 0:
        raise NormalizationError("no positive leading transfer eigenvalue found")
    rho = float(real_leads.real.max())
    sel = np.abs(lam - rho) <= 1e-8 * radius
    identity = np.concatenate([np.eye(d).ravel() for d in system.dims])
    coords = np.linalg.solve(vecs, identity)
    proj = (vecs[:, sel] @ coords[sel]).real
    # clip roundoff negatives so the tuple is honestly positive semidefinite
    floored = []
    for x, d in zip(np.split(proj, offsets[1:-1]), system.dims):
        w, v = np.linalg.eigh(_hermitian(x, d))
        floored.append((v * np.clip(w, 0.0, None)) @ v.conj().T)
    b = _trace_normalize(FormTuple(floored))
    res = _max_diff(FormTuple([f / rho for f in transfer_apply(system, b).forms]), b)
    degenerate = int(np.sum(sel)) > 1 or int(np.sum(peripheral)) > int(np.sum(sel))
    return b, rho, res, degenerate


def normalize(system: MatrixSystem, tol: float = NORMALIZE_TOL) -> NormalizationResult:
    """Scale the system so the transfer map has spectral radius one and return
    a positive semidefinite fixed-point tuple (total trace one).

    Power iteration on the tuple space from the identity seed, with a
    Rayleigh-quotient estimate of the radius; when the iteration plateaus
    (imprimitive systems carry peripheral eigenvalues that make it cycle) the
    leading eigenpair is taken from a dense spectral solve instead.  Raises
    :class:`DegenerateSystemError` when every transfer path dies out, and
    :class:`NormalizationError` when no usable fixed point emerges.  After a
    power solve, a second iteration from a fixed start probes
    for a (near-)degenerate leading eigenvalue; degeneracy is flagged, not
    resolved.
    """
    if not any(True for _ in system.nonzero_pairs()):
        raise DegenerateSystemError("all maps are zero")
    if any(d < 1 for d in system.dims):
        raise ValidationError("dimensions must be positive to normalize")

    b, rho, res, iters = _power_iterate(system, FormTuple.identity(system.dims), tol,
                                        NORMALIZE_MAX_ITER)
    degenerate, solver = False, "power"
    if res > max(tol, 1e-10):
        b, rho, res, degenerate = _dense_fixed_point(system)
        solver = "dense"
        if res > max(tol, 1e-10):
            raise NormalizationError(
                f"no fixed point within {NORMALIZE_MAX_ITER} iterations (residual {res:.3e})",
                residual=res)
    if rho <= max(tol, 1e-12):
        raise DegenerateSystemError(f"spectral radius {rho:.3e} is numerically zero")

    if solver == "power":
        probe = FormTuple([np.eye(d) + 0.5 * _probe_psd(a, d) for a, d in enumerate(system.dims)])
        try:
            b2, rho2, res2, _ = _power_iterate(system, probe, 1e-9, NORMALIZE_MAX_ITER // 10)
            if res2 <= 1e-8 and (abs(rho2 - rho) > 1e-6 * max(1.0, rho)
                                 or _max_diff(b, b2) > 1e-6):
                degenerate = True
        except (DegenerateSystemError, NormalizationError):
            degenerate = True

    scaled = system.scaled(1.0 / np.sqrt(rho))
    final_res = compatibility_residual(scaled, b)
    return NormalizationResult(scaled, b, float(rho), float(final_res), iters, degenerate,
                               solver)


def _probe_psd(a: int, d: int) -> np.ndarray:
    """M M*/d for the degeneracy probe's start at letter ``a``, with M filled
    by a fixed closed formula that differs between letters: no generator."""
    j, k = np.indices((d, d))
    m = np.cos(1.3 * (a + 1) + 0.7 * j + 2.1 * k) + 1j * np.sin(0.9 * (a + 1) + 1.7 * j + 0.4 * k)
    return m @ m.conj().T / d


def radical_quotient(system: MatrixSystem, forms: FormTuple) -> Tuple[MatrixSystem, FormTuple]:
    """Quotient every letter space by the kernel of its form.

    Compatibility forces the kernel tuple to be an invariant subsystem, so
    the quotient maps are well defined; the induced forms are positive
    definite (or the quotient is zero-dimensional, which callers must check).
    """
    res = compatibility_residual(system, forms)
    scale = max(forms.max_abs(), 1e-30)
    if res > INVARIANCE_TOL * max(1.0, scale):
        raise ValidationError(f"forms are not compatible (residual {res:.3e})")
    n = len(system.alphabet)
    cobases: List[np.ndarray] = []
    cut = 1e-9 * max(scale, 1.0)
    for a in range(n):
        w, v = np.linalg.eigh((forms[a] + forms[a].conj().T) / 2)
        cobases.append(v[:, w > cut])
    new_dims = [q.shape[1] for q in cobases]
    new_maps = {(b, a): cobases[b].conj().T @ m @ cobases[a]
                for b, a, m in system.nonzero_pairs() if new_dims[b] and new_dims[a]}
    new_forms = FormTuple([q.conj().T @ forms[a] @ q for a, q in enumerate(cobases)])
    return MatrixSystem(system.alphabet, new_dims, new_maps), new_forms


@dataclass
class Component:
    """One summand of an orthogonal decomposition, in form-orthonormal
    coordinates.

    ``bases[a]`` has orthonormal columns with respect to the parent form
    ``B_a`` (``bases[a]^* B_a bases[a] = I``), so the restricted forms are
    identity matrices and the component maps are
    ``bases[b]^* B_b H_ba bases[a]``.
    """

    system: MatrixSystem
    forms: FormTuple
    bases: List[np.ndarray]


class Decomposition(list):
    """The components of :func:`decompose`, with the solver's decisions:
    the dimension and rank margin of the top-level commutant (see
    :func:`_null_space`) and the cluster tolerance of each split, in
    recursion order."""

    def __init__(self, components: List[Component], commutant_dim: int,
                 commutant_margin: float, cascade: List[float]):
        super().__init__(components)
        self.commutant_dim, self.commutant_margin, self.cascade = commutant_dim, commutant_margin, cascade


def _hermitian_entries(d: int) -> List[np.ndarray]:
    """The nonzero entries k, p, q, w of the basis of :func:`_hermitian`:
    element k has weight w at (p, q), at most one entry per row."""
    s, t = np.divmod(np.arange(d * d), d)
    off = np.flatnonzero(s != t)
    w = np.where(s == t, 1.0, np.where(s < t, _HALF_ROOT, -1j * _HALF_ROOT))
    return [np.concatenate(x) for x in ((np.arange(d * d), off), (s, t[off]), (t, s[off]),
                                        (w, w[off].conj()))]


def _pair_rows(system: MatrixSystem):
    """Per nonzero letter pair (b, a), the columns of letters b and a (a's
    last) and the real rows of E_b H_ba - H_ba E_a on them: Hermitian
    coordinates of :func:`_hermitian`, d * d per letter, against the real
    and then the imaginary parts of the pair's entries, row-major.  A basis
    element has at most one entry per row and column, so its products with
    H_ba are scattered entry by entry, not multiplied out."""
    dims = system.dims
    offsets = np.concatenate([[0], np.cumsum([d * d for d in dims])]).astype(int)
    entries = [_hermitian_entries(d) for d in dims]
    for b, a, m in system.nonzero_pairs():
        (kb, pb, qb, wb), (ka, pa, qa, wa) = entries[b], entries[a]
        cols = np.concatenate([np.arange(offsets[c], offsets[c + 1]) for c in dict.fromkeys((b, a))])
        left, right, ka = wb[:, None] * m[qb], m[:, pa] * wa, ka + cols.size - dims[a] ** 2
        rows = np.zeros((2, dims[b], dims[a], cols.size))
        for part, x in zip(rows, (np.real, np.imag)):
            part[pb, :, kb] = x(left)
            part[:, qa, ka] -= x(right)
        yield cols, rows.reshape(2 * m.size, cols.size)


def _null_space(blocks: Callable[[], Iterable], n: int) -> Tuple[np.ndarray, float]:
    """Orthonormal null vectors (columns) of the real matrix C with n columns
    whose row blocks ``blocks()`` yields as (columns, rows), and the rank
    margin: the least singular value kept out over the threshold.

    The rank rule counts singular values s > 1e-9 * max(1, s0), s0 the
    largest.  C is never formed: G = C^T C is summed block by block, the
    eigenvectors V_c of G with eigenvalue up to 1e-4 * s0^2 (singular value
    up to 1e-2 * s0) are the candidates, and the rule is applied to the SVD
    of C V_c, rebuilt block by block; past the cut the margin reads sqrt of
    G's eigenvalue.  The cut is safe: forming G and eigh (error |dG| <~
    5e-13 * s0^2) move a true null direction out of span(V_c) by a C-norm of
    at most about |dG| / (1e-2 * s0), at worst 5e-11 * s0, at least 20 times
    under the threshold, and typically near 1e-12 * s0."""
    gram = np.zeros((n, n))
    for cols, rows in blocks():
        gram[np.ix_(cols, cols)] += rows.T @ rows
    lam, vecs = np.linalg.eigh(gram)
    top = lam.max(initial=0.0)
    cand = vecs[:, lam <= 1e-4 * top]
    cut, thr = cand.shape[1], 1e-9 * max(1.0, np.sqrt(top))
    _, s, vt = np.linalg.svd(np.concatenate(  # zero rows: vt holds every null direction
        [np.zeros((cut, cut))] + [rows @ cand[cols] for cols, rows in blocks()]), full_matrices=False)
    rank = int(np.sum(s > thr))
    kept = s[rank - 1] if rank else np.sqrt(lam[cut]) if cut < n else np.inf
    return cand @ vt[rank:].T, float(kept / thr)


def _commutant_basis(system: MatrixSystem) -> Tuple[List[List[np.ndarray]], float]:
    """Frobenius-orthonormal real basis of the selfadjoint commutant of a
    system in form-orthonormal coordinates (identity forms), the Hermitian
    tuples with E_b H_ba = H_ba E_a, and the rank margin of :func:`_null_space`."""
    dims = system.dims
    null, margin = _null_space(lambda: _pair_rows(system), sum(d * d for d in dims))
    ends = np.cumsum([d * d for d in dims])[:-1]
    return [[_hermitian(x, d) for x, d in zip(np.split(v, ends), dims)] for v in null.T], margin


def _orthonormal_coordinates(system: MatrixSystem,
                             forms: FormTuple) -> Tuple[MatrixSystem, List[np.ndarray]]:
    """The system in form-orthonormal coordinates, with the maps taking them
    back.  With U_a = chol(B_a)^*, so that B_a = U_a^* U_a, the maps become
    U_b H_ba U_a^-1, the forms become identities, and U_a^-1 has
    B_a-orthonormal columns."""
    ups = [np.linalg.cholesky((f + f.conj().T) / 2).conj().T for f in forms.forms]
    downs = [np.linalg.inv(u) for u in ups]
    unit = MatrixSystem(system.alphabet, system.dims,
                        {(b, a): ups[b] @ m @ downs[a] for b, a, m in system.nonzero_pairs()})
    return unit, downs


def decompose(system: MatrixSystem, forms: FormTuple, seed: int = 0) -> Decomposition:
    """Split a system with a strictly positive definite compatible form tuple
    into pairwise form-orthogonal components, none of which splits further.

    The system is written once in form-orthonormal coordinates
    (:func:`_orthonormal_coordinates`), where the forms are identities and
    the form-selfadjoint commutant elements are the Hermitian tuples
    commuting with the maps, taken by :func:`_null_space` (rank rule, Gram
    cut and its bound there).  The splitting engine diagonalizes a random
    such element; its eigenspaces are invariant, mutually orthogonal, and
    carry the restricted system, again with identity forms.  Recursion
    stops when the commutant is one-dimensional.  That rules out a
    form-orthogonal split, but it certifies irreducibility only for a
    completely reducible system, and a positive definite compatible form
    does not make a system completely reducible (see ROADMAP.md, item 1).
    """
    res = compatibility_residual(system, forms)
    scale = max(forms.max_abs(), 1e-30)
    if res > max(1e-8, 1e-8 * scale):
        raise ValidationError(f"forms are not compatible (residual {res:.3e})")
    mins = forms.min_eigenvalue()
    if mins <= 1e-10 * scale:
        raise ValidationError(
            "forms are not strictly positive definite; apply radical_quotient first")

    unit, downs = _orthonormal_coordinates(system, forms)
    commutant, margin = _commutant_basis(unit)
    cascade: List[float] = []
    rng = np.random.default_rng(seed) if len(commutant) > 1 else None
    components = _decompose_rec(unit, commutant, downs, rng, cascade)
    return Decomposition(components, len(commutant), margin, cascade)


def _decompose_rec(system: MatrixSystem, commutant: List[List[np.ndarray]],
                   carried: List[np.ndarray], rng: Optional[np.random.Generator],
                   cascade: List[float]) -> List[Component]:
    n = len(system.alphabet)
    if len(commutant) <= 1:
        return [Component(system, FormTuple.identity(system.dims), carried)]

    for cluster_tol in (1e-6, 1e-8, 1e-10):
        for _ in range(5):
            coeffs = rng.normal(size=len(commutant))
            element = [sum(c * eb[a] for c, eb in zip(coeffs, commutant)) for a in range(n)]
            norm = max(max(np.abs(e).max() for e in element if e.size), 1e-30)
            element = [e / norm for e in element]
            split = _split_by_element(system, element, cluster_tol)
            if split is not None:
                cascade.append(cluster_tol)
                out: List[Component] = []
                for sub_system, sub_bases in split:
                    comp_carried = [carried[a] @ sub_bases[a] for a in range(n)]
                    out.extend(_decompose_rec(sub_system, _commutant_basis(sub_system)[0],
                                              comp_carried, rng, cascade))
                return out
    raise NormalizationError("decomposition nonconvergence (tolerance cascade exhausted)")


def _split_by_element(system: MatrixSystem, element: List[np.ndarray], cluster_tol: float):
    """Eigen-split a system with identity forms along one Hermitian commutant
    element; None if the element fails to separate or the split does not
    verify."""
    per_letter = [np.linalg.eigh(e) for e in element]
    vals = np.sort(np.concatenate([w for w, _ in per_letter]))
    breaks = np.flatnonzero(np.diff(vals) > cluster_tol)  # gaps between eigenvalue clusters
    if not breaks.size:
        return None
    bounds = zip(vals[np.r_[0, breaks + 1]] - cluster_tol / 2, vals[np.r_[breaks, -1]] + cluster_tol / 2)

    pieces = []
    for lo, hi in bounds:
        bases = [u[:, (w >= lo) & (w <= hi)] for w, u in per_letter]
        sub_dims = [q.shape[1] for q in bases]
        sub_maps = {}
        for b, a, m in system.nonzero_pairs():
            qa, qb = bases[a], bases[b]
            if qa.shape[1] == 0:
                continue
            image = m @ qa
            coords = qb.conj().T @ image
            if image.size and (np.linalg.norm(image - qb @ coords, 2)
                               > INVARIANCE_TOL * max(1.0, np.linalg.norm(m, 2))):
                return None
            if qb.shape[1]:
                sub_maps[(b, a)] = coords
        pieces.append((MatrixSystem(system.alphabet, sub_dims, sub_maps), bases))
    return pieces


def spherical_system(alphabet: Alphabet, scale: Optional[float] = None) -> Tuple[MatrixSystem, FormTuple]:
    """One-dimensional system with equal maps between all non-inverse letter
    pairs.  The default scale 1/sqrt(|A|-1) makes the identity forms
    compatible; ``scale=1.0`` gives the unscaled variant."""
    n = len(alphabet)
    if scale is None:
        scale = 1.0 / np.sqrt(n - 1)
    one = np.array([[scale]], dtype=np.complex128)
    maps = {(b, a): one.copy() for b in range(n) for a in range(n) if alphabet.inv[a] != b}
    return MatrixSystem(alphabet, [1] * n, maps), FormTuple([np.eye(1)] * n)
