import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mbrep.errors import DegenerateSystemError, ValidationError
from mbrep.induce import induce_system
from mbrep.subgroups import FiniteGroup, coset_table_from_quotient, schreier
from mbrep.system import (NORMALIZE_MAX_ITER, NORMALIZE_TOL, FormTuple, MatrixSystem,
                          _commutant_basis, _dense_fixed_point, _hermitian, _null_space,
                          _orthonormal_coordinates, _pair_rows, _power_iterate,
                          _transfer_matrix, compatibility_residual, decompose, normalize,
                          radical_quotient, spherical_system, transfer_apply, validate)
from mbrep.words import Alphabet

from helpers import (Subsystem, find_invariant_subsystem, is_psd, qr_null_space, random_system,
                     s3_quotient, subsystem_residual)

A2 = Alphabet.rank(2)
N = 4


def all_pairs_system(block_fn, dims):
    maps = {}
    for b in range(N):
        for a in range(N):
            if A2.inv[a] != b:
                maps[(b, a)] = np.asarray(block_fn(b, a), dtype=complex)
    return MatrixSystem(A2, dims, maps)


def two_block_system():
    """Direct sum of the spherical system and a phase-twisted copy; the twist
    on the a->a loop is a conjugation invariant, so the summands are not
    isomorphic."""
    s = 1 / np.sqrt(3)

    def block(b, a):
        twist = -s if (b == 0 and a == 0) else s
        return np.diag([s, twist])

    return all_pairs_system(block, [2] * N), FormTuple([np.eye(2)] * N)


def random_iso_blocks_system():
    """Two copies of the same irreducible glued by a random unitary mix."""
    rng = np.random.default_rng(12)
    s = 1 / np.sqrt(3)
    u = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))[0]
    system = all_pairs_system(lambda b, a: u @ np.diag([s, s]) @ u.conj().T, [2] * N)
    return system, FormTuple([np.eye(2)] * N)


def loops_on_a_and_A():
    """The spherical system plus the one-dimensional summands a|a = 1 on
    letter a and A|A = 1 on letter A, with identity forms: dims (2, 2, 1, 1).
    Its summands live on some letters only."""
    spherical, _ = spherical_system(A2)
    dims = (2, 2, 1, 1)
    maps = {}
    for b, a, m in spherical.nonzero_pairs():
        block = np.zeros((dims[b], dims[a]), dtype=complex)
        block[0, 0] = m[0, 0]
        if b == a and dims[a] == 2:
            block[1, 1] = 1.0
        maps[(b, a)] = block
    return MatrixSystem(A2, dims, maps), FormTuple.identity(dims)


def triangular_system():
    return all_pairs_system(lambda b, a: [[0.5, 0.3], [0.0, 0.5]], [2] * N)


def compatible_triangular_system():
    """Every allowed pair (b, a) maps by [[1/sqrt 3, beta], [0, gamma]], with
    beta 0.4, -0.4 and 0 over the successors b of a in ascending order and
    gamma = sqrt((1 - 2 * 0.4^2) / 3), so the identity forms are compatible.
    e_1 spans an invariant subsystem and its orthogonal complement does
    not: the system is reducible but not completely reducible."""
    gamma = np.sqrt((1 - 2 * 0.4 ** 2) / 3)
    maps = {}
    for a in range(N):
        successors = [b for b in range(N) if A2.inv[a] != b]
        for b, beta in zip(successors, (0.4, -0.4, 0.0)):
            maps[(b, a)] = np.array([[1 / np.sqrt(3), beta], [0.0, gamma]], dtype=complex)
    return MatrixSystem(A2, [2] * N, maps), FormTuple.identity([2] * N)


class TestValidate:
    def test_spherical_valid(self):
        system, _ = spherical_system(A2)
        assert validate(system) == []

    def test_inverse_pair_map_flagged(self):
        system, _ = spherical_system(A2)
        system.maps[1][0] = np.array([[1.0]])
        problems = validate(system)
        assert any("(A,a)" in p for p in problems)

    def test_zero_dimension_flagged(self):
        system = MatrixSystem(A2, [0, 1, 1, 1], {})
        assert any("dimension" in p for p in problems_of(system))

    def test_shape_mismatch_flagged(self):
        system, _ = spherical_system(A2)
        system.maps[0][2] = np.ones((2, 2), dtype=complex)
        assert any("shape" in p for p in validate(system))


def problems_of(system):
    return validate(system)


class TestTransfer:
    def test_spherical_fixed_point(self):
        system, forms = spherical_system(A2)
        out = transfer_apply(system, forms)
        for a in range(N):
            assert abs(out[a][0, 0] - 1.0) < 1e-14

    def test_unscaled_triples(self):
        system, forms = spherical_system(A2, scale=1.0)
        out = transfer_apply(system, forms)
        for a in range(N):
            assert abs(out[a][0, 0] - 3.0) < 1e-14

    def test_zero_maps_give_zero(self):
        system = MatrixSystem(A2, [1] * N, {})
        out = transfer_apply(system, FormTuple([np.eye(1)] * N))
        assert all(abs(out[a][0, 0]) == 0 for a in range(N))

    def test_preserves_psd_cone(self):
        rng = np.random.default_rng(42)
        space, _ = random_system(rng)
        system = space.system
        for _ in range(200):
            forms = []
            for d in system.dims:
                m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
                forms.append(m @ m.conj().T)
            out = transfer_apply(system, FormTuple(forms))
            for a in range(N):
                assert np.linalg.eigvalsh(out[a]).min() >= -1e-10

    def test_linear_in_forms(self):
        rng = np.random.default_rng(1)
        system, _ = spherical_system(A2)
        f1 = FormTuple([np.array([[rng.normal()]]) for _ in range(N)])
        f2 = FormTuple([np.array([[rng.normal()]]) for _ in range(N)])
        lhs = transfer_apply(system, FormTuple([f1[a] + 2 * f2[a] for a in range(N)]))
        rhs1 = transfer_apply(system, f1)
        rhs2 = transfer_apply(system, f2)
        for a in range(N):
            assert np.allclose(lhs[a], rhs1[a] + 2 * rhs2[a])


class TestNormalize:
    def test_spherical_unscaled(self):
        system, _ = spherical_system(A2, scale=1.0)
        result = normalize(system)
        assert abs(result.spectral_radius - 3.0) <= 1e-9
        assert result.residual <= 1e-9
        for a in range(N):
            assert abs(result.forms[a][0, 0] - 0.25) <= 1e-10
            assert abs(result.system.map(0, 2)[0, 0] - 1 / np.sqrt(3)) <= 1e-10
        assert not result.degenerate

    def test_already_compatible(self):
        system, _ = spherical_system(A2)
        result = normalize(system)
        assert abs(result.spectral_radius - 1.0) <= 1e-9

    def test_zero_maps_degenerate(self):
        with pytest.raises(DegenerateSystemError):
            normalize(MatrixSystem(A2, [1] * N, {}))

    def test_scale_equivariance(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            dims = [int(rng.integers(1, 4)) for _ in range(N)]
            maps = {}
            for b in range(N):
                for a in range(N):
                    if A2.inv[a] != b:
                        maps[(b, a)] = rng.normal(size=(dims[b], dims[a])) + 0j
            system = MatrixSystem(A2, dims, maps)
            c = 2.5
            scaled = system.scaled(c)
            r1 = normalize(system)
            r2 = normalize(scaled)
            assert abs(r2.spectral_radius - c * c * r1.spectral_radius) <= 1e-6 * r2.spectral_radius
            for b in range(N):
                for a in range(N):
                    assert np.allclose(r1.system.map(b, a), r2.system.map(b, a), atol=1e-9)
            for a in range(N):
                assert np.allclose(r1.forms[a], r2.forms[a], atol=1e-9)

    def test_outputs_psd_and_compatible(self):
        rng = np.random.default_rng(100)
        for _ in range(20):
            space, result = random_system(rng)
            assert result.residual <= 1e-9
            assert is_psd(result.forms, 1e-10)
            assert compatibility_residual(result.system, result.forms) <= 1e-9

    def test_degeneracy_flagged_for_equal_radius_blocks(self):
        system, _ = two_block_system()
        result = normalize(system)
        assert result.degenerate


class TestCompatibilityResidual:
    def test_compatible_pair(self):
        system, forms = spherical_system(A2)
        assert compatibility_residual(system, forms) <= 1e-12

    def test_doubled_letter(self):
        system, forms = spherical_system(A2)
        bad = FormTuple([forms[a] * (2.0 if a == 0 else 1.0) for a in range(N)])
        # letter a feeds three targets; doubling it perturbs their pullbacks
        assert compatibility_residual(system, bad) > 0.1

    def test_nan_map_is_not_compatible(self):
        system, forms = spherical_system(A2)
        maps = {(b, a): m for b, a, m in system.nonzero_pairs()}
        maps[(0, 0)] = np.array([[np.nan]])
        assert not compatibility_residual(MatrixSystem(A2, system.dims, maps), forms) <= 1


class TestRadicalQuotient:
    def test_strictly_pd_unchanged(self):
        system, forms = spherical_system(A2)
        q, qf = radical_quotient(system, forms)
        assert q.dims == system.dims
        assert compatibility_residual(q, qf) <= 1e-12

    def test_null_summand_removed(self):
        s = 1 / np.sqrt(3)
        system = all_pairs_system(lambda b, a: np.diag([s, s]), [2] * N)
        forms = FormTuple([np.diag([1.0, 0.0]) + 0j] * N)
        assert compatibility_residual(system, forms) <= 1e-12
        q, qf = radical_quotient(system, forms)
        assert q.dims == (1, 1, 1, 1)
        assert compatibility_residual(q, qf) <= 1e-12
        assert qf.min_eigenvalue() > 0.5

    def test_zero_forms_give_zero_quotient(self):
        system, _ = spherical_system(A2)
        zero = FormTuple([np.zeros((1, 1))] * N)
        q, _ = radical_quotient(system, zero)
        assert q.dims == (0, 0, 0, 0)

    def test_incompatible_forms_rejected(self):
        system, forms = spherical_system(A2)
        bad = FormTuple([forms[a] * (3.0 if a == 0 else 1.0) for a in range(N)])
        with pytest.raises(ValidationError):
            radical_quotient(system, bad)

    def test_kernel_is_invariant(self):
        # the compatibility identity forces maps to preserve form kernels
        s = 1 / np.sqrt(3)
        system = all_pairs_system(lambda b, a: np.diag([s, s]), [2] * N)
        forms = FormTuple([np.diag([1.0, 0.0]) + 0j] * N)
        for b in range(N):
            for a in range(N):
                m = system.maps[b][a]
                if m is None:
                    continue
                kernel = np.array([0.0, 1.0])
                image = m @ kernel
                assert abs(np.vdot(image, forms[b] @ image)) <= 1e-12


class TestInvariantSubsystems:
    def test_spherical_none_found(self):
        system, _ = spherical_system(A2)
        assert find_invariant_subsystem(system, seed=0) is None

    def test_two_block_found(self):
        system, _ = two_block_system()
        sub = find_invariant_subsystem(system, seed=3)
        assert sub is not None
        assert 0 < sub.total_dim() < 8
        assert subsystem_residual(system, sub) <= 1e-8

    def test_triangular_finds_only_invariant_axis(self):
        system = triangular_system()
        sub = find_invariant_subsystem(system, seed=1)
        assert sub is not None
        assert subsystem_residual(system, sub) <= 1e-8
        for q in sub.bases:
            assert q.shape[1] == 1
            assert abs(abs(q[0, 0]) - 1.0) <= 1e-8  # the first coordinate axis

    def test_triangular_complement_not_invariant(self):
        system = triangular_system()
        complement = Subsystem([np.array([[0.0], [1.0]], dtype=complex)] * N)
        assert subsystem_residual(system, complement) > 0.1

    def test_compatible_triangular_has_trivial_commutant(self):
        # reducible, yet its selfadjoint commutant is the scalars
        system, forms = compatible_triangular_system()
        assert compatibility_residual(system, forms) <= 1e-15
        axis = Subsystem([np.array([[1.0], [0.0]], dtype=complex)] * N)
        complement = Subsystem([np.array([[0.0], [1.0]], dtype=complex)] * N)
        assert subsystem_residual(system, axis) == 0
        assert abs(subsystem_residual(system, complement) - 0.4) <= 1e-15
        assert len(_commutant_basis(system)[0]) == 1


class TestDecompose:
    def test_spherical_single_component(self):
        system, forms = spherical_system(A2)
        comps = decompose(system, forms)
        assert len(comps) == 1
        assert comps[0].system.dims == (1, 1, 1, 1)

    def test_two_block_splits(self):
        system, forms = two_block_system()
        comps = decompose(system, forms, seed=5)
        assert len(comps) == 2
        assert sorted(sum(c.system.dims) for c in comps) == [4, 4]
        assert sum(sum(c.system.dims) for c in comps) == 8
        # components are orthogonal in the form metric
        for a in range(N):
            q1, q2 = comps[0].bases[a], comps[1].bases[a]
            assert np.abs(q1.conj().T @ forms[a] @ q2).max() <= 1e-8

    def test_two_block_components_recover_the_blocks(self):
        system, forms = two_block_system()
        comps = decompose(system, forms, seed=5)
        axes = set()
        for comp in comps:
            q = comp.bases[0]
            axes.add(int(np.argmax(np.abs(q[:, 0]))))
        assert axes == {0, 1}

    def test_random_iso_blocks_split(self):
        # the splitter must still find a two-way orthogonal decomposition
        comps = decompose(*random_iso_blocks_system(), seed=2)
        assert len(comps) == 2

    def test_crafted_irreducible_2dim(self):
        rng = np.random.default_rng(21)
        space, _ = random_system(rng, max_dim=2)
        system, forms = space.system, space.forms
        comps = decompose(system, forms, seed=3)
        assert len(comps) == 1
        assert find_invariant_subsystem(system, seed=9) is None
        assert _projective_grid_oracle(system) is None

    def test_requires_strictly_pd(self):
        system, _ = spherical_system(A2)
        with pytest.raises(ValidationError):
            decompose(system, FormTuple([np.zeros((1, 1))] * N))

    def test_zero_dimensional_letters(self):
        system, forms = loops_on_a_and_A()
        comps = decompose(system, forms)
        # the order is that of the eigenvalues of a random commutant element
        assert sorted(c.system.dims for c in comps) == [(0, 1, 0, 0), (1, 0, 0, 0), (1, 1, 1, 1)]
        assert comps.commutant_dim == 3
        for comp in comps:
            assert subsystem_residual(system, Subsystem(comp.bases)) <= 1e-12
        # an empty letter at the top level: the loop summand on its own
        loop = MatrixSystem(A2, (1, 0, 0, 0), {(0, 0): np.eye(1)})
        comps = decompose(loop, FormTuple.identity(loop.dims))
        assert [c.system.dims for c in comps] == [(1, 0, 0, 0)]
        assert comps.commutant_dim == 1 and comps.cascade == []


def _block_diag(blocks):
    out = np.zeros((sum(m.shape[0] for m in blocks), sum(m.shape[1] for m in blocks)),
                   dtype=complex)
    r = c = 0
    for m in blocks:
        out[r:r + m.shape[0], c:c + m.shape[1]] = m
        r, c = r + m.shape[0], c + m.shape[1]
    return out


def _random_unitary(rng, d):
    return np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))[0]


def _random_irreducible(rng):
    dims = [int(d) for d in rng.integers(1, 3, size=N)]
    maps = {(b, a): rng.normal(size=(dims[b], dims[a])) + 1j * rng.normal(size=(dims[b], dims[a]))
            for b in range(N) for a in range(N) if A2.inv[a] != b}
    result = normalize(MatrixSystem(A2, dims, maps))
    return result.system, result.forms


@pytest.mark.parametrize("summand", [False, True])
@pytest.mark.parametrize("k", [1, 2, 3])
@settings(max_examples=5, derandomize=True, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_decompose_multiplicity_fuzz(seed, k, summand):
    """k copies of a random irreducible, mixed by a random unitary per
    letter, plus optionally an inequivalent irreducible: the commutant has
    dimension k^2 (+1), and decompose returns every copy."""
    rng = np.random.default_rng(seed)
    base = _random_irreducible(rng)
    parts = [base] * k + ([_random_irreducible(rng)] if summand else [])
    dims = tuple(sum(p.dims[a] for p, _ in parts) for a in range(N))
    mix = [_random_unitary(rng, d) for d in dims]
    maps = {(b, a): mix[b] @ _block_diag([p.map(b, a) for p, _ in parts]) @ mix[a].conj().T
            for b in range(N) for a in range(N) if A2.inv[a] != b}
    system = MatrixSystem(A2, dims, maps)
    forms = FormTuple([mix[a] @ _block_diag([f[a] for _, f in parts]) @ mix[a].conj().T
                       for a in range(N)])
    comps = decompose(system, forms, seed=seed)
    assert comps.commutant_dim == k * k + summand
    assert sorted(c.system.dims for c in comps) == sorted(p.dims for p, _ in parts)
    for comp in comps:
        euclidean = [np.linalg.qr(q)[0] for q in comp.bases]
        assert subsystem_residual(system, Subsystem(euclidean)) <= 1e-8


def induced_through(group, images, sub_system, sub_forms):
    data = schreier(coset_table_from_quotient(A2, group, images))
    system, forms, _ = induce_system(sub_system, sub_forms, data)
    return system, forms


def cyclic3_induced_system():
    """A seeded random rank-4 system with dims (1, 2, 2, 1, 1, 2, 2, 1),
    normalized and induced through the cyclic quotient a -> 1, b -> 0 of
    order 3: dims (15, 12, 4, 5)."""
    rng = np.random.default_rng(11)
    alphabet = Alphabet.rank(4)
    dims = (1, 2, 2, 1, 1, 2, 2, 1)
    maps = {(b, a): rng.normal(size=(dims[b], dims[a])) + 1j * rng.normal(size=(dims[b], dims[a]))
            for b in range(8) for a in range(8) if alphabet.inv[a] != b}
    result = normalize(MatrixSystem(alphabet, dims, maps))
    return induced_through(FiniteGroup.cyclic(3), {A2.letter("a"): 1, A2.letter("b"): 0},
                           result.system, result.forms)


def s3_induced_system():
    """The spherical rank-7 system induced through S3: dims (12, 12, 30, 30)."""
    return induced_through(*s3_quotient(A2), *spherical_system(Alphabet.rank(7)))


def hermitian_basis(d):
    """The Frobenius-orthonormal basis of the d x d Hermitian matrices in
    the order of the constraint columns: grid entry (s, s) is e_ss, (s, t)
    with s < t is (e_st + e_ts)/sqrt 2 and (t, s) is i(e_st - e_ts)/sqrt 2."""
    c = np.sqrt(0.5)
    for s in range(d):
        for t in range(d):
            e = np.zeros((d, d), dtype=np.complex128)
            if s == t:
                e[s, s] = 1.0
            elif s < t:
                e[s, t] = e[t, s] = c
            else:
                e[t, s], e[s, t] = 1j * c, -1j * c
            yield e


def constraint_columns(system):
    """The commutant constraint matrix of a system with identity forms one
    column at a time: each Hermitian basis element of each letter, pushed
    through every E_b H_ba - H_ba E_a, real parts of the rows over
    imaginary parts."""
    dims = system.dims
    for c, d in enumerate(dims):
        for e in hermitian_basis(d):
            es = [e if k == c else np.zeros((dk, dk), dtype=np.complex128)
                  for k, dk in enumerate(dims)]
            rows = np.concatenate([(es[b] @ m - m @ es[a]).ravel()
                                   for b, a, m in system.nonzero_pairs()])
            yield np.concatenate([rows.real, rows.imag])


def stacked_pair_rows(system):
    """The per-pair blocks of :func:`_pair_rows` stacked into the whole
    constraint matrix: real rows of every pair over imaginary rows."""
    blocks = list(_pair_rows(system))
    nr = sum(len(rows) // 2 for _, rows in blocks)
    mat = np.zeros((2 * nr, sum(d * d for d in system.dims)))
    row = 0
    for cols, rows in blocks:
        half = len(rows) // 2
        mat[row:row + half, cols] = rows[:half]
        mat[nr + row:nr + row + half, cols] = rows[half:]
        row += half
    return mat


class TestCommutantConstraints:
    @pytest.mark.parametrize("build", [cyclic3_induced_system, s3_induced_system])
    def test_assembly_matches_columns(self, build):
        unit, _ = _orthonormal_coordinates(*build())
        mat = stacked_pair_rows(unit)
        count = 0
        for j, col in enumerate(constraint_columns(unit)):
            assert np.array_equal(mat[:, j], col), f"column {j}"
            count += 1
        assert count == mat.shape[1]

    def test_coordinates_match_basis(self):
        for d in range(4):
            for k, e in enumerate(hermitian_basis(d)):
                x = np.zeros(d * d)
                x[k] = 1.0
                assert np.array_equal(_hermitian(x, d), e)

    def test_cyclic3_shape(self):
        system, forms = cyclic3_induced_system()
        assert system.dims == (15, 12, 4, 5)
        unit, _ = _orthonormal_coordinates(system, forms)
        assert stacked_pair_rows(unit).shape == (1792, 410)

    def test_commutant_never_holds_the_constraint_matrix(self):
        # the dense 1792 x 410 float64 constraint matrix alone is 5.9 MB
        unit, _ = _orthonormal_coordinates(*cyclic3_induced_system())
        tracemalloc.start()
        try:
            _commutant_basis(unit)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1792 * 410 * 8


#: singular values planted below the top one s0, as multiples of s0: the
#: first three lie under the threshold 1e-9 * max(1, s0), the rest over it
PLANTED = (0.0, 1e-13, 1e-10, 1e-8, 1e-6, 1e-3)


def planted_matrix(rng, rows, cols, s0):
    """C = U diag(s) V^T with singular values s0, the PLANTED multiples of
    s0, and the rest drawn from [0.1, 1] * s0."""
    k = min(rows, cols)
    s = np.concatenate([[s0], rng.uniform(0.1, 1.0, k - 1 - len(PLANTED)) * s0,
                        np.array(PLANTED) * s0])
    u = np.linalg.qr(rng.normal(size=(rows, k)))[0]
    v = np.linalg.qr(rng.normal(size=(cols, k)))[0]
    return (u * s) @ v.T


class TestNullSpace:
    @pytest.mark.parametrize("rows, cols, cuts", [
        (60, 24, (5, 6, 31)), (24, 24, (23,)), (17, 24, (2, 11)), (8, 24, (3,)),
    ], ids=["tall", "square", "wide", "fewer-rows-than-candidates"])
    @pytest.mark.parametrize("s0", [0.5, 40.0])
    @pytest.mark.parametrize("seed", range(3))
    def test_planted_spectrum_matches_qr_rule(self, rows, cols, cuts, s0, seed):
        mat = planted_matrix(np.random.default_rng(seed), rows, cols, s0)
        every = np.arange(cols)
        null, margin = _null_space(lambda: ((every, b) for b in np.split(mat, cuts)), cols)
        want = qr_null_space(mat)
        assert null.shape == want.shape == (cols, 3 + max(0, cols - rows))
        assert np.abs(null.T @ null - np.eye(null.shape[1])).max() <= 1e-12
        # C moves the returned directions by at most the planted 1e-10 * s0
        assert np.linalg.norm(mat @ null, 2) <= 1.01e-10 * s0
        # sines of the principal angles between the two null spaces.  The
        # planted 1e-10 and 1e-8 lie only 1e-8 * s0 apart, so rounding of
        # about eps * s0 fixes either null space only to about 2e-8: over
        # 100 seeds the QR oracle strays up to 1.5e-8 from the planted one
        sines = np.linalg.svd(want - null @ (null.T @ want), compute_uv=False)
        assert np.arcsin(min(sines.max(), 1.0)) <= 5e-8
        # the least singular value kept out is the planted 1e-8 * s0
        expected = 1e-8 * s0 / (1e-9 * max(1.0, s0))
        assert abs(margin - expected) <= 1e-6 * expected


def hermitian_coordinates(forms):
    """The real coordinates of a Hermitian tuple against
    :func:`hermitian_basis`, letter after letter."""
    return np.concatenate([[np.vdot(e, f).real for e in hermitian_basis(len(f))]
                           for f in forms.forms])


def random_complex_system(rng, dims, missing=0):
    """Unnormalized random complex maps on every allowed pair of A2, with
    ``missing`` of them dropped at random."""
    maps = {(b, a): rng.normal(size=(dims[b], dims[a])) + 1j * rng.normal(size=(dims[b], dims[a]))
            for b in range(N) for a in range(N) if A2.inv[a] != b}
    for _ in range(missing):
        keys = sorted(maps)
        del maps[keys[int(rng.integers(len(keys)))]]
    return MatrixSystem(A2, dims, maps)


class TestDenseTransfer:
    @pytest.mark.parametrize("build", [
        lambda: cyclic3_induced_system()[0],
        lambda: random_complex_system(np.random.default_rng(4), (2, 3, 1, 2), missing=1),
    ], ids=["cyclic3", "random-missing-map"])
    def test_columns_match_transfer_apply(self, build):
        system = build()
        mat, _ = _transfer_matrix(system)
        dims = system.dims
        j = 0
        for c, d in enumerate(dims):
            for e in hermitian_basis(d):
                tuple_ = FormTuple([e if k == c else np.zeros((dk, dk)) for k, dk in enumerate(dims)])
                want = hermitian_coordinates(transfer_apply(system, tuple_))
                assert np.abs(mat[:, j] - want).max() <= 1e-14 * max(1.0, np.abs(want).max())
                j += 1
        assert mat.shape == (j, j)

    @pytest.mark.parametrize("seed", range(20))
    def test_dense_fixed_point_matches_power(self, seed):
        rng = np.random.default_rng(seed)
        dims = tuple(int(d) for d in rng.integers(1, 5, size=N))
        system = random_complex_system(rng, dims, missing=int(seed % 3 == 0))
        power, rho_power, res, _ = _power_iterate(system, FormTuple.identity(dims),
                                                  NORMALIZE_TOL, NORMALIZE_MAX_ITER)
        assert res <= 1e-10
        dense, rho_dense, _, degenerate = _dense_fixed_point(system)
        assert not degenerate
        assert abs(rho_dense - rho_power) <= 1e-10 * rho_power
        for f, g in zip(dense.forms, power.forms):
            assert np.abs(f - g).max() <= 1e-10


def old_constraint_matrix(system, forms):
    """The commutant constraints before the change to form-orthonormal
    coordinates: unknowns are the real and then the imaginary parts of the
    row-major entries of every E_a, rows the real and then the imaginary
    parts of every E_b H_ba - H_ba E_a and B_a E_a - E_a^* B_a."""
    dims = system.dims
    offsets = np.concatenate([[0], np.cumsum([d * d for d in dims])]).astype(int)
    nc = int(offsets[-1])
    pairs = list(system.nonzero_pairs())
    nr = sum(dims[b] * dims[a] for b, a, _ in pairs) + sum(d * d for d in dims)
    mat = np.zeros((2 * nr, 2 * nc))
    quadrants = (mat[:nr, :nc], mat[:nr, nc:], mat[nr:, :nc], mat[nr:, nc:])

    def blocks(row, rows, col):
        d = dims[col]
        return [qd[row:row + rows[0] * rows[1], offsets[col]:offsets[col + 1]]
                .reshape(rows + (d, d), copy=False) for qd in quadrants]

    def put(views, index, coeff, conj=False):
        tl, tr, bl, br = (v[index] for v in views)
        tl += coeff.real
        bl += coeff.imag
        if conj:
            tr += coeff.imag
            br -= coeff.real
        else:
            tr -= coeff.imag
            br += coeff.real

    row = 0
    for b, a, m in pairs:
        rows = (dims[b], dims[a])
        on_b = blocks(row, rows, b)
        for p in range(dims[b]):
            put(on_b, (p, slice(None), p, slice(None)), m.T)
        on_a = blocks(row, rows, a)
        for q in range(dims[a]):
            put(on_a, (slice(None), q, slice(None), q), -m)
        row += rows[0] * rows[1]
    for a, f in enumerate(forms.forms):
        views = blocks(row, (dims[a], dims[a]), a)
        for q in range(dims[a]):
            put(views, (slice(None), q, slice(None), q), f)
        for p in range(dims[a]):
            put(views, (p, slice(None), slice(None), p), -f.T, conj=True)
        row += dims[a] * dims[a]
    return mat


#: what :func:`old_commutant_dim` gives on the S3 induced system; its thin
#: SVD of a 14,112 x 4,176 matrix takes about a minute and over a gigabyte
OLD_S3_COMMUTANT_DIM = 1


def old_commutant_dim(system, forms, null_tol=1e-9):
    """Null-space dimension of :func:`old_constraint_matrix` under the same
    rank rule, from its thin SVD."""
    mat = old_constraint_matrix(system, forms)
    _, s, vt = np.linalg.svd(mat, full_matrices=False)
    rank = int(np.sum(s > null_tol * max(1.0, s[0] if len(s) else 1.0)))
    return vt.shape[0] - rank


@pytest.mark.parametrize("build", [cyclic3_induced_system, s3_induced_system, two_block_system,
                                   random_iso_blocks_system, lambda: spherical_system(A2)],
                         ids=["cyclic3", "s3", "two-block", "random-iso-blocks", "spherical"])
def test_commutant_matches_old_formulation(build):
    system, forms = build()
    unit, downs = _orthonormal_coordinates(system, forms)
    commutant, _ = _commutant_basis(unit)
    old_dim = OLD_S3_COMMUTANT_DIM if build is s3_induced_system else old_commutant_dim(system, forms)
    assert len(commutant) == old_dim
    ups = [np.linalg.inv(d) for d in downs]
    for tuple_ in commutant:
        es = [down @ k @ up for down, k, up in zip(downs, tuple_, ups)]
        for b, a, m in system.nonzero_pairs():
            scale = np.linalg.norm(m) * max(np.linalg.norm(es[b]), np.linalg.norm(es[a]))
            assert np.linalg.norm(es[b] @ m - m @ es[a]) <= 1e-12 * scale
        for e, f in zip(es, forms.forms):
            scale = np.linalg.norm(f) * np.linalg.norm(e)
            assert np.linalg.norm(f @ e - e.conj().T @ f) <= 1e-12 * scale


def _projective_grid_oracle(system, steps=16):
    """Exhaustive search for a one-dimensional-per-letter invariant family by
    propagating grid lines; None when no candidate survives."""
    n = len(system.alphabet)
    for theta in np.linspace(0, np.pi / 2, steps):
        for phi in np.linspace(0, 2 * np.pi, steps, endpoint=False):
            v = np.array([np.cos(theta), np.exp(1j * phi) * np.sin(theta)])
            for a0 in range(n):
                if system.dims[a0] != 2:
                    continue
                bases = [np.zeros((system.dims[c], 0), dtype=complex) for c in range(n)]
                bases[a0] = v.reshape(-1, 1)
                ok = True
                frontier = [(a0, v)]
                letters_seen = {a0}
                while frontier and ok:
                    a, vec = frontier.pop()
                    for b in range(n):
                        m = system.maps[b][a]
                        if m is None:
                            continue
                        image = m @ vec
                        if np.linalg.norm(image) < 1e-10:
                            continue
                        image = image / np.linalg.norm(image)
                        if b in letters_seen:
                            current = bases[b][:, 0]
                            if abs(abs(np.vdot(current, image)) - 1.0) > 1e-8:
                                ok = False
                                break
                        else:
                            letters_seen.add(b)
                            bases[b] = image.reshape(-1, 1)
                            frontier.append((b, image))
                if ok and 0 < sum(q.shape[1] for q in bases) < sum(system.dims):
                    sub = Subsystem(bases)
                    if subsystem_residual(system, sub) <= 1e-8:
                        return sub
    return None
