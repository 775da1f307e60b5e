"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -v -s tests/test_acceptance.py`` to see the lines; every
tolerance is pinned here, not configurable.
"""

import time
from fractions import Fraction

import numpy as np
import pytest

from mbrep import _kernels, fileio
from mbrep.boundary_measure import (herz_check, no_harish_chandra_demo,
                                    quasi_regular_coefficient, spectral_measure)
from mbrep.induce import (InducedVector, induce_system, induced_action,
                          induced_boundary_op, induced_inner, intertwiner_J)
from mbrep.multrep import (MultVector, RepSpace, act, coefficient,
                           covariance_check, cylinder_op, deepen, distance, inner)
from mbrep.subgroups import FiniteGroup, coset_table_from_quotient, schreier
from mbrep.system import (FormTuple, MatrixSystem, compatibility_residual,
                          decompose, normalize, spherical_system, validate)
from mbrep.vfree import induce_to_vf, psl2z_datum, vf_gram, vf_validate
from mbrep.words import Alphabet, Word, ball, cylinder_image, multiply, sphere, sphere_size

from exact import ExactVector, exact_coefficient, exact_spherical
from helpers import (find_invariant_subsystem, gram_matrix, random_system, random_vector,
                     random_word)

A2 = Alphabet.rank(2)


def w(text):
    return Word.parse(A2, text)


def report(number, name, passed, detail=""):
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {number:02d} {status} {name}" + (f" ({detail})" if detail else ""))
    assert passed, f"criterion {number}: {name} ({detail})"


@pytest.fixture(scope="module")
def system_pool():
    rng = np.random.default_rng(1000)
    return [random_system(rng)[0] for _ in range(8)]


def test_criterion_01_fixed_points():
    rng = np.random.default_rng(501)
    worst = 0.0
    min_eig = 0.0
    elapsed = 0.0
    for _ in range(50):
        dims = [int(rng.integers(1, 4)) for _ in range(4)]
        maps = {}
        for b in range(4):
            for a in range(4):
                if A2.inv[a] != b:
                    maps[(b, a)] = (rng.normal(size=(dims[b], dims[a]))
                                    + 1j * rng.normal(size=(dims[b], dims[a])))
        system = MatrixSystem(A2, dims, maps)
        t0 = time.perf_counter()
        result = normalize(system)
        elapsed += time.perf_counter() - t0
        worst = max(worst, result.residual)
        min_eig = min(min_eig, result.forms.min_eigenvalue())
    report(1, "transfer fixed points on 50 random systems",
           worst <= 1e-9 and min_eig >= -1e-10 and elapsed < 5.0,
           f"worst residual {worst:.2e}, min form eigenvalue {min_eig:.2e}, {elapsed:.2f}s")


def test_criterion_02_spherical_constants(seed_a):
    system, _ = spherical_system(A2, scale=1.0)
    result = normalize(system)
    ok_rho = abs(result.spectral_radius - 3.0) <= 1e-9

    val = coefficient(w("a"), seed_a, seed_a, backend="fast")
    ok_float = abs(val - 3 ** -0.5) <= 1e-12

    exact_system = exact_spherical(A2)
    one = exact_system.forms[0][0][0]
    f = ExactVector(exact_system, 1, {w("a"): (one,)})
    exact_val = exact_coefficient(w("a"), f, f)
    ok_exact = (exact_system.compatibility_holds()
                and exact_val.square().as_fraction() == Fraction(1, 3))
    report(2, "spherical constants (radius 3, coefficient 3^-1/2, exact square 1/3)",
           ok_rho and ok_float and ok_exact,
           f"rho {result.spectral_radius:.12f}, coefficient {val.real:.12f}")


def test_criterion_03_backend_equivalence_and_scaling(system_pool, seed_a, monkeypatch):
    rng = np.random.default_rng(502)
    worst = 0.0
    trials = 0
    while trials < 200:
        space = system_pool[trials % len(system_pool)]
        f = random_vector(space, rng, depth=1 + trials % 2)
        g = random_vector(space, rng, depth=1)
        x = random_word(space.alphabet, rng, int(rng.integers(0, 7)))
        fast = coefficient(x, f, g, backend="fast")
        brute = coefficient(x, f, g, backend="brute")
        worst = max(worst, abs(fast - brute))
        trials += 1
    ok_equiv = worst <= 1e-10

    # scaling sweep: the literal sum pairs exactly one term per word of its
    # truncation sphere, counted as the rows its pairing primitive takes, so
    # its work grows 3x per letter; the cone-collapsed backend's time grows
    # at most linearly, each time the best of a few runs, so load from other
    # processes does not decide the ratio
    def best_time(x, backend, reps):
        best = np.inf
        for _ in range(reps):
            t0 = time.perf_counter()
            coefficient(x, seed_a, seed_a, backend=backend)
            best = min(best, time.perf_counter() - t0)
        return best

    paired = [0]
    pair = _kernels._pair

    def counting(kernels, rows):
        paired[0] += rows.shape[-2] * kernels.shape[-1]
        return pair(kernels, rows)

    lengths = list(range(2, 13))
    terms, fast_t = {}, {}
    for k in lengths:
        x = Word.parse(A2, ("ab" * 7)[:k])
        paired[0] = 0
        with monkeypatch.context() as patch:
            patch.setattr(_kernels, "_pair", counting)
            coefficient(x, seed_a, seed_a, backend="brute")
        terms[k] = paired[0]
        fast_t[k] = best_time(x, "fast", 5)
    ok_brute = all(terms[k] == sphere_size(A2, seed_a.depth + k + 1) for k in lengths)
    geo_ratio = (terms[12] / terms[8]) ** 0.25
    lin_ratio = fast_t[12] / max(fast_t[2], 1e-9)
    ok_fast = lin_ratio <= 30.0
    report(3, "backend equivalence and runtime scaling",
           ok_equiv and ok_brute and ok_fast,
           f"worst diff {worst:.2e}, brute terms equal sphere sizes {ok_brute}, "
           f"brute step ratio {geo_ratio:.2f}, fast 12:2 ratio {lin_ratio:.1f}")


def test_criterion_04_unitarity_and_positivity(system_pool):
    rng = np.random.default_rng(503)
    worst_unitary = 0.0
    for trial in range(100):
        space = system_pool[trial % len(system_pool)]
        f = random_vector(space, rng)
        g = random_vector(space, rng)
        x = random_word(space.alphabet, rng, int(rng.integers(1, 7)))
        defect = abs(inner(act(x, f), act(x, g)) - inner(f, g))
        worst_unitary = max(worst_unitary, defect)
    ok_unitary = worst_unitary <= 1e-10

    worst_eig = 0.0
    for trial in range(10):
        space = system_pool[trial % len(system_pool)]
        f = random_vector(space, rng)
        words = [random_word(space.alphabet, rng, int(rng.integers(0, 4)))
                 for _ in range(8)]
        gram = gram_matrix(words, f)
        scale = max(1.0, float(np.abs(gram).max()))
        eig = float(np.linalg.eigvalsh((gram + gram.conj().T) / 2).min())
        worst_eig = min(worst_eig, eig / scale)
    ok_psd = worst_eig >= -1e-8
    report(4, "unitarity and positive-definiteness",
           ok_unitary and ok_psd,
           f"worst unitarity defect {worst_unitary:.2e}, worst Gram eigenvalue {worst_eig:.2e}")


def test_criterion_05_boundary_covariance(system_pool):
    rng = np.random.default_rng(504)
    worst = 0.0
    multi_part = 0
    for trial in range(100):
        space = system_pool[trial % len(system_pool)]
        f = random_vector(space, rng)
        z = random_word(space.alphabet, rng, 1 + int(rng.integers(0, 3)))
        if trial % 5 == 0:
            # force a multi-part translated cylinder by full cancellation
            extra = random_word(space.alphabet, rng, int(rng.integers(0, 2)))
            x = multiply(extra, z.inverse())
        else:
            x = random_word(space.alphabet, rng, int(rng.integers(0, 4)))
        if len(cylinder_image(x, z)) > 1:
            multi_part += 1
        worst = max(worst, covariance_check(x, z, f))
    report(5, "boundary covariance identity",
           worst <= 1e-10 and multi_part >= 10,
           f"worst defect {worst:.2e}, {multi_part} multi-part cases")


def _two_block():
    s = 1 / np.sqrt(3)
    maps = {}
    for b in range(4):
        for a in range(4):
            if A2.inv[a] != b:
                twist = -s if (b == 0 and a == 0) else s
                maps[(b, a)] = np.diag([s, twist]).astype(complex)
    return MatrixSystem(A2, [2] * 4, maps), FormTuple([np.eye(2)] * 4)


def test_criterion_06_decomposition():
    system, forms = _two_block()
    comps = decompose(system, forms, seed=7)
    ok_count = len(comps) == 2
    ok_dims = sum(sum(c.system.dims) for c in comps) == sum(system.dims)
    ok_irreducible = all(find_invariant_subsystem(c.system, seed=5) is None
                         for c in comps)

    space = RepSpace(system, forms)
    seed_vec = MultVector(space, 1, {w("a"): np.array([1.0, 1.0]) / np.sqrt(2)})
    comp_vectors = []
    for comp in comps:
        comp_space = RepSpace(comp.system, comp.forms)
        values = {}
        for word, v in seed_vec.values.items():
            q = comp.bases[word.last()]
            coords = q.conj().T @ forms[word.last()] @ v
            values[word] = coords
        comp_vectors.append(MultVector(comp_space, seed_vec.depth, values))
    worst = 0.0
    for word in ball(A2, 4):
        total = sum(coefficient(word, fv, fv) for fv in comp_vectors)
        direct = coefficient(word, seed_vec, seed_vec)
        worst = max(worst, abs(total - direct))
    report(6, "orthogonal decomposition into irreducible components",
           ok_count and ok_dims and ok_irreducible and worst <= 1e-9,
           f"{len(comps)} components, coefficient reassembly defect {worst:.2e}")


def _index2_setup(images):
    table = coset_table_from_quotient(A2, FiniteGroup.cyclic(2), images)
    data = schreier(table)
    sub_system, sub_forms = spherical_system(data.subgroup_alphabet)
    ind_system, ind_forms, layout = induce_system(sub_system, sub_forms, data)
    return data, RepSpace(sub_system, sub_forms), RepSpace(ind_system, ind_forms), layout


def test_criterion_07_induction():
    data, sub_space, ind_space, layout = _index2_setup({0: 1, 2: 0})
    ok_dims = (ind_space.system.dims == (4, 4, 2, 2)
               and sum(ind_space.system.dims) == data.index * len(data.generator_words))
    res = compatibility_residual(ind_space.system, ind_space.forms)
    ok_compat = res <= 1e-9 and validate(ind_space.system) == []

    rng = np.random.default_rng(506)
    worst_inner = worst_act = worst_bdry = 0.0
    ambient_words = [word for r in (1, 2) for word in sphere(A2, r)]
    for trial in range(50):
        blocks = {}
        for u in range(data.index):
            vals = {}
            for word in sphere(sub_space.alphabet, 1):
                d = sub_space.dim(word.last())
                vals[word] = rng.normal(size=d) + 1j * rng.normal(size=d)
            blocks[u] = MultVector(sub_space, 1, vals)
        f = InducedVector(data, sub_space, blocks)
        g_blocks = {u: MultVector(sub_space, 1, {
            word: rng.normal(size=sub_space.dim(word.last()))
            + 1j * rng.normal(size=sub_space.dim(word.last()))
            for word in sphere(sub_space.alphabet, 1)}) for u in range(data.index)}
        g = InducedVector(data, sub_space, g_blocks)
        jf = intertwiner_J(f, layout, ind_space)
        jg = intertwiner_J(g, layout, ind_space)
        worst_inner = max(worst_inner, abs(inner(jf, jg) - induced_inner(f, g)))
        x = random_word(A2, rng, 1)
        lhs = intertwiner_J(induced_action(x, f), layout, ind_space)
        rhs = act(x, jf)
        d = max(lhs.depth, rhs.depth)
        worst_act = max(worst_act, distance(deepen(lhs, d), deepen(rhs, d)))
        z = ambient_words[int(rng.integers(4 if trial % 5 else len(ambient_words)))]
        lhsb = intertwiner_J(induced_boundary_op(f, z), layout, ind_space)
        rhsb = cylinder_op(z, jf)
        d = max(lhsb.depth, rhsb.depth)
        worst_bdry = max(worst_bdry, distance(deepen(lhsb, d), deepen(rhsb, d)))
    report(7, "finite-index induction with unitary intertwiner",
           ok_dims and ok_compat and worst_inner <= 1e-10
           and worst_act <= 1e-10 and worst_bdry <= 1e-10,
           f"forms residual {res:.2e}, J defects {worst_inner:.2e}/"
           f"{worst_act:.2e}/{worst_bdry:.2e}")


def _component_fingerprints(ind_space, seed):
    """Sorted absolute trace-coefficient profile of each component over the
    radius-4 ball; sorting removes the letter relabeling that connects the
    two subgroups."""
    comps = decompose(ind_space.system, ind_space.forms, seed=seed)
    ball_words = list(ball(A2, 4))
    prints = []
    for comp in comps:
        comp_space = RepSpace(comp.system, comp.forms)
        seeds = []
        for a in range(4):
            for i in range(comp.system.dims[a]):
                letter_word = Word(A2, (a,))
                vec = np.zeros(comp.system.dims[a], dtype=complex)
                vec[i] = 1.0
                seeds.append(MultVector(comp_space, 1, {letter_word: vec}))
        values = []
        for word in ball_words:
            tau = sum(coefficient(word, s, s) for s in seeds)
            values.append(abs(tau))
        prints.append((sum(comp.system.dims), np.sort(np.array(values))))
    return prints


def test_criterion_08_independence_of_subgroup():
    _, _, ind1, _ = _index2_setup({0: 1, 2: 0})
    _, _, ind2, _ = _index2_setup({0: 0, 2: 1})
    p1 = _component_fingerprints(ind1, seed=11)
    p2 = _component_fingerprints(ind2, seed=13)
    ok = len(p1) == len(p2)
    detail = f"{len(p1)} vs {len(p2)} components"
    if ok:
        used = set()
        worst = 0.0
        for dim1, v1 in p1:
            best, best_k = np.inf, None
            for k, (dim2, v2) in enumerate(p2):
                if k in used or dim1 != dim2:
                    continue
                d = float(np.abs(v1 - v2).max())
                if d < best:
                    best, best_k = d, k
            if best_k is None or best > 1e-8:
                ok = False
                break
            used.add(best_k)
            worst = max(worst, best)
        detail = f"{len(p1)} components, worst matched profile gap {worst:.2e}"
    report(8, "induced class independent of the chosen subgroup", ok, detail)


def test_criterion_09_virtually_free():
    datum = psl2z_datum()
    problems = vf_validate(datum)
    ok_valid = problems == []

    system, forms = spherical_system(datum.basis_alphabet)
    space = RepSpace(system, forms)
    a_word = Word.parse(datum.basis_alphabet, "a")
    rng = np.random.default_rng(507)
    blocks = {0: MultVector(space, 1, {a_word: [1.0]}),
              2: random_vector(space, rng)}

    def coeff(word, u, v):
        return coefficient(word, u, v, backend="fast")

    elements = datum.group.ball(3)
    gram = vf_gram(datum, elements, blocks)
    scale = max(1.0, float(np.abs(gram).max()))
    eig = float(np.linalg.eigvalsh((gram + gram.conj().T) / 2).min())
    ok_psd = eig >= -1e-8 * scale

    single = {0: blocks[0]}
    lam = datum.group.parse("srsrr")
    via = induce_to_vf(datum, coeff, lam, single)
    direct = coefficient(a_word, single[0], single[0])
    ok_eu = abs(via - direct) <= 1e-10
    report(9, "virtually free datum, induced positivity, evaluation identity",
           ok_valid and ok_psd and ok_eu,
           f"ball size {len(elements)}, min Gram eigenvalue {eig:.2e}, "
           f"evaluation defect {abs(via - direct):.2e}")


def test_criterion_10_majorization(system_pool, seed_a):
    eq = herz_check(seed_a, w("a"), 2)
    ok_equality = (eq.passed and abs(eq.lhs - 3 ** -0.5) <= 1e-12
                   and abs(eq.rhs - 3 ** -0.5) <= 1e-12)

    rng = np.random.default_rng(508)
    data, sub_space, ind_space, layout = _index2_setup({0: 1, 2: 0})
    spaces = [seed_a.space] + system_pool[:4] + [ind_space]
    trials = 0
    failures = 0
    worst_monotone = 0.0
    while trials < 300:
        space = spaces[trials % len(spaces)]
        v = random_vector(space, rng)
        mu = spectral_measure(v)
        for _ in range(3):
            x = random_word(A2, rng, 1 + int(rng.integers(0, 4)))
            res = herz_check(v, x, len(x) + 1, mu=mu)
            if not res.passed:
                failures += 1
            if trials % 3 == 0:
                phi1 = quasi_regular_coefficient(mu, x, len(x) + 1)
                phi2 = quasi_regular_coefficient(mu, x, len(x) + 2)
                worst_monotone = max(worst_monotone, phi2 - phi1)
            trials += 1
    report(10, "majorization by the quasi-regular coefficient",
           ok_equality and failures == 0 and worst_monotone <= 1e-12,
           f"{trials} trials, {failures} failures, worst monotonicity defect "
           f"{worst_monotone:.2e}")


def test_criterion_11_measure_must_depend_on_vector(seed_a):
    mu = spectral_measure(seed_a)
    rows = no_harish_chandra_demo(mu, w("a"), 6)
    phis = [phi for _, _, phi in rows]
    ok = all(phi < 1.0 for phi in phis) and all(b < a for a, b in zip(phis, phis[1:]))
    report(11, "no representation-independent majorizing measure",
           ok, "phi(a^n) = " + ", ".join(f"{p:.4f}" for p in phis))
