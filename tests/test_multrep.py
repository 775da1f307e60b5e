import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from mbrep import _kernels, multrep
from mbrep.errors import CapExceededError, DepthError, ValidationError
from mbrep.multrep import (MultVector, RepSpace, act, coefficient, coefficients,
                           covariance_check, cylinder_op, deepen, distance, evaluate,
                           inner, norm, point_values, vadd)
from mbrep.system import MatrixSystem, normalize, spherical_system
from mbrep.words import (Alphabet, Word, ball, cone_walk, cylinder_image, multiply, sphere,
                         sphere_size)

from exact import ExactVector, exact_coefficient, exact_spherical
from helpers import (Cylinder, CrossedElement, _fast_coefficient, apply_crossed, gram_matrix,
                     random_system, random_vector, random_word, recursive_image,
                     reference_coefficient, refine)

A2 = Alphabet.rank(2)


def w(text):
    return Word.parse(A2, text)


SQ3 = 1 / np.sqrt(3)


class TestDeepen:
    def test_one_step_values(self, spherical_space, seed_a):
        f2 = deepen(seed_a, 2)
        assert abs(evaluate(f2, w("aa"))[0] - SQ3) <= 1e-14
        assert f2.values.get(w("ba")) is None

    def test_same_depth_identity(self, seed_a):
        assert deepen(seed_a, 1) is seed_a

    def test_functorial(self, seed_a):
        once = deepen(seed_a, 3)
        twice = deepen(deepen(seed_a, 2), 3)
        assert once.values.keys() == twice.values.keys()
        for k in once.values:
            assert np.allclose(once.values[k], twice.values[k])

    def test_shallower_rejected(self, seed_a):
        with pytest.raises(ValidationError):
            deepen(deepen(seed_a, 2), 1)

    @pytest.mark.parametrize("start,end", [(37, 39), (38, 40), (41, 42)])
    def test_word_indices_past_int64(self, spherical_space, start, end):
        # the rows carry their words' sphere indices, which pass 2^63 on
        # the rank-2 spheres from radius 40 on; there inner and vadd match
        # them, and cylinder_op keeps a range of them, as Python ints
        assert sphere_size(A2, 39) < 2 ** 63 < sphere_size(A2, 40)
        stem = Word.parse(A2, ("Ba" * 21)[:start])
        v = MultVector(spherical_space, start, {stem: [1.0]})
        deep = deepen(v, end)
        values = deep.values
        assert len(values) == 3 ** (end - start)
        for y, val in values.items():
            assert y.starts_with(stem)
            assert np.array_equal(val, evaluate(v, y))
        assert abs(inner(deep, deep) - inner(v, v)) <= 1e-12
        assert abs(inner(vadd(deep, v), deep) - 2 * inner(v, v)) <= 1e-12
        under = Word(A2, next(iter(values)).letters[:end - 1])
        kept = cylinder_op(under, deep)
        assert kept.depth == end
        assert list(kept.values) == [y for y in values if y.starts_with(under)]
        assert abs(inner(kept, v) - 1 / 3 ** (end - start - 1)) <= 1e-12


class TestInner:
    def test_unit_norm(self, seed_a):
        assert abs(inner(seed_a, seed_a) - 1.0) <= 1e-14

    def test_disjoint_supports(self, spherical_space):
        f = MultVector(spherical_space, 1, {w("a"): [1.0]})
        g = MultVector(spherical_space, 1, {w("b"): [1.0]})
        assert inner(f, g) == 0

    def test_depth_invariance(self, seed_a):
        shallow = inner(seed_a, seed_a)
        deep = inner(deepen(seed_a, 4), deepen(seed_a, 4))
        assert abs(shallow - deep) <= 1e-12

    def test_mixed_depth_pairs(self, seed_a):
        deep = deepen(seed_a, 3)
        assert abs(inner(seed_a, deep) - 1.0) <= 1e-12

    def test_system_mismatch_rejected(self, seed_a):
        rng = np.random.default_rng(0)
        other, _ = random_system(rng)
        g = random_vector(other, rng)
        with pytest.raises(ValidationError):
            inner(seed_a, g)


class TestAct:
    def test_identity(self, seed_a):
        assert act(w("e"), seed_a) is seed_a

    def test_shifted_value(self, spherical_space, seed_a):
        moved = act(w("a"), seed_a)
        assert moved.depth == 2
        assert abs(evaluate(moved, w("aab"))[0] - SQ3) <= 1e-14

    def test_unitary(self, seed_a):
        moved = act(w("a"), seed_a)
        assert abs(inner(moved, moved) - inner(seed_a, seed_a)) <= 1e-12

    def test_unitarity_random(self):
        rng = np.random.default_rng(17)
        space, _ = random_system(rng)
        for _ in range(20):
            f = random_vector(space, rng, unit=False)
            g = random_vector(space, rng, unit=False)
            x = random_word(space.alphabet, rng, int(rng.integers(1, 7)))
            lhs = inner(act(x, f), act(x, g))
            assert abs(lhs - inner(f, g)) <= 1e-10

    def test_composition(self, seed_a):
        x, y = w("ab"), w("Ba")
        once = act(multiply(x, y), seed_a)
        twice = act(x, act(y, seed_a))
        assert distance(once, twice) <= 1e-12

    def test_support_cap(self, seed_a):
        # the first cone of A^15, the words starting with a, holds 3^15 words at depth 16
        with pytest.raises(CapExceededError, match="action support would exceed cap"):
            act(w("A" * 15), seed_a)

    def test_support_cap_checked_before_stepping(self, seed_a, monkeypatch):
        # under this cap the first two cones of A^11, 177,147 words each, fit
        # and the third does not: no cone may be stepped out before the error
        monkeypatch.setattr(multrep, "DEFAULT_CAP", 500_000)
        tracemalloc.start()
        try:
            with pytest.raises(CapExceededError, match="exceed cap 500000"):
                act(w("A" * 11), seed_a)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_memory_bounded_by_output(self, seed_a):
        # the image of A^10, 236,193 words, is stepped out as arrays: no
        # Python object per word, so the peak stays within a few output sizes
        tracemalloc.start()
        try:
            moved = act(w("A" * 10), seed_a)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        out = sum(rows.nbytes + keys.nbytes for rows, keys in moved.level.values())
        assert peak < 3 * out


class TestCoefficient:
    def test_spherical_value(self, seed_a):
        for backend in ("fast", "brute"):
            val = coefficient(w("a"), seed_a, seed_a, backend=backend)
            assert abs(val - SQ3) <= 1e-12, backend
        assert abs(reference_coefficient(w("a"), seed_a, seed_a) - SQ3) <= 1e-12

    def test_identity_is_norm(self, seed_a):
        assert abs(coefficient(w("e"), seed_a, seed_a, backend="brute") - 1.0) <= 1e-12

    def test_disjoint_cones_vanish(self, seed_a):
        assert abs(coefficient(w("b"), seed_a, seed_a, backend="brute")) <= 1e-14

    def test_backends_agree_random(self):
        rng = np.random.default_rng(23)
        for trial in range(6):
            space, _ = random_system(rng)
            f = random_vector(space, rng, depth=1 + trial % 2)
            g = random_vector(space, rng, depth=1)
            x = random_word(space.alphabet, rng, int(rng.integers(0, 7)))
            fast = coefficient(x, f, g, backend="fast")
            brute = coefficient(x, f, g, backend="brute")
            ref = reference_coefficient(x, f, g)
            assert abs(fast - brute) <= 1e-10
            assert abs(brute - ref) <= 1e-10

    def test_brute_truncation_depth_independent(self, seed_a):
        x = w("ab")
        base = max(seed_a.depth, seed_a.depth) + len(x) + 1
        vals = [_kernels.brute_pairing(seed_a.space, x, seed_a, seed_a, base + k)
                for k in range(3)]
        assert abs(vals[0] - vals[1]) <= 1e-12
        assert abs(vals[1] - vals[2]) <= 1e-12

    def test_brute_chunked_sum_matches(self, monkeypatch):
        # a chunk bound of one row halves every level down to single rows
        # before it steps, where the whole sum steps wider levels
        widths = []
        step = _kernels.level_step

        def recording(maps, inv, level):
            widths[-1].append(sum(rows.shape[-2] for rows, _ in level.values()))
            return step(maps, inv, level)

        monkeypatch.setattr(_kernels, "level_step", recording)
        rng = np.random.default_rng(41)
        for trial in range(4):
            space, _ = random_system(rng)
            f = random_vector(space, rng, depth=1 + trial % 2)
            g = random_vector(space, rng, depth=1)
            x = random_word(space.alphabet, rng, trial + 1)
            m_depth = max(f.depth, g.depth) + len(x) + 4
            widths.append([])
            whole = _kernels.brute_pairing(space, x, f, g, m_depth)
            widths.append([])
            with monkeypatch.context() as patch:
                patch.setattr(_kernels, "CHUNK_ROWS", 1)
                split = _kernels.brute_pairing(space, x, f, g, m_depth)
            assert max(widths[-2]) > 1 and set(widths[-1]) == {1}
            assert abs(whole - split) <= 1e-13

    def test_brute_levels_stay_within_chunk_rows(self, seed_a, monkeypatch):
        # criterion 03's sweep: the sphere three steps short of |x| = 12
        # exceeds the chunk bound, yet no level the sum steps to holds more
        # than CHUNK_ROWS rows, whatever |x|
        widest = [0]
        step = _kernels.level_step

        def recording(maps, inv, level):
            grown = step(maps, inv, level)
            widest[0] = max(widest[0], sum(rows.shape[-2] for rows, _ in grown.values()))
            return grown

        monkeypatch.setattr(_kernels, "level_step", recording)
        assert sphere_size(A2, seed_a.depth + 12 + 1 - 3) > _kernels.CHUNK_ROWS
        for k in range(2, 13):
            coefficient(w(("ab" * 7)[:k]), seed_a, seed_a, backend="brute")
        assert 0 < widest[0] <= _kernels.CHUNK_ROWS

    @pytest.mark.parametrize("chunk_rows", [_kernels.CHUNK_ROWS, 1])
    def test_brute_pairing_matches_reference(self, chunk_rows, monkeypatch):
        # at the least truncation depth the cones through the end of x are
        # paired where they start; one to three deeper, the path kernels pair
        # them; four deeper, a level step comes before the kernels; a chunk
        # bound of one row also splits every level that steps
        monkeypatch.setattr(_kernels, "CHUNK_ROWS", chunk_rows)
        rests, steps = [], [0]
        pair_sum, step = _kernels._pair_sum, _kernels.level_step

        def recording(maps, inv, kernels, level, rest):
            rests.append(rest)
            return pair_sum(maps, inv, kernels, level, rest)

        def stepping(maps, inv, level):
            steps[0] += 1
            return step(maps, inv, level)

        monkeypatch.setattr(_kernels, "_pair_sum", recording)
        monkeypatch.setattr(_kernels, "level_step", stepping)
        rng = np.random.default_rng(59)
        space, _ = random_system(rng)
        # the same maps with one removed, renormalized to compatible forms
        b, a, _ = next(space.system.nonzero_pairs())
        cut = normalize(MatrixSystem(space.alphabet, space.system.dims,
                                     {(q, p): m for q, p, m in space.system.nonzero_pairs()
                                      if (q, p) != (b, a)}))
        assert cut.system.maps[b][a] is None
        for sp in (space, RepSpace(cut.system, cut.forms)):
            seen = set()
            for f_depth, g_depth, length in ((1, 1, 3), (2, 1, 2), (1, 2, 1), (1, 2, 0)):
                f = random_vector(sp, rng, depth=f_depth)
                g = random_vector(sp, rng, depth=g_depth)
                x = random_word(sp.alphabet, rng, length)
                ref = reference_coefficient(x, f, g)
                least = max(f.depth + len(x), g.depth)
                for m_depth in range(least, least + 5):
                    rests.clear()
                    steps[0] = 0
                    assert abs(_kernels.brute_pairing(sp, x, f, g, m_depth) - ref) <= 1e-12
                    assert (0 in rests) == (m_depth == least)
                    # a level steps exactly when the sum reaches a rest of 4 or more
                    assert (steps[0] > 0) == (max(rests) >= 4)
                    seen.update(min(rest, 4) for rest in rests)
            assert {1, 2, 3, 4} <= seen

    @pytest.mark.parametrize("chunk_rows", [_kernels.CHUNK_ROWS, 1])
    def test_pair_sum_matches_per_word_loop(self, chunk_rows, monkeypatch):
        # within three steps of the sphere, the moment form against pairing
        # each row with each path's kernel one by one: on a full system, on
        # one with a None map, and on a hand-built table where some letters
        # have no path of some length
        monkeypatch.setattr(_kernels, "CHUNK_ROWS", chunk_rows)

        def per_word(maps, inv, forms, level, rest):
            total, empty = 0.0 + 0.0j, set()
            for p, (rows, _) in level.items():
                ends = [(p, np.eye(rows.shape[-1]))]
                for _ in range(rest):
                    ends = [(c, maps[c][q] @ m) for q, m in ends for c in range(len(maps))
                            if c != inv[q] and maps[c][q] is not None]
                if not ends:
                    empty.add(p)
                for c, m in ends:
                    # conj(M g)^T B (M f), with f and g as rows
                    kernel = (m.conj().T @ forms[c] @ m).T
                    for f, g in zip(rows[0], rows[1]):
                        total += np.vdot(g, f @ kernel)
            return total, empty

        rng = np.random.default_rng(59)
        space, _ = random_system(rng)
        cases = [(sp.system.maps, sp.alphabet.inv, sp.forms)
                 for sp in (space, cut_space(space))]
        # a grows nothing, A only A B a, B only B a, and b every path
        dims = (2, 1, 3, 2)
        grows = {0: (), 1: (3,), 3: (0,), 2: (0, 1, 2)}
        maps = [[rng.normal(size=(dims[c], dims[p])) + 1j * rng.normal(size=(dims[c], dims[p]))
                 if c in grows[p] else None for p in range(4)] for c in range(4)]
        forms = []
        for d in dims:
            h = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            forms.append(h @ h.conj().T + np.eye(d))
        cases.append((maps, A2.inv, forms))
        for maps, inv, forms in cases:
            kernels = _kernels._path_kernels(maps, inv, forms)
            level = {}
            for p, b in enumerate(forms):
                shape = (2, int(rng.integers(1, 6)), len(b))
                level[p] = (rng.normal(size=shape) + 1j * rng.normal(size=shape), None)
            empties = set()
            for rest in range(4):
                want, empty = per_word(maps, inv, forms, level, rest)
                got = _kernels._pair_sum(maps, inv, kernels, level, rest)
                assert abs(got - want) <= 1e-12 * abs(want)
                for p in empty:
                    assert _kernels._pair_sum(maps, inv, kernels, {p: level[p]}, rest) == 0
                    empties.add((p, rest))
        # the hand-built table has letters without paths at lengths 1 to 3
        assert {(0, 1), (3, 2), (1, 3)} <= empties

    def test_fast_walk_matches_per_root_sum(self):
        # the oracle's cone sum against every root value evaluated from the
        # vector's depth along its whole root word
        def per_root(x, f, g):
            forms, alphabet = f.space.forms, f.space.alphabet
            total = 0.0 + 0.0j
            for roots in cone_walk(x, f.depth, g.depth):
                for fw, gw in roots:
                    total += np.vdot(evaluate(g, Word(alphabet, gw)),
                                     forms[fw[-1]] @ evaluate(f, Word(alphabet, fw)))
            return complex(total)

        rng = np.random.default_rng(29)
        space, _ = random_system(rng)
        # the same maps with one removed: a None map zeroes every value past it
        b, a, _ = next(space.system.nonzero_pairs())
        cut = MatrixSystem(space.alphabet, space.system.dims,
                           {(q, p): m for q, p, m in space.system.nonzero_pairs()
                            if (q, p) != (b, a)})
        for sp in (space, RepSpace(cut, space.forms, check=False)):
            for f_depth, g_depth in ((2, 2), (1, 2), (2, 1)):
                f = MultVector(sp, f_depth, random_vector(space, rng, depth=f_depth).values)
                g = MultVector(sp, g_depth, random_vector(space, rng, depth=g_depth).values)
                for length in range(1, 13):
                    x = random_word(A2, rng, length)
                    assert _fast_coefficient(x, f, g) == per_root(x, f, g), str(x)

    @pytest.mark.parametrize("rank", [2, 3])
    def test_prefix_recursion_matches_oracles(self, rank):
        # every word of a ball in one call, against the root-by-root cone sum
        # and, on a few short words, the literal sphere sum; depths up to 3
        # on either side, on a full system and on one with a map cut to None
        alphabet = Alphabet.rank(rank)
        rng = np.random.default_rng(61 + rank)
        space, _ = random_system(rng, alphabet)
        b, a, _ = next(space.system.nonzero_pairs())
        cut = normalize(MatrixSystem(alphabet, space.system.dims,
                                     {(q, p): m for q, p, m in space.system.nonzero_pairs()
                                      if (q, p) != (b, a)}))
        assert cut.system.maps[b][a] is None
        words = list(ball(alphabet, 5 if rank == 2 else 3))
        for sp in (space, RepSpace(cut.system, cut.forms)):
            for f_depth, g_depth in ((1, 1), (2, 1), (1, 3), (3, 2)):
                f = random_vector(sp, rng, depth=f_depth)
                g = random_vector(sp, rng, depth=g_depth)
                got = coefficients([x.letters for x in words], f, g)
                assert len(got) == len(words)
                for x in words:
                    want = _fast_coefficient(x, f, g)
                    assert abs(got[x.letters] - want) <= 1e-12 * abs(want), (str(x), f_depth, g_depth)
                # the sphere sums truncate deeper than the cones, so they are
                # compared relative to |f| |g| = 1, which bounds every value
                for length in range((6 if rank == 2 else 5) - max(f_depth, g_depth)):
                    x = random_word(alphabet, rng, length)
                    assert abs(coefficient(x, f, g) - reference_coefficient(x, f, g)) <= 1e-12

    def test_gram_memo_matches_double_loop(self):
        rng = np.random.default_rng(31)
        space, _ = random_system(rng)
        f = random_vector(space, rng, depth=2)
        words = list(ball(A2, 2))
        naive = np.array([[coefficient(multiply(wi.inverse(), wj), f, f) for wj in words]
                          for wi in words])
        assert np.array_equal(gram_matrix(words, f), naive)

    def test_gram_psd(self, seed_a):
        words = list(ball(A2, 2))[:8]
        g = gram_matrix(words, seed_a)
        eigs = np.linalg.eigvalsh((g + g.conj().T) / 2)
        assert eigs.min() >= -1e-8

    def test_hermitian_symmetry(self):
        rng = np.random.default_rng(5)
        space, _ = random_system(rng)
        f = random_vector(space, rng)
        x = random_word(space.alphabet, rng, 3)
        lhs = coefficient(x, f, f)
        rhs = np.conj(coefficient(x.inverse(), f, f))
        assert abs(lhs - rhs) <= 1e-10


class TestCylinderOp:
    def test_inside_cone_unchanged(self, seed_a):
        kept = cylinder_op(w("a"), seed_a)
        assert distance(kept, seed_a) <= 1e-14

    def test_disjoint_cone_zero(self, seed_a):
        assert cylinder_op(w("b"), seed_a).is_zero()

    def test_deeper_stem_mass(self, seed_a):
        kept = cylinder_op(w("aa"), seed_a)
        assert abs(inner(kept, kept) - 1 / 3) <= 1e-12

    def test_idempotent(self, seed_a):
        once = cylinder_op(w("ab"), seed_a)
        twice = cylinder_op(w("ab"), once)
        assert distance(once, twice) <= 1e-14

    def test_children_sum_to_parent(self):
        rng = np.random.default_rng(31)
        space, _ = random_system(rng)
        f = random_vector(space, rng)
        parent = cylinder_op(w("a"), f)
        total = None
        for c in ("aa", "ab", "aB"):
            piece = cylinder_op(w(c), f)
            total = piece if total is None else vadd(total, piece)
        assert distance(parent, total) <= 1e-12

    def test_self_adjoint(self):
        rng = np.random.default_rng(37)
        space, _ = random_system(rng)
        f = random_vector(space, rng)
        g = random_vector(space, rng)
        lhs = inner(cylinder_op(w("ab"), f), g)
        rhs = inner(f, cylinder_op(w("ab"), g))
        assert abs(lhs - rhs) <= 1e-12


class TestCovariance:
    def test_single_part_example(self, seed_a):
        assert covariance_check(w("a"), w("b"), seed_a) <= 1e-12

    def test_identity_element(self, seed_a):
        assert covariance_check(w("e"), w("ab"), seed_a) <= 1e-14

    def test_multi_part_example(self, seed_a):
        assert len(cylinder_image(w("a"), w("A"))) == 3
        assert covariance_check(w("a"), w("A"), seed_a) <= 1e-12

    def test_random(self):
        rng = np.random.default_rng(41)
        space, _ = random_system(rng)
        for _ in range(15):
            f = random_vector(space, rng)
            x = random_word(space.alphabet, rng, int(rng.integers(0, 4)))
            z = random_word(space.alphabet, rng, 1 + int(rng.integers(0, 3)))
            assert covariance_check(x, z, f) <= 1e-10


class TestCrossedElements:
    def test_translation_only(self, seed_a):
        e = CrossedElement.of((1.0, None, w("ab")))
        assert distance(apply_crossed(e, seed_a), act(w("ab"), seed_a)) <= 1e-14

    def test_cylinder_only(self, seed_a):
        e = CrossedElement.of((1.0, w("aa"), w("e")))
        assert distance(apply_crossed(e, seed_a), cylinder_op(w("aa"), seed_a)) <= 1e-14

    def test_refinement_cancellation(self, seed_a):
        e = CrossedElement.of(
            (1.0, w("a"), w("e")),
            (-1.0, w("aa"), w("e")),
            (-1.0, w("ab"), w("e")),
            (-1.0, w("aB"), w("e")),
        )
        assert norm(apply_crossed(e, seed_a)) <= 1e-14


class TestEvaluate:
    def test_below_depth_rejected(self, seed_a):
        deep = deepen(seed_a, 3)
        with pytest.raises(DepthError):
            evaluate(deep, w("a"))

    def test_propagation(self, seed_a):
        assert abs(evaluate(seed_a, w("aab"))[0] - 1 / 3) <= 1e-14


def literal_value(f, letters):
    """The value of f at a word by the plain chain of products from its
    table entry, the zero vector where the chain meets a zero map."""
    v = f.values.get(Word._of(f.space.alphabet, letters[:f.depth]))
    maps = f.space.system.maps
    for k in range(f.depth, len(letters)):
        m = maps[letters[k]][letters[k - 1]]
        if v is None or m is None:
            return np.zeros(f.space.dim(letters[-1]), dtype=np.complex128)
        v = m @ v
    return np.zeros(f.space.dim(letters[-1]), dtype=np.complex128) if v is None else v


def cut_space(space):
    """The same maps with one removed: a None map zeroes every value past it."""
    b, a, _ = next(space.system.nonzero_pairs())
    cut = MatrixSystem(space.alphabet, space.system.dims,
                       {(q, p): m for q, p, m in space.system.nonzero_pairs()
                        if (q, p) != (b, a)})
    return RepSpace(cut, space.forms, check=False)


class TestPointValues:
    def assert_agrees(self, f, at, letters):
        got = at(letters)
        want = evaluate(f, Word(f.space.alphabet, letters))
        assert np.array_equal(want, literal_value(f, letters))
        if got is None:
            assert not np.count_nonzero(want), letters
        else:
            assert np.array_equal(got, want), letters

    def test_matches_separate_walks(self):
        rng = np.random.default_rng(53)
        space, _ = random_system(rng)
        for sp in (space, cut_space(space)):
            for depth in (1, 2, 3):
                f = MultVector(sp, depth, random_vector(space, rng, depth=depth).values)
                at = point_values(f)
                asked = []
                for _ in range(40):
                    word = random_word(A2, rng, depth + int(rng.integers(0, 9))).letters
                    self.assert_agrees(f, at, word)
                    asked.append(word)
                # prefixes of words already asked, down to the depth, in random order
                for k in rng.permutation(len(asked)):
                    word = asked[k]
                    for n in rng.permutation(range(depth, len(word) + 1)):
                        self.assert_agrees(f, at, word[:n])
                for y in sphere(A2, depth):
                    self.assert_agrees(f, at, y.letters)

    def test_one_shared_evaluator_per_vector(self):
        # every reader gets the same evaluator, which memoizes the words it
        # returns; reads in any order, repeats included, match a fresh walk
        rng = np.random.default_rng(59)
        space, _ = random_system(rng)
        for sp in (space, cut_space(space)):
            for depth in (1, 2):
                f = MultVector(sp, depth, random_vector(space, rng, depth=depth).values)
                at = point_values(f)
                assert point_values(f) is at
                words = [random_word(A2, rng, depth + int(rng.integers(0, 7))).letters
                         for _ in range(30)]
                words += [words[k][:n] for k in range(0, 30, 3)
                          for n in range(depth, len(words[k]) + 1)]
                for k in rng.permutation(2 * len(words)):
                    self.assert_agrees(f, point_values(f), words[k % len(words)])
                deeper = deepen(f, depth + 2)
                moved = act(w("ab"), f)
                assert point_values(deeper) is not at and point_values(moved) is not at
                assert point_values(deeper) is not point_values(moved)
                for word in words[:10]:
                    word = word + (word[-1],) * 2
                    self.assert_agrees(deeper, point_values(deeper), word)
                    self.assert_agrees(moved, point_values(moved), word)

    def test_below_depth_rejected(self, seed_a):
        with pytest.raises(DepthError):
            point_values(deepen(seed_a, 3))(w("ab").letters)

    def test_word_longer_than_recursion_limit(self, seed_a):
        n = sys.getrecursionlimit() + 50
        letters = (w("a").letters * n)[:n]
        at = point_values(seed_a)
        v = at(letters)
        assert np.array_equal(v, literal_value(seed_a, letters))
        assert abs(v[0] / 3.0 ** (-(n - 1) / 2) - 1) <= 1e-9
        assert np.array_equal(at(letters[:-1]), literal_value(seed_a, letters[:-1]))

    def test_act_matches_literal_build(self):
        def literal_act(x, f):
            new_depth = f.depth + len(x)
            values = {}
            for z in f.values:
                for part in recursive_image(x, Cylinder(z)):
                    for fine in refine(part, new_depth):
                        v = literal_value(f, multiply(x.inverse(), fine.stem).letters)
                        if np.any(v != 0):
                            values[fine.stem] = v
            # in sphere order, the lexicographic order of the letters
            return dict(sorted(values.items(), key=lambda kv: kv[0].letters))

        rng = np.random.default_rng(59)
        space, _ = random_system(rng)
        for sp in (space, cut_space(space)):
            for depth in (1, 2, 3):
                f = MultVector(sp, depth, random_vector(space, rng, depth=depth).values)
                for length in range(1, 5):
                    x = random_word(A2, rng, length)
                    moved = act(x, f)
                    want = literal_act(x, f)
                    assert moved.depth == depth + length
                    got = moved.values
                    assert list(got) == list(want)
                    for y, v in want.items():
                        assert np.array_equal(got[y], v), str(y)


class TestExactMode:
    def test_spherical_square_is_one_third(self):
        system = exact_spherical(A2)
        assert system.compatibility_holds()
        one = system.forms[0][0][0]
        f = ExactVector(system, 1, {w("a"): (one,)})
        val = exact_coefficient(w("a"), f, f)
        assert val.square().as_fraction() == Fraction(1, 3)
        assert exact_coefficient(Word.identity(A2), f, f).as_fraction() == 1

    def test_matches_float_backend(self, seed_a):
        system = exact_spherical(A2)
        one = system.forms[0][0][0]
        f = ExactVector(system, 1, {w("a"): (one,)})
        for text in ("e", "a", "ab", "b"):
            ex = float(exact_coefficient(w(text), f, f))
            fl = coefficient(w(text), seed_a, seed_a, backend="brute").real
            assert abs(ex - fl) <= 1e-12
