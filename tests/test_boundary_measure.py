import numpy as np
import pytest

from mbrep.boundary_measure import (herz_check, no_harish_chandra_demo,
                                    quasi_regular_coefficient, spectral_measure,
                                    uniform_measure)
from mbrep.errors import ValidationError
from mbrep.multrep import (MultVector, RepSpace, cylinder_op, deepen, evaluate, inner,
                           vscale)
from mbrep.system import MatrixSystem
from mbrep.words import Alphabet, Word, ball, sphere

from helpers import (additivity_defect, hellinger_oracle, point_mass, random_system,
                     random_vector, random_word, uniform_mass)

A2 = Alphabet.rank(2)
SQ3 = 1 / np.sqrt(3)


def w(text):
    return Word.parse(A2, text)


class TestSpectralMeasure:
    def test_seed_cylinder_masses(self, seed_a):
        mu = spectral_measure(seed_a)
        assert abs(mu(w("a")) - 1.0) <= 1e-12
        assert mu(w("b")) <= 1e-14
        for text in ("aa", "ab", "aB"):
            assert abs(mu(w(text)) - 1 / 3) <= 1e-12

    def test_total_is_norm(self, seed_a):
        mu = spectral_measure(seed_a)
        assert abs(mu.total - inner(seed_a, seed_a).real) <= 1e-12
        assert abs(mu(w("e")) - mu.total) == 0

    def test_zero_vector(self, spherical_space):
        from mbrep.multrep import zero_vector

        mu = spectral_measure(zero_vector(spherical_space))
        assert mu.total == 0.0
        assert mu(w("ab")) == 0.0

    def test_additivity_exhaustive(self, seed_a):
        mu = spectral_measure(seed_a)
        for depth in range(1, 5):
            for stem in sphere(A2, depth):
                assert additivity_defect(mu, stem) <= 1e-10

    def test_additivity_random_system(self):
        rng = np.random.default_rng(3)
        space, _ = random_system(rng)
        v = random_vector(space, rng, depth=2)
        mu = spectral_measure(v)
        for depth in (1, 2, 3):
            for stem in sphere(A2, depth):
                assert additivity_defect(mu, stem) <= 1e-10
        assert abs(sum(mu(s) for s in sphere(A2, 1)) - mu.total) <= 1e-10


class TestUniformMeasure:
    def test_masses(self):
        mu = uniform_measure(A2)
        assert abs(mu(w("a")) - 0.25) <= 1e-15
        assert abs(mu(w("ab")) - 0.25 / 3) <= 1e-15
        assert abs(mu.total - 1.0) == 0

    def test_additive(self):
        mu = uniform_measure(A2)
        for stem in ball(A2, 3):
            if not stem.is_identity():
                assert additivity_defect(mu, stem) <= 1e-15


class TestQuasiRegular:
    def test_spherical_equality_case(self, seed_a):
        mu = spectral_measure(seed_a)
        assert abs(quasi_regular_coefficient(mu, w("a"), 2) - SQ3) <= 1e-12

    def test_identity_gives_total(self, seed_a):
        mu = spectral_measure(seed_a)
        for depth in (1, 2, 3):
            assert abs(quasi_regular_coefficient(mu, w("e"), depth) - mu.total) <= 1e-12

    def test_depth_monotone(self, seed_a):
        mu = spectral_measure(seed_a)
        for text in ("a", "ab", "B"):
            x = w(text)
            prev = None
            for depth in range(len(x) + 1, len(x) + 4):
                phi = quasi_regular_coefficient(mu, x, depth)
                if prev is not None:
                    assert phi <= prev + 1e-12
                prev = phi

    def test_depth_monotone_random(self):
        rng = np.random.default_rng(7)
        space, _ = random_system(rng)
        v = random_vector(space, rng)
        mu = spectral_measure(v)
        for _ in range(10):
            x = random_word(A2, rng, int(rng.integers(1, 4)))
            n0 = len(x) + 1
            vals = [quasi_regular_coefficient(mu, x, n) for n in range(n0, n0 + 3)]
            assert vals[1] <= vals[0] + 1e-12
            assert vals[2] <= vals[1] + 1e-12

    def test_depth_too_small_rejected(self, seed_a):
        mu = spectral_measure(seed_a)
        with pytest.raises(ValidationError):
            quasi_regular_coefficient(mu, w("ab"), 2)

    @pytest.mark.parametrize("name", ["depth-1", "depth-2", "seed-a", "none-map",
                                      "uniform-2", "uniform-3"])
    def test_matches_stem_loop(self, name, seed_a):
        # the block sums over the mass arrays against the literal loop over
        # stems, whose masses are read one stem at a time
        mu, mass, radius = _oracle_inputs(name, seed_a)
        for x in ball(mu.alphabet, radius):
            for depth in range(len(x) + 1, len(x) + 4):
                got = quasi_regular_coefficient(mu, x, depth)
                want = hellinger_oracle(mass, mu.alphabet, x, depth)
                assert abs(got - want) <= 1e-13 * want, (str(x), depth, got, want)

    def test_symmetry_for_spherical(self, seed_a):
        # the seed measure is supported on one cone, so symmetry holds for
        # the uniform (reversible) measure instead
        mu = uniform_measure(A2)
        for text in ("a", "ab", "ba"):
            x = w(text)
            lhs = quasi_regular_coefficient(mu, x, len(x) + 1)
            rhs = quasi_regular_coefficient(mu, x.inverse(), len(x) + 1)
            assert abs(lhs - rhs) <= 1e-12


def _cut_space(space):
    """The same maps with one removed: a None map grows no rows."""
    b, a, _ = next(space.system.nonzero_pairs())
    cut = MatrixSystem(space.alphabet, space.system.dims,
                       {(q, p): m for q, p, m in space.system.nonzero_pairs() if (q, p) != (b, a)})
    return RepSpace(cut, space.forms, check=False)


def _oracle_inputs(name, seed_a):
    """(measure, stem-by-stem mass, radius) of one input of the Hellinger
    oracle test; the rank-3 ball stops at radius 2, where the stem loop
    still takes well under a second."""
    rng = np.random.default_rng(29)
    if name.startswith("uniform"):
        alphabet = Alphabet.rank(int(name[-1]))
        return uniform_measure(alphabet), uniform_mass(alphabet), 3 if len(alphabet) == 4 else 2
    if name == "seed-a":
        v = seed_a
    else:
        space, _ = random_system(rng)
        depth = 2 if name == "depth-2" else 1
        v = random_vector(space, rng, depth=depth)
        if name == "none-map":
            v = MultVector(_cut_space(space), 1, v.values)
    return spectral_measure(v), point_mass(v), 3


class TestHerz:
    def test_spherical_equality(self, seed_a):
        res = herz_check(seed_a, w("a"), 2)
        assert res.passed
        assert abs(res.lhs - SQ3) <= 1e-12
        assert abs(res.rhs - SQ3) <= 1e-12

    def test_identity(self, seed_a):
        res = herz_check(seed_a, w("e"), 1)
        assert res.passed
        assert abs(res.lhs - 1.0) <= 1e-12
        assert abs(res.rhs - 1.0) <= 1e-12

    def test_random_trials(self):
        rng = np.random.default_rng(11)
        space, _ = random_system(rng, max_dim=2)
        for _ in range(20):
            v = random_vector(space, rng)
            x = random_word(A2, rng, int(rng.integers(1, 5)))
            res = herz_check(v, x, len(x) + 1)
            assert res.passed, (str(x), res)

    def test_shared_measure_changes_no_result(self):
        rng = np.random.default_rng(5)
        space, _ = random_system(rng)
        v = random_vector(space, rng)
        shared = spectral_measure(v)
        for x in ball(A2, 3):
            n = len(x) + 1
            res = herz_check(v, x, n, mu=shared)
            ref = herz_check(v, x, n)
            assert res.lhs == ref.lhs and res.rhs == ref.rhs, str(x)

    def test_incremental_deepen_is_bit_identical(self):
        # a table deepened in stages or at once is one table, and its values
        # are the point evaluator's, which cylinder_op reads
        rng = np.random.default_rng(5)
        space, _ = random_system(rng)
        # the same maps with one removed: a None map grows no rows
        b, a, _ = next(space.system.nonzero_pairs())
        cut = MatrixSystem(space.alphabet, space.system.dims,
                           {(q, p): m for q, p, m in space.system.nonzero_pairs()
                            if (q, p) != (b, a)})
        values = random_vector(space, rng).values
        for sp in (space, RepSpace(cut, space.forms, check=False)):
            v = MultVector(sp, 1, values)
            # each read of values decodes the level, so read it once
            stepped, direct = deepen(deepen(v, 3), 6).values, deepen(v, 6).values
            assert list(stepped) == list(direct)
            for key, val in direct.items():
                assert np.array_equal(stepped[key], val), str(key)
            # every word of the sphere: its table value, or zero off the table
            for y in sphere(A2, 6):
                want = evaluate(v, y)
                got = direct.get(y)
                if got is None:
                    assert not np.any(want), str(y)
                else:
                    assert np.array_equal(got, want), str(y)

    def test_point_reads_match_deepened_tables(self):
        # the measure reads a stem's mass from its per-sphere arrays and
        # cylinder_op reads the stem through the point evaluator; a deepened
        # table, filtered under the stem, is the reference for both, on the
        # random system and on one with a None map
        rng = np.random.default_rng(7)
        space, _ = random_system(rng)
        b, a, _ = next(space.system.nonzero_pairs())
        cut = MatrixSystem(space.alphabet, space.system.dims,
                           {(q, p): m for q, p, m in space.system.nonzero_pairs()
                            if (q, p) != (b, a)})
        forms = space.forms

        def close(got, want):
            return abs(got - want) <= 1e-13 * abs(want)

        for sp in (space, RepSpace(cut, forms, check=False)):
            for depth in (1, 2):
                v = MultVector(sp, depth, random_vector(space, rng, depth=depth).values)
                mu = spectral_measure(v)
                for length in range(1, depth + 4):
                    table = deepen(v, max(length, depth))
                    values = table.values
                    for stem in sphere(A2, length):
                        under = {y: val for y, val in values.items() if y.starts_with(stem)}
                        want = sum(np.vdot(val, forms[y.last()] @ val).real
                                   for y, val in under.items())
                        assert close(mu(stem), want), str(stem)
                        kept = cylinder_op(stem, v)
                        kept_values = kept.values
                        assert kept.depth == table.depth and list(kept_values) == list(under)
                        for y, val in under.items():
                            assert np.array_equal(kept_values[y], val), str(y)
                        assert close(mu(stem), inner(kept, v).real), str(stem)


class TestDemo:
    def test_spherical_decay(self, seed_a):
        mu = spectral_measure(seed_a)
        rows = no_harish_chandra_demo(mu, w("a"), 5)
        phis = [phi for _, _, phi in rows]
        assert abs(phis[0] - SQ3) <= 1e-12
        assert all(phi < 1.0 for phi in phis)
        assert all(b < a for a, b in zip(phis, phis[1:]))

    def test_uniform_decay(self):
        mu = uniform_measure(A2)
        rows = no_harish_chandra_demo(mu, w("ab"), 4)
        phis = [phi for _, _, phi in rows]
        assert all(phi < 1.0 for phi in phis)
        assert all(b < a for a, b in zip(phis, phis[1:]))

    def test_identity_rejected(self, seed_a):
        mu = spectral_measure(seed_a)
        with pytest.raises(ValidationError):
            no_harish_chandra_demo(mu, w("e"), 3)

    def test_non_probability_rejected(self, seed_a):
        mu = spectral_measure(vscale(2.0, seed_a))
        with pytest.raises(ValidationError):
            no_harish_chandra_demo(mu, w("a"), 3)
