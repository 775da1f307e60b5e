import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mbrep.errors import CapExceededError, ValidationError
from mbrep.words import (Alphabet, Word, ball, cylinder_image, multiply, sphere, sphere_size,
                         word_index)

from helpers import (Cylinder, CylinderUnion, random_word, recursive_image, refine,
                     refine_union_stems, union_image)

A2 = Alphabet.rank(2)


def w(text):
    return Word.parse(A2, text)


class TestAlphabet:
    def test_rank2_names(self):
        assert A2.names == ("a", "A", "b", "B")
        assert A2.inv == (1, 0, 3, 2)

    def test_involution_must_be_fixed_point_free(self):
        with pytest.raises(ValidationError):
            Alphabet(["a", "A", "b", "B"], [("a", "a"), ("b", "B"), ("A", "A")])

    def test_odd_size_rejected(self):
        with pytest.raises(ValidationError):
            Alphabet(["a", "A", "b"], [("a", "A")])

    def test_rank_one_rejected(self):
        with pytest.raises(ValidationError):
            Alphabet.rank(1)

    def test_rank_bounded_by_the_letter_names(self):
        assert Alphabet.rank(26).names[-2:] == ("z", "Z")
        for r in (27, 1_200_000):
            with pytest.raises(ValidationError, match="between 2 and 26"):
                Alphabet.rank(r)


class TestMultiply:
    def test_inverse_pair_cancels(self):
        assert multiply(w("a"), w("A")) == w("e")

    def test_full_cancellation(self):
        assert multiply(w("ab"), w("BA")) == w("e")

    def test_partial_cancellation(self):
        assert multiply(w("ab"), w("Ba")) == w("aa")

    def test_unreduced_word_rejected(self):
        with pytest.raises(ValidationError):
            Word(A2, (0, 1))

    def test_inverse_identity_exhaustive(self):
        for r in range(5):
            for x in sphere(A2, r):
                assert multiply(x, x.inverse()).is_identity()
                assert multiply(x.inverse(), x).is_identity()

    def test_associativity_exhaustive_small(self):
        words = list(ball(A2, 3))
        for x, y, z in itertools.product(words, repeat=3):
            assert multiply(multiply(x, y), z) == multiply(x, multiply(y, z))

    def test_associativity_randomized_long(self):
        rng = np.random.default_rng(11)
        for _ in range(500):
            x = random_word(A2, rng, int(rng.integers(0, 9)))
            y = random_word(A2, rng, int(rng.integers(0, 9)))
            z = random_word(A2, rng, int(rng.integers(0, 9)))
            assert multiply(multiply(x, y), z) == multiply(x, multiply(y, z))

    def test_length_lower_bound(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            x = random_word(A2, rng, int(rng.integers(0, 8)))
            y = random_word(A2, rng, int(rng.integers(0, 8)))
            assert len(multiply(x, y)) >= abs(len(x) - len(y))


words_strategy = st.integers(0, 8).flatmap(
    lambda k: st.lists(st.integers(0, 3), min_size=k, max_size=k))


def _reduce(letters):
    out = []
    for c in letters:
        if out and out[-1] == A2.inv[c]:
            out.pop()
        else:
            out.append(c)
    return Word(A2, out)


@settings(max_examples=200, derandomize=True)
@given(words_strategy, words_strategy, words_strategy)
def test_associativity_property(xs, ys, zs):
    x, y, z = _reduce(xs), _reduce(ys), _reduce(zs)
    assert multiply(multiply(x, y), z) == multiply(x, multiply(y, z))


@settings(max_examples=300, derandomize=True)
@given(words_strategy, words_strategy, st.integers(0, 8))
def test_multiply_matches_letter_fold(xs, ys, overlap):
    # y opens with the inverse of up to ``overlap`` trailing letters of x, so
    # empty words, partial and full cancellation all occur
    x = _reduce(xs)
    undo = [A2.inv[c] for c in reversed(x.letters[max(0, len(x) - overlap):])]
    y = _reduce(undo + ys)
    assert multiply(x, y) == _reduce(list(x.letters) + list(y.letters))
    assert multiply(x, Word(Alphabet.rank(2), y.letters)) == multiply(x, y)


def test_multiply_rejects_other_alphabet():
    with pytest.raises(ValidationError):
        multiply(w("a"), Word(Alphabet.rank(3), (0,)))


@settings(max_examples=200, derandomize=True)
@given(words_strategy)
def test_double_inverse_property(xs):
    x = _reduce(xs)
    assert x.inverse().inverse() == x
    assert multiply(x, x.inverse()).is_identity()


class TestSphere:
    def test_counts(self):
        assert sum(1 for _ in sphere(A2, 0)) == 1
        assert sum(1 for _ in sphere(A2, 1)) == 4
        assert sum(1 for _ in sphere(A2, 2)) == 12
        assert sphere_size(A2, 5) == 4 * 3 ** 4

    def test_rank3_count(self):
        a3 = Alphabet.rank(3)
        assert sum(1 for _ in sphere(a3, 2)) == 6 * 5

    def test_all_reduced_and_distinct(self):
        seen = set()
        for x in sphere(A2, 4):
            assert len(x) == 4
            seen.add(x.letters)
        assert len(seen) == sphere_size(A2, 4)

    def test_index_matches_enumeration_order(self):
        for k, x in enumerate(sphere(A2, 3)):
            assert word_index(x) == k

    def test_cap(self):
        with pytest.raises(CapExceededError):
            list(sphere(A2, 10, cap=100))

    def test_ball_cap_checked_before_the_first_word(self):
        # every sphere up to radius 14 fits the default cap, the whole ball
        # of radius 15 does not
        with pytest.raises(CapExceededError):
            next(ball(A2, 15))
        with pytest.raises(CapExceededError):
            next(ball(A2, 2, cap=16))
        assert len(list(ball(A2, 2, cap=17))) == 17


class TestCylinders:
    def test_stem_must_be_nonempty(self):
        with pytest.raises(ValidationError, match="cylinder stem must be nonempty"):
            Cylinder(w("e"))
        with pytest.raises(ValidationError, match="cylinder stem must be nonempty"):
            cylinder_image(w("a"), w("e"))

    def test_image_no_cancellation(self):
        assert cylinder_image(w("a"), w("b")) == (w("ab"),)

    def test_image_partial_cancellation(self):
        assert cylinder_image(w("a"), w("Ab")) == (w("b"),)

    def test_image_complement_case(self):
        stems = set(cylinder_image(w("a"), w("A")))
        assert stems == {w("A"), w("b"), w("B")}

    def test_image_deep_cancellation(self):
        # image of C(BA) under ab: cancels everything and re-expands
        img = cylinder_image(w("ab"), w("BA"))
        depth = 3
        got = refine_union_stems(img, depth)
        expect = set()
        for y in sphere(A2, 8):
            if y.starts_with(w("BA")):
                z = multiply(w("ab"), y)
                expect.add(z.letters[:depth])
        assert {s[:depth] for s in got} == expect

    def test_single_part_when_stem_long(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            x = random_word(A2, rng, int(rng.integers(0, 4)))
            stem = random_word(A2, rng, len(x) + 1 + int(rng.integers(0, 3)))
            assert cylinder_image(x, stem) == (multiply(x, stem),)

    def test_union_disjointness_enforced(self):
        with pytest.raises(ValidationError):
            CylinderUnion([Cylinder(w("a")), Cylinder(w("ab"))])

    def test_composition_equals_product_action(self):
        rng = np.random.default_rng(9)
        for _ in range(60):
            x = random_word(A2, rng, int(rng.integers(0, 4)))
            y = random_word(A2, rng, int(rng.integers(0, 4)))
            z = random_word(A2, rng, 1 + int(rng.integers(0, 3)))
            once = union_image(x, cylinder_image(y, z))
            both = cylinder_image(multiply(x, y), z)
            depth = max(max((len(s) for s in once), default=1),
                        max((len(s) for s in both), default=1))
            assert refine_union_stems(once, depth) == refine_union_stems(both, depth)

    def test_closed_form_matches_recursion(self):
        """The cone closed form gives the splitting recursion's stems, pairwise
        prefix-free, for every x with |x| <= 6: against random stems and
        against each stem of length <= 4 that x cancels entirely."""
        rng = np.random.default_rng(24)
        full = 0
        for x in ball(A2, 6):
            xinv = x.inverse().letters
            stems = [random_word(A2, rng, 1 + int(rng.integers(0, 4))) for _ in range(2)]
            stems += [Word(A2, xinv[:k]) for k in range(1, min(len(x), 4) + 1)]
            for z in stems:
                got = cylinder_image(x, z)
                assert set(got) == set(recursive_image(x, Cylinder(z)).stems())
                # a union of cylinders with a repeated or nested stem is rejected
                assert len(CylinderUnion(Cylinder(s) for s in got)) == len(got)
                full += len(multiply(x, z)) == len(x) - len(z)
        assert full >= 5752


class TestRefine:
    def test_one_level(self):
        assert set(refine(Cylinder(w("a")), 2).stems()) == {w("aa"), w("ab"), w("aB")}

    def test_identity_refinement(self):
        assert refine(Cylinder(w("a")), 1).stems() == (w("a"),)

    def test_counts(self):
        assert len(refine(Cylinder(w("ab")), 3)) == 3
        for d in range(2, 6):
            assert len(refine(Cylinder(w("a")), d)) == 3 ** (d - 1)

    def test_partition(self):
        parts = refine(Cylinder(w("a")), 4)
        stems = parts.stems()
        assert len(set(stems)) == len(stems)
        assert all(s.starts_with(w("a")) for s in stems)

    def test_depth_below_stem_rejected(self):
        with pytest.raises(ValidationError):
            refine(Cylinder(w("ab")), 1)


class TestSerialization:
    def test_parse_format_roundtrip(self):
        for text in ("e", "a", "ab", "aBAb"):
            assert str(w(text)) == text

    def test_empty_string_is_identity(self):
        assert Word.parse(A2, "") == w("e")

    def test_unknown_letter(self):
        with pytest.raises(ValidationError):
            Word.parse(A2, "ax")
