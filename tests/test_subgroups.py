import numpy as np
import pytest

from mbrep.errors import MembershipError, ValidationError
from mbrep.subgroups import (CosetTable, FiniteGroup, coset_table_from_quotient,
                             rewrite_to_subgroup, schreier)
from mbrep.words import Alphabet, Word, multiply

from helpers import coset_contains, expand_from_subgroup, pair_words, random_word, s3_quotient

A2 = Alphabet.rank(2)

QUOTIENTS = {
    "cyclic2": lambda: (FiniteGroup.cyclic(2), {A2.letter("a"): 1, A2.letter("b"): 0}),
    "cyclic3": lambda: (FiniteGroup.cyclic(3), {A2.letter("a"): 1, A2.letter("b"): 0}),
    "s3": lambda: s3_quotient(A2),
}


def quotient_data(name):
    return schreier(coset_table_from_quotient(A2, *QUOTIENTS[name]()))


def w(text):
    return Word.parse(A2, text)


def index2_data():
    return quotient_data("cyclic2")


class TestFiniteGroup:
    def test_cyclic(self):
        g = FiniteGroup.cyclic(3)
        assert g.order == 3
        assert g.mul(1, 2) == 0
        assert g.inverse[1] == 2

    def test_bad_table_rejected(self):
        with pytest.raises(ValidationError):
            FiniteGroup([[0, 1], [1, 1]])


class TestCosetTable:
    def test_index_two(self):
        t = coset_table_from_quotient(A2, FiniteGroup.cyclic(2),
                                      {A2.letter("a"): 1, A2.letter("b"): 0})
        assert t.index == 2
        assert coset_contains(t, w("aa"))
        assert coset_contains(t, w("b"))
        assert not coset_contains(t, w("a"))
        assert not coset_contains(t, w("ab"))

    def test_trivial_quotient(self):
        t = coset_table_from_quotient(A2, FiniteGroup.cyclic(1),
                                      {A2.letter("a"): 0, A2.letter("b"): 0})
        assert t.index == 1
        assert coset_contains(t, w("aBAb"))

    def test_index_three(self):
        t = coset_table_from_quotient(A2, FiniteGroup.cyclic(3),
                                      {A2.letter("a"): 1, A2.letter("b"): 0})
        assert t.index == 3
        assert coset_contains(t, w("aaa"))
        assert not coset_contains(t, w("aa"))

    def test_involution_inconsistency_rejected(self):
        with pytest.raises(ValidationError):
            coset_table_from_quotient(A2, FiniteGroup.cyclic(3),
                                      {A2.letter("a"): 1, A2.letter("A"): 1,
                                       A2.letter("b"): 0})

    def test_proper_image_subgroup(self):
        # images generate only the even residues of Z/4
        t = coset_table_from_quotient(A2, FiniteGroup.cyclic(4),
                                      {A2.letter("a"): 2, A2.letter("b"): 0})
        assert t.index == 2


class TestSchreier:
    def test_index2_transversal(self):
        data = index2_data()
        assert [str(t) for t in data.transversal] == ["e", "a"]
        assert data.index == 2

    def test_index2_generators(self):
        data = index2_data()
        gens = {str(g) for g in data.generator_words}
        assert gens == {"aa", "AA", "b", "B", "abA", "aBA"}
        assert data.rank == 3

    def test_generator_inverse_pairing(self):
        data = index2_data()
        sub = data.subgroup_alphabet
        for j, gw in enumerate(data.generator_words):
            partner = data.generator_words[sub.inv[j]]
            assert multiply(gw, partner).is_identity()

    def test_index2_pair_table(self):
        data = index2_data()
        expected = {
            "a": {"a", "aa", "abA", "aBA"},
            "A": {"AA", "AAA", "Ab", "AB"},
            "b": {"b", "bA"},
            "B": {"B", "BA"},
        }
        for name, want in expected.items():
            got = {str(x) for x in pair_words(data, A2.letter(name))}
            assert got == want
        total = sum(len(data.pairs[a]) for a in range(4))
        assert total == data.index * len(data.generator_words)

    def test_index1(self):
        t = coset_table_from_quotient(A2, FiniteGroup.cyclic(1),
                                      {A2.letter("a"): 0, A2.letter("b"): 0})
        data = schreier(t)
        assert [str(x) for x in data.transversal] == ["e"]
        assert {str(g) for g in data.generator_words} == {"a", "A", "b", "B"}
        for name in "aAbB":
            assert [str(x) for x in pair_words(data, A2.letter(name))] == [name]

    def test_prefix_closed(self):
        for images in ({0: 1, 2: 0}, {0: 1, 2: 1}, {0: 0, 2: 1}):
            t = coset_table_from_quotient(A2, FiniteGroup.cyclic(2), images)
            data = schreier(t)
            reps = {x.letters for x in data.transversal}
            for word in data.transversal:
                for k in range(len(word)):
                    assert word.letters[:k] in reps
            assert len(data.transversal) == t.index

    def test_rank_formula_various(self):
        quotients = [(FiniteGroup.cyclic(m), images)
                     for m, images in ((2, {0: 1, 2: 0}), (3, {0: 1, 2: 0}), (5, {0: 1, 2: 2}))]
        for group, images in quotients + [s3_quotient(A2)]:
            t = coset_table_from_quotient(A2, group, images)
            data = schreier(t)
            assert t.index == group.order
            assert data.rank == 1 + t.index * (len(A2) // 2 - 1)

    @pytest.mark.parametrize("quotient", sorted(QUOTIENTS))
    def test_edge_gen_labels_schreier_generators(self, quotient):
        data = quotient_data(quotient)
        sub_inv = data.subgroup_alphabet.inv
        labelled = {}
        for s in range(data.index):
            u = data.transversal[data.transversal_of_coset(s)]
            for c in range(len(A2)):
                t = data.table.step(s, c)
                v = data.transversal[data.transversal_of_coset(t)]
                j = data.edge_gen[s][c]
                back = data.edge_gen[t][A2.inv[c]]
                gen = multiply(multiply(u, Word(A2, (c,))), v.inverse())
                if j < 0:
                    assert gen.is_identity() and back == -1
                else:
                    assert gen == data.generator_words[j]
                    assert back == sub_inv[j]
                    assert j not in labelled
                    labelled[j] = (s, c)
        # each generator labels exactly one directed edge
        assert sorted(labelled) == list(range(len(data.generator_words)))

    def test_generators_move_tree_by_one(self):
        data = index2_data()
        reps = [x for x in data.transversal]
        for gw in data.generator_words:
            translated = [multiply(gw, u) for u in reps]
            dist = min(len(multiply(u.inverse(), v))
                       for u in reps for v in translated)
            assert dist == 1


class TestRewriting:
    def test_single_step(self):
        data = index2_data()
        out = rewrite_to_subgroup(w("aa"), data)
        assert str(expand_from_subgroup(out, data)) == "aa"
        assert len(out) == 1

    def test_identity(self):
        data = index2_data()
        assert rewrite_to_subgroup(w("e"), data).is_identity()

    def test_two_steps(self):
        data = index2_data()
        out = rewrite_to_subgroup(w("abAb"), data)
        assert len(out) == 2
        assert str(expand_from_subgroup(out, data)) == "abAb"

    def test_not_in_subgroup(self):
        data = index2_data()
        with pytest.raises(MembershipError):
            rewrite_to_subgroup(w("a"), data)

    @pytest.mark.parametrize("quotient", sorted(QUOTIENTS))
    def test_roundtrip_random(self, quotient):
        data = quotient_data(quotient)
        rng = np.random.default_rng(13)
        done = 0
        while done < 200:
            word = random_word(A2, rng, int(rng.integers(0, 13)))
            if not coset_contains(data.table, word):
                continue
            rewritten = rewrite_to_subgroup(word, data)
            assert expand_from_subgroup(rewritten, data) == word
            # an unreduced spelling of the same element rewrites the same
            k, c = len(word) // 2, done % len(A2)
            spelled = word.letters[:k] + (c, A2.inv[c]) + word.letters[k:]
            assert rewrite_to_subgroup(spelled, data) == rewritten
            done += 1

    @pytest.mark.parametrize("quotient", sorted(QUOTIENTS))
    def test_output_is_reduced(self, quotient):
        data = quotient_data(quotient)
        rng = np.random.default_rng(29)
        for _ in range(100):
            word = random_word(A2, rng, 2 * int(rng.integers(0, 7)))
            if not coset_contains(data.table, word):
                continue
            out = rewrite_to_subgroup(word, data)
            Word(data.subgroup_alphabet, out.letters)  # reducedness re-checked
