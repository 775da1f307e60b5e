from collections import Counter

import numpy as np
import pytest

from mbrep import multrep, vfree
from mbrep.errors import CapExceededError, ValidationError
from mbrep.multrep import MultVector, RepSpace, coefficient, inner
from mbrep.system import spherical_system
from mbrep.vfree import (FreeProduct, VFGroupDatum, induce_to_vf, psl2z_datum,
                         vf_gram, vf_validate)
from mbrep.words import Alphabet, Word, multiply, sphere

from helpers import random_system, random_vector


@pytest.fixture(scope="module")
def datum():
    return psl2z_datum()


@pytest.fixture(scope="module")
def block_space(datum):
    system, forms = spherical_system(datum.basis_alphabet)
    return RepSpace(system, forms)


def coeff_fast(word, u, v):
    return coefficient(word, u, v, backend="fast")


class TestFreeProduct:
    def test_parse_format(self):
        grp = FreeProduct([2, 3], ["s", "r"])
        assert grp.format(grp.parse("srr")) == "srr"
        assert grp.format(grp.parse("e")) == "e"
        assert grp.format(grp.multiply(grp.parse("r"), grp.parse("rr"))) == "e"

    def test_torsion(self):
        grp = FreeProduct([2, 3], ["s", "r"])
        s, r = grp.parse("s"), grp.parse("r")
        assert grp.multiply(s, s) == ()
        assert grp.multiply(grp.multiply(r, r), r) == ()

    def test_inverse(self):
        grp = FreeProduct([2, 3], ["s", "r"])
        x = grp.parse("srrsr")
        assert grp.multiply(x, grp.inverse(x)) == ()

    def test_associativity_random(self):
        grp = FreeProduct([2, 3], ["s", "r"])
        rng = np.random.default_rng(3)
        elements = grp.ball(3)
        for _ in range(200):
            x, y, z = (elements[int(rng.integers(len(elements)))] for _ in range(3))
            assert grp.multiply(grp.multiply(x, y), z) == grp.multiply(x, grp.multiply(y, z))

    def test_ball_sizes(self):
        grp = FreeProduct([2, 3], ["s", "r"])
        assert len(grp.ball(0)) == 1
        assert len(grp.ball(1)) == 4
        assert len(grp.ball(2)) == 8
        assert len(grp.ball(3)) == 14
        assert grp.ball(3)[0] == grp.identity

    def test_ball_cap_and_radius(self):
        grp = FreeProduct([2, 3], ["s", "r"])
        assert len(grp.ball(3, cap=14)) == 14
        with pytest.raises(CapExceededError):
            grp.ball(3, cap=13)
        with pytest.raises(CapExceededError):
            grp.ball(10**6, cap=10)
        with pytest.raises(ValidationError):
            grp.ball(-1)


class TestDatum:
    def test_psl2z_validates(self, datum):
        assert vf_validate(datum) == []

    def test_transversal_and_rank(self, datum):
        assert len(datum.transversal) == 6
        assert datum.free_rank() == 2
        assert datum.expected_free_rank() == 2

    def test_basis_elements(self, datum):
        grp = datum.group
        assert grp.format(datum.basis_elements[0]) == "srsrr"
        assert grp.format(datum.basis_elements[2]) == "srrsr"

    def test_corrupted_table_flagged(self, datum):
        broken = VFGroupDatum(datum.group, datum.transversal, datum.basis_alphabet,
                              datum.basis_elements, dict(datum.table), name="broken")
        word, t2 = broken.table[(0, 0)]
        broken.table[(0, 0)] = (word, (t2 + 1) % 6)
        problems = vf_validate(broken)
        assert any("violates" in p or "probe" in p for p in problems)

    def test_failed_relation_names_factor_and_element(self, datum):
        broken = VFGroupDatum(datum.group, datum.transversal, datum.basis_alphabet,
                              datum.basis_elements, dict(datum.table), name="broken")
        a_word = Word.parse(datum.basis_alphabet, "a")
        # s from the transversal element s now picks up the basis letter a
        assert broken.table[(1, 0)] == (Word.identity(datum.basis_alphabet), 0)
        broken.table[(1, 0)] = (a_word, 0)
        problems = vf_validate(broken)
        assert ("relation s^2 from transversal element s ends at transversal index 1 "
                "with basis word a, not at itself with e") in problems
        assert not any(p.startswith("relation r^3") for p in problems)
        assert vf_validate(broken) == problems

    def test_relation_leaving_the_table_is_reported(self, datum):
        partial = {key: val for key, val in datum.table.items() if key != (2, 0)}
        broken = VFGroupDatum(datum.group, datum.transversal, datum.basis_alphabet,
                              datum.basis_elements, partial, name="broken")
        problems = vf_validate(broken)
        assert "table misses entry (2,s)" in problems
        assert "relation s^2 from transversal element r leaves the table at entry (2, 0)" in problems

    def test_relations_routed_once_from_every_index_without_rng(self, datum, monkeypatch):
        routed = Counter()
        route = VFGroupDatum.route

        def recording(self, t_idx, lam):
            routed[(t_idx, lam)] += 1
            return route(self, t_idx, lam)

        def no_rng(*args, **kwargs):
            raise AssertionError("vf_validate drew a random number")

        monkeypatch.setattr(VFGroupDatum, "route", recording)
        monkeypatch.setattr(np.random, "default_rng", no_rng)
        assert vf_validate(datum) == []
        assert vf_validate(datum) == []
        assert routed == Counter({(t, ((f, order),)): 2 for t in range(6)
                                  for f, order in enumerate((2, 3))})

    def test_infinite_dihedral_rejected_by_rank_gate(self):
        with pytest.raises(ValidationError):
            Alphabet.rank(1)  # a rank-one free part cannot even carry an alphabet

    def test_wrong_rank_basis_flagged(self, datum):
        # pretending the subgroup has rank 3 breaks the index/rank relation
        bigger = Alphabet.rank(3)
        elements = datum.basis_elements + [datum.group.parse("rsrrs"),
                                           datum.group.parse("srrsr")]
        broken = VFGroupDatum(datum.group, datum.transversal, bigger,
                              elements, dict(datum.table), name="broken")
        problems = vf_validate(broken)
        assert any("rank" in p for p in problems)


class TestRouting:
    def test_route_stays_in_subgroup(self, datum):
        grp = datum.group
        rng = np.random.default_rng(7)
        elements = grp.ball(3)
        for _ in range(100):
            t_idx = int(rng.integers(6))
            lam = elements[int(rng.integers(len(elements)))]
            word, end = datum.route(t_idx, lam)
            lhs = grp.multiply(datum.transversal[t_idx], lam)
            rhs = grp.multiply(datum.expand_basis_word(word), datum.transversal[end])
            assert lhs == rhs

    def test_route_is_multiplicative(self, datum):
        grp = datum.group
        rng = np.random.default_rng(9)
        elements = grp.ball(2)
        from mbrep.words import multiply as wmul

        for _ in range(100):
            t = int(rng.integers(6))
            lam = elements[int(rng.integers(len(elements)))]
            mu = elements[int(rng.integers(len(elements)))]
            w1, t1 = datum.route(t, lam)
            w2, t2 = datum.route(t1, mu)
            w12, t12 = datum.route(t, grp.multiply(lam, mu))
            assert t12 == t2
            assert w12 == wmul(w1, w2)

    def test_route_matches_multiply_fold(self, datum):
        # the one-pass route against the product of the table words, step by
        # step; syllables are drawn freely, so a factor may repeat and the
        # table words then cancel across steps
        grp = datum.group
        rng = np.random.default_rng(13)
        for _ in range(300):
            lam = []
            for _ in range(int(rng.integers(0, 12))):
                f = int(rng.integers(len(grp.orders)))
                lam.append((f, int(rng.integers(1, grp.orders[f]))))
            lam = tuple(lam)
            t_idx = int(rng.integers(len(datum.transversal)))
            word, cur = Word.identity(datum.basis_alphabet), t_idx
            for f in grp.generator_letters(lam):
                step, cur = datum.table[(cur, f)]
                word = multiply(word, step)
            got = datum.route(t_idx, lam)
            assert got == (word, cur)
            assert Word(datum.basis_alphabet, got[0].letters) == word  # reduced


class TestInducedCoefficients:
    def _blocks(self, datum, block_space, support=(0,)):
        a = Word.parse(block_space.alphabet, "a")
        return {u: MultVector(block_space, 1, {a: [1.0]}) for u in support}

    def test_identity_sums_block_norms(self, datum, block_space):
        blocks = self._blocks(datum, block_space, support=(0, 2, 4))
        val = induce_to_vf(datum, coeff_fast, datum.group.identity, blocks)
        assert abs(val - 3.0) <= 1e-12

    def test_order_two_generator_vanishes_on_identity_support(self, datum, block_space):
        blocks = self._blocks(datum, block_space)
        val = induce_to_vf(datum, coeff_fast, datum.group.parse("s"), blocks)
        assert abs(val) <= 1e-12

    def test_subgroup_element_reduces_to_single_coefficient(self, datum, block_space):
        blocks = self._blocks(datum, block_space)
        lam = datum.group.parse("srsrr")  # the first basis element
        via_induction = induce_to_vf(datum, coeff_fast, lam, blocks)
        direct = coefficient(Word.parse(block_space.alphabet, "a"),
                             blocks[0], blocks[0], backend="fast")
        assert abs(via_induction - direct) <= 1e-10

    def test_gram_psd_on_ball(self, datum, block_space):
        rng = np.random.default_rng(11)
        vals = {}
        for word in sphere(block_space.alphabet, 1):
            vals[word] = rng.normal(size=1) + 1j * rng.normal(size=1)
        blocks = {0: MultVector(block_space, 1, vals),
                  3: MultVector(block_space, 1, {Word.parse(block_space.alphabet, "b"): [1.0]})}
        elements = datum.group.ball(2)
        gram = vf_gram(datum, elements, blocks)
        eigs = np.linalg.eigvalsh((gram + gram.conj().T) / 2)
        assert eigs.min() >= -1e-8 * max(1.0, float(np.abs(gram).max()))

    def test_gram_memo_matches_double_loop(self, datum):
        rng = np.random.default_rng(17)
        space, _ = random_system(rng, datum.basis_alphabet)
        blocks = {u: random_vector(space, rng, depth=1 + u % 2) for u in (0, 2, 3)}
        grp = datum.group
        elements = grp.ball(3)
        gram = vf_gram(datum, elements, blocks)
        naive = np.array([[induce_to_vf(datum, coeff_fast,
                                        grp.multiply(grp.inverse(li), lj), blocks)
                           for lj in elements] for li in elements])
        assert np.array_equal(gram, naive)

    def test_gram_composed_routes_match_double_loop_on_all_blocks(self, datum):
        # blocks on every transversal element, at depths 1 and 2: each pair's
        # route is composed from the two halves for every carrier at once
        rng = np.random.default_rng(23)
        space, _ = random_system(rng, datum.basis_alphabet)
        blocks = {u: random_vector(space, rng, depth=1 + u % 2) for u in range(6)}
        grp = datum.group
        elements = grp.ball(3)
        gram = vf_gram(datum, elements, blocks)
        naive = np.array([[induce_to_vf(datum, coeff_fast,
                                        grp.multiply(grp.inverse(li), lj), blocks)
                           for lj in elements] for li in elements])
        assert np.array_equal(gram, naive)

    def test_gram_steps_each_prefix_once(self, datum, block_space, monkeypatch):
        # one batch per (end, carrier) block pair over the Gram words of
        # ball(3): one trie step per nonempty prefix of its words, each once
        steps = []
        step = multrep._prefix_step

        def counting(g, cone, s, p):
            steps.append(p)
            return step(g, cone, s, p)

        monkeypatch.setattr(multrep, "_prefix_step", counting)
        grp = datum.group
        elements = grp.ball(3)
        blocks = self._blocks(datum, block_space, support=range(len(datum.transversal)))
        vf_gram(datum, elements, blocks)
        closures = Counter()
        for t in blocks:
            routes = [datum.route(t, grp.multiply(grp.inverse(li), lj))
                      for li in elements for lj in elements]
            for e in blocks:
                words = {word.letters for word, end in routes if end == e}
                closures.update({w[:k] for w in words for k in range(1, len(w) + 1)})
        assert len(steps) == sum(closures.values()) and Counter(steps) == closures

    def test_gram_routes_each_element_once_per_index(self, datum, block_space, monkeypatch):
        calls = Counter()

        def counted(owner, name, key):
            original = getattr(owner, name)

            def wrapper(*args):
                calls[key] += 1
                return original(*args)
            monkeypatch.setattr(owner, name, wrapper)

        counted(VFGroupDatum, "route", "route")
        counted(FreeProduct, "multiply", "multiply")
        # the pairs' routes are joined on letter tuples, never by words.multiply
        counted(vfree, "multiply", "words.multiply")
        blocks = self._blocks(datum, block_space, support=(0, 4))
        elements = datum.group.ball(4)
        calls.clear()
        vf_gram(datum, elements, blocks)
        k = len(elements)
        assert calls["route"] <= k * (len(blocks) + len(datum.transversal))
        assert calls["multiply"] <= k
        assert calls["words.multiply"] == 0

    def test_unitarity_diagonal(self, datum, block_space):
        blocks = self._blocks(datum, block_space, support=(0, 1))
        norm2 = induce_to_vf(datum, coeff_fast, datum.group.identity, blocks)
        for lam in datum.group.ball(2):
            val = induce_to_vf(datum, coeff_fast, lam, blocks)
            assert abs(val) <= norm2.real + 1e-10
