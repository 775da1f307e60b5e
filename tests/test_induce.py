import numpy as np
import pytest

from mbrep import induce
from mbrep.errors import CapExceededError, DepthError
from mbrep.induce import (MAX_INTERTWINER_DEPTH, InducedVector, _decompose_element,
                          boundary_pullback, induce_system, induced_action,
                          induced_boundary_op, induced_distance, induced_inner,
                          intertwiner_J)
from mbrep.multrep import (MultVector, RepSpace, act, coefficient, cylinder_op,
                           deepen, distance, evaluate, inner, point_values)
from mbrep.subgroups import (FiniteGroup, coset_table_from_quotient, rewrite_to_subgroup,
                             schreier)
from mbrep.system import compatibility_residual, spherical_system, validate
from mbrep.words import Alphabet, Word, multiply, sphere, sphere_size

from helpers import s3_quotient

A2 = Alphabet.rank(2)


def w(text):
    return Word.parse(A2, text)


def induced_setup(group, images):
    data = schreier(coset_table_from_quotient(A2, group, images))
    sub_system, sub_forms = spherical_system(data.subgroup_alphabet)
    ind_system, ind_forms, layout = induce_system(sub_system, sub_forms, data)
    return {
        "data": data,
        "sub_space": RepSpace(sub_system, sub_forms),
        "ind_space": RepSpace(ind_system, ind_forms),
        "layout": layout,
    }


@pytest.fixture(scope="module")
def setup():
    return induced_setup(FiniteGroup.cyclic(2), {A2.letter("a"): 1, A2.letter("b"): 0})


@pytest.fixture(scope="module")
def cyclic3_setup():
    return induced_setup(FiniteGroup.cyclic(3), {A2.letter("a"): 1, A2.letter("b"): 0})


@pytest.fixture(scope="module")
def s3_setup():
    """Induction through the non-abelian quotient S3 (index 6)."""
    return induced_setup(*s3_quotient(A2))


def rand_blocks(setup_dict, rng, depth=1):
    data = setup_dict["data"]
    space = setup_dict["sub_space"]
    blocks = {}
    for u in range(data.index):
        vals = {}
        for word in sphere(space.alphabet, depth):
            d = space.dim(word.last())
            vals[word] = rng.normal(size=d) + 1j * rng.normal(size=d)
        blocks[u] = MultVector(space, depth, vals)
    return InducedVector(data, space, blocks)


class TestInducedSystem:
    def test_dimensions(self, setup):
        assert setup["ind_space"].system.dims == (4, 4, 2, 2)
        assert sum(setup["ind_space"].system.dims) == 12

    def test_valid_and_compatible(self, setup):
        system = setup["ind_space"].system
        assert validate(system) == []
        assert compatibility_residual(system, setup["ind_space"].forms) <= 1e-12

    def test_block_bookkeeping(self, setup):
        layout = setup["layout"]
        data = setup["data"]
        seen = set()
        for a in range(4):
            for pair in layout.pairs[a]:
                assert pair not in seen
                seen.add(pair)
        assert len(seen) == data.index * len(data.generator_words)

    def test_index1_reproduces_original(self):
        table = coset_table_from_quotient(A2, FiniteGroup.cyclic(1),
                                          {A2.letter("a"): 0, A2.letter("b"): 0})
        data = schreier(table)
        sub_system, sub_forms = spherical_system(data.subgroup_alphabet)
        ind_system, ind_forms, layout = induce_system(sub_system, sub_forms, data)
        # relabeling: subgroup letter j corresponds to the single ambient
        # letter of its generator word
        relabel = {j: gw.letters[0] for j, gw in enumerate(data.generator_words)}
        assert ind_system.dims == sub_system.dims
        for jb in range(4):
            for ja in range(4):
                m = sub_system.maps[jb][ja]
                if m is None:
                    continue
                got = ind_system.map(relabel[jb], relabel[ja])
                assert np.allclose(got, m)

    def test_s3_valid_and_compatible(self, s3_setup):
        system = s3_setup["ind_space"].system
        assert system.dims == (12, 12, 30, 30)
        assert validate(system) == []
        assert compatibility_residual(system, s3_setup["ind_space"].forms) <= 1e-12

    def test_forms_are_block_diagonal_copies(self, setup):
        forms = setup["ind_space"].forms
        for a in range(4):
            assert np.allclose(forms[a], np.eye(setup["ind_space"].system.dims[a]))


class TestIntertwiner:
    def test_inner_products_preserved(self, setup):
        rng = np.random.default_rng(3)
        for _ in range(10):
            f = rand_blocks(setup, rng)
            g = rand_blocks(setup, rng)
            jf = intertwiner_J(f, setup["layout"], setup["ind_space"])
            jg = intertwiner_J(g, setup["layout"], setup["ind_space"])
            assert abs(inner(jf, jg) - induced_inner(f, g)) <= 1e-10

    def test_s3_inner_products_preserved(self, s3_setup):
        rng = np.random.default_rng(31)
        for _ in range(3):
            f = rand_blocks(s3_setup, rng)
            g = rand_blocks(s3_setup, rng)
            jf = intertwiner_J(f, s3_setup["layout"], s3_setup["ind_space"])
            jg = intertwiner_J(g, s3_setup["layout"], s3_setup["ind_space"])
            assert abs(inner(jf, jg) - induced_inner(f, g)) <= 1e-10

    def test_image_is_multiplicative(self, setup):
        rng = np.random.default_rng(5)
        f = rand_blocks(setup, rng, depth=2)
        jf = intertwiner_J(f, setup["layout"], setup["ind_space"])
        deeper = intertwine_at(f, setup["layout"], setup["ind_space"], jf.depth + 1)
        assert distance(deepen(jf, jf.depth + 1), deeper) <= 1e-10

    def test_intertwines_action(self, setup):
        rng = np.random.default_rng(7)
        for text in ("a", "A", "b", "ab", "Ba"):
            f = rand_blocks(setup, rng)
            x = w(text)
            lhs = intertwiner_J(induced_action(x, f), setup["layout"], setup["ind_space"])
            rhs = act(x, intertwiner_J(f, setup["layout"], setup["ind_space"]))
            d = max(lhs.depth, rhs.depth)
            assert distance(deepen(lhs, d), deepen(rhs, d)) <= 1e-10

    def test_single_coset_support(self, setup):
        space = setup["sub_space"]
        seed = MultVector.seed(space, {Word.parse(space.alphabet, "a"): [1.0]})
        f = InducedVector(setup["data"], space, {0: seed})
        jf = intertwiner_J(f, setup["layout"], setup["ind_space"])
        assert abs(inner(jf, jf) - 1.0) <= 1e-10

    def test_forced_depth_too_small(self, setup, monkeypatch):
        rng = np.random.default_rng(11)
        f = rand_blocks(setup, rng, depth=3)
        monkeypatch.setattr(induce, "MAX_INTERTWINER_DEPTH", 1)
        with pytest.raises(DepthError, match="depth 1 too small"):
            intertwiner_J(f, setup["layout"], setup["ind_space"])

    def test_route_count_held_against_cap(self, s3_setup, monkeypatch):
        # at index 6 a routing level stores 6 routes per word of the sphere
        # below it, twice the words of its own sphere
        rng = np.random.default_rng(17)
        f = rand_blocks(s3_setup, rng)
        args = (s3_setup["layout"], s3_setup["ind_space"])
        jf = intertwiner_J(f, *args)
        words = sphere_size(A2, jf.depth)
        routes = sphere_size(A2, jf.depth - 1) * len(s3_setup["data"].transversal)
        assert words < routes
        monkeypatch.setattr(induce, "DEFAULT_CAP", routes - 1)
        with pytest.raises(CapExceededError, match=f"store {routes} routes"):
            intertwiner_J(f, *args)
        monkeypatch.setattr(induce, "DEFAULT_CAP", routes)
        assert distance(intertwiner_J(f, *args), jf) == 0.0

    def test_induced_action_unitary(self, setup):
        rng = np.random.default_rng(13)
        f = rand_blocks(setup, rng)
        for text in ("a", "bA", "BB"):
            moved = induced_action(w(text), f)
            assert abs(induced_inner(moved, moved) - induced_inner(f, f)) <= 1e-10

    def test_induced_action_composition(self, setup):
        rng = np.random.default_rng(17)
        f = rand_blocks(setup, rng)
        x, y = w("ab"), w("bA")
        once = induced_action(multiply(x, y), f)
        twice = induced_action(x, induced_action(y, f))
        assert induced_distance(once, twice) <= 1e-10


def searched_J(f, layout, induced_space):
    """The intertwiner as the per-depth search computed it: rebuild and
    evaluate the whole sphere at depths 1, 2, ... until no block argument
    is shorter than its source depth."""
    for depth in range(1, MAX_INTERTWINER_DEPTH + 1):
        try:
            return intertwine_at(f, layout, induced_space, depth)
        except DepthError:
            pass
    raise DepthError("no admissible presentation depth")


def intertwine_at(f, layout, induced_space, depth):
    data = f.data
    alphabet = data.table.alphabet
    inverses = [t.inverse().letters for t in data.transversal]
    values = {}
    cache = {}

    def routed(x, u_idx):
        key = (x, u_idx)
        hit = cache.get(key)
        if hit is None:
            src_idx, h = _decompose_element(data, x + inverses[u_idx])
            hit = (src_idx, rewrite_to_subgroup(h, data))
            cache[key] = hit
        return hit

    for y in sphere(alphabet, depth):
        a = y.last()
        x = y.letters[:-1]
        out = np.zeros(layout.letter_dim(a), dtype=np.complex128)
        any_nonzero = False
        for k, (u_idx, j) in enumerate(layout.pairs[a]):
            src_idx, base = routed(x, u_idx)
            src = f.blocks.get(src_idx)
            if src is None:
                continue
            arg = multiply(base, Word(data.subgroup_alphabet, (j,)))
            if len(arg) < src.depth:
                raise DepthError(f"depth {depth} too small to evaluate block at {y}")
            val = evaluate(src, arg)
            off = layout.offsets[a][k]
            d = layout.block_dims[a][k]
            if np.any(val != 0):
                out[off:off + d] = val
                any_nonzero = True
        if any_nonzero:
            values[y] = out
    return MultVector(induced_space, depth, values)


def assert_same_vector(got, want):
    assert got.depth == want.depth
    assert list(got.values) == list(want.values)
    for word, v in want.values.items():
        assert (got.values[word] == v).all()


class TestOnePassIntertwiner:
    """The one routing pass chooses the depth the per-depth search chose and
    gives bit-identical values in the same key order."""

    # S3 blocks of depth 3 reach depth 10, where the search takes minutes
    @pytest.mark.parametrize("name,block_depth", [
        ("setup", 1), ("setup", 2), ("setup", 3), ("cyclic3_setup", 1),
        ("cyclic3_setup", 2), ("cyclic3_setup", 3), ("s3_setup", 1), ("s3_setup", 2)])
    def test_matches_search(self, name, block_depth, request):
        s = request.getfixturevalue(name)
        layout, space = s["layout"], s["ind_space"]
        rng = np.random.default_rng(41 + block_depth)
        f = rand_blocks(s, rng, depth=block_depth)
        # drop one block so some routes reach no source
        del f.blocks[s["data"].index - 1]
        assert_same_vector(intertwiner_J(f, layout, space), searched_J(f, layout, space))

    # S3 images reach depth 10 and more, where the search takes minutes
    @pytest.mark.parametrize("name,texts", [("setup", ("a", "Ba", "ab")),
                                            ("cyclic3_setup", ("A", "ab"))])
    def test_matches_search_on_images(self, name, texts, request):
        s = request.getfixturevalue(name)
        layout, space = s["layout"], s["ind_space"]
        rng = np.random.default_rng(43)
        f = rand_blocks(s, rng)
        for text in texts:
            moved = induced_action(w(text), f)
            assert_same_vector(intertwiner_J(moved, layout, space),
                               searched_J(moved, layout, space))
            cut = induced_boundary_op(f, w(text))
            assert_same_vector(intertwiner_J(cut, layout, space),
                               searched_J(cut, layout, space))

    def test_cancelling_argument(self, setup, monkeypatch):
        """x.a reduced does not keep a block argument h.j from cancelling: at
        index 2 the block (transversal a, generator aa) of the word a routes
        to h = (aa)^-1, so its argument is the identity, where no depth-1
        block has a value; the level is inadmissible and J goes one deeper."""
        data, layout, space = setup["data"], setup["layout"], setup["ind_space"]
        sub_inv = data.subgroup_alphabet.inv
        u_idx = [str(t) for t in data.transversal].index("a")
        j = [str(g) for g in data.generator_words].index("aa")
        assert (u_idx, j) in layout.pairs[A2.letter("a")]
        src_idx, h = _decompose_element(data, data.transversal[u_idx].inverse().letters)
        hl = rewrite_to_subgroup(h, data).letters
        assert hl == (sub_inv[j],)
        assert induce._argument(hl, j, sub_inv) == ()
        f = rand_blocks(setup, np.random.default_rng(53))
        f = InducedVector(data, f.space, {src_idx: f.blocks[src_idx]})
        monkeypatch.setattr(induce, "MAX_INTERTWINER_DEPTH", 1)
        with pytest.raises(DepthError, match="depth 1 too small"):
            intertwiner_J(f, layout, space)
        monkeypatch.undo()
        jf = intertwiner_J(f, layout, space)
        assert jf.depth == 2
        assert_same_vector(jf, searched_J(f, layout, space))

    def test_evaluates_one_level(self, cyclic3_setup, monkeypatch):
        """The depth search evaluates nothing: J makes one point evaluation
        per block of the chosen level (every block of it has a source), each
        at an argument at least as long as its source's depth."""
        layout, space = cyclic3_setup["layout"], cyclic3_setup["ind_space"]
        rng = np.random.default_rng(47)
        f = induced_action(w("ab"), rand_blocks(cyclic3_setup, rng))
        assert len(f.blocks) == cyclic3_setup["data"].index
        calls = []

        def counting(src):
            value_at = point_values(src)

            def counted(letters):
                calls.append(len(letters) - src.depth)
                return value_at(letters)

            return counted

        monkeypatch.setattr(induce, "point_values", counting)
        jf = intertwiner_J(f, layout, space)
        assert jf.depth > 1
        blocks = sum(len(layout.pairs[y.last()]) for y in sphere(space.alphabet, jf.depth))
        assert len(calls) == blocks > 0
        assert min(calls) >= 0

    @pytest.mark.parametrize("name", ["setup", "cyclic3_setup", "s3_setup"])
    def test_stepped_routes_match_rewriting(self, name, request):
        """The routes stepped through the layout's edge table equal the
        routes rewritten from scratch, for every prefix of length 0 to 6 and
        every transversal element, and come in sphere order."""
        s = request.getfixturevalue(name)
        data, layout = s["data"], s["layout"]
        inverses = [t.inverse().letters for t in data.transversal]
        for length in range(7):
            prefixes = []
            for x, rx in induce._prefix_routes(data, layout, length):
                prefixes.append(x)
                assert len(rx) == data.index
                for u_idx, route in enumerate(rx):
                    src_idx, h = _decompose_element(data, x + inverses[u_idx])
                    assert route == (src_idx, rewrite_to_subgroup(h, data).letters)
            assert prefixes == [y.letters for y in sphere(A2, length)]


class TestBoundaryAction:
    def test_pullback_partitions(self, setup):
        data = setup["data"]
        # the four ambient one-letter cylinders pull back to a partition of
        # the subgroup boundary: all depth-1 stems appear exactly once
        seen = {}
        for name in "aAbB":
            for stem in boundary_pullback(data, w(name)):
                assert stem.letters not in seen
                seen[stem.letters] = name
        assert len(seen) == len(data.subgroup_alphabet)

    def test_covariance_through_intertwiner(self, setup):
        rng = np.random.default_rng(19)
        for text in ("a", "A", "b", "ab", "bA", "aa"):
            f = rand_blocks(setup, rng)
            z = w(text)
            lhs = intertwiner_J(induced_boundary_op(f, z), setup["layout"], setup["ind_space"])
            rhs = cylinder_op(z, intertwiner_J(f, setup["layout"], setup["ind_space"]))
            d = max(lhs.depth, rhs.depth)
            assert distance(deepen(lhs, d), deepen(rhs, d)) <= 1e-10

    def test_boundary_op_idempotent(self, setup):
        rng = np.random.default_rng(23)
        f = rand_blocks(setup, rng)
        once = induced_boundary_op(f, w("ab"))
        twice = induced_boundary_op(once, w("ab"))
        assert induced_distance(once, twice) <= 1e-10


class TestCoefficientRouting:
    def test_coefficients_match_through_intertwiner(self, setup):
        """Matrix coefficients computed in block form agree with those of the
        induced system through the intertwiner."""
        rng = np.random.default_rng(29)
        f = rand_blocks(setup, rng)
        jf = intertwiner_J(f, setup["layout"], setup["ind_space"])
        for text in ("e", "a", "ab", "ba", "AA"):
            x = w(text)
            via_blocks = induced_inner(induced_action(x, f), f)
            via_system = coefficient(x, jf, jf, backend="fast")
            assert abs(via_blocks - via_system) <= 1e-9
