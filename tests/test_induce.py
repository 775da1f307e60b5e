import numpy as np
import pytest

from mbrep import induce
from mbrep.errors import CapExceededError, DepthError
from mbrep.induce import (MAX_INTERTWINER_DEPTH, InducedVector, _argument,
                          _decompose_element, boundary_pullback, induce_system,
                          induced_action, induced_boundary_op, induced_inner,
                          intertwiner_J)
from mbrep.multrep import (MultVector, RepSpace, act, coefficient, cylinder_op,
                           deepen, distance, evaluate, inner, point_values)
from mbrep.subgroups import (FiniteGroup, coset_table_from_quotient, rewrite_to_subgroup,
                             schreier)
from mbrep.system import compatibility_residual, spherical_system, validate
from mbrep.words import Alphabet, Word, multiply, sphere, sphere_size

from helpers import induced_distance, random_system, s3_quotient

A2 = Alphabet.rank(2)


def w(text):
    return Word.parse(A2, text)


def induced_setup(group, images, rng=None):
    """Induction through a quotient, from the spherical subgroup system or,
    given ``rng``, from a seeded random one."""
    data = schreier(coset_table_from_quotient(A2, group, images))
    if rng is None:
        sub_system, sub_forms = spherical_system(data.subgroup_alphabet)
    else:
        space, _ = random_system(rng, data.subgroup_alphabet)
        sub_system, sub_forms = space.system, space.forms
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
def cyclic3_random_setup():
    """Index 3 from a random subgroup system, whose values round differently
    when the products are taken in another order."""
    return induced_setup(FiniteGroup.cyclic(3), {A2.letter("a"): 1, A2.letter("b"): 0},
                         np.random.default_rng(71))


@pytest.fixture(scope="module")
def s3_setup():
    """Induction through the non-abelian quotient S3 (index 6)."""
    return induced_setup(*s3_quotient(A2))


@pytest.fixture(scope="module")
def s3_swapped_setup():
    """S3 with the letter images exchanged (a to a 3-cycle, b to a
    transposition): here a crossing step after the first level cancels."""
    group, images = s3_quotient(A2)
    a, b = A2.letter("a"), A2.letter("b")
    return induced_setup(group, {a: images[b], b: images[a]})


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
        seed = MultVector(space, 1, {Word.parse(space.alphabet, "a"): [1.0]})
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
        # the chosen level holds one row per word, as wide as the space of the
        # word's last letter: at index 6, 21 entries per word on average, more
        # than the 6 routes per word that the level search held
        rng = np.random.default_rng(17)
        f = rand_blocks(s3_setup, rng)
        args = (s3_setup["layout"], s3_setup["ind_space"])
        jf = intertwiner_J(f, *args)
        space = s3_setup["ind_space"]
        entries = sum(space.dim(y.last()) for y in sphere(A2, jf.depth))
        assert entries > sphere_size(A2, jf.depth) * len(s3_setup["data"].transversal)
        monkeypatch.setattr(induce, "DEFAULT_CAP", entries - 1)
        with pytest.raises(CapExceededError, match=f"level {jf.depth} would store {entries} entries"):
            intertwiner_J(f, *args)
        monkeypatch.setattr(induce, "DEFAULT_CAP", entries)
        assert_same_vector(intertwiner_J(f, *args), jf)

    @pytest.mark.parametrize("name", ["setup", "s3_swapped_setup"])
    def test_induced_action_unitary(self, name, request):
        # at the swapped S3 layout a block moves by subgroup words of up to
        # five letters over a 14-letter alphabet, to depth 6 (5.2M words)
        s = request.getfixturevalue(name)
        rng = np.random.default_rng(13)
        f = rand_blocks(s, rng)
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
    """Same depth, same keys in the same order, and the same bits in every
    value, down to the sign of a zero."""
    assert got.depth == want.depth
    # each read of values decodes the level, so read it once
    got, want = got.values, want.values
    assert list(got) == list(want)
    for word, v in want.items():
        assert got[word].dtype == v.dtype and got[word].tobytes() == v.tobytes()


def prefix_routes(data, layout, length):
    """Every reduced prefix x of the given length with its routes, in sphere
    order, stepped depth-first from e.  With (u, jc) = ``layout.edges[a][v]``,
    x.a.v^-1 = x.u^-1 . (u.a.v^-1): a tree edge keeps the route of (x, u),
    and a crossing edge appends jc to its h."""
    alphabet = data.table.alphabet
    sub_inv = data.subgroup_alphabet.inv
    stack = [((), layout.root)]
    while stack:
        x, rx = stack.pop()
        if len(x) == length:
            yield x, rx
            continue
        for a in reversed(next_letters(alphabet, x)):
            stack.append((x + (a,), [rx[u] if jc < 0 else (rx[u][0], _argument(rx[u][1], jc, sub_inv))
                                     for u, jc in layout.edges[a]]))


def next_letters(alphabet, x):
    """The letters a with x.a reduced, ascending (the sphere order)."""
    return [a for a in range(len(alphabet)) if not x or a != alphabet.inv[x[-1]]]


def level_arguments(data, layout, depth):
    """Per word x.a of the sphere of radius ``depth``, in sphere order, the
    (source index, argument letters) of each block of a, routed through
    :func:`prefix_routes`."""
    sub_inv = data.subgroup_alphabet.inv
    for x, rx in prefix_routes(data, layout, depth - 1):
        for a in next_letters(data.table.alphabet, x):
            yield x + (a,), [(rx[u][0], _argument(rx[u][1], j, sub_inv))
                             for u, j in layout.pairs[a]]


def searched_depth(f, layout, levels=MAX_INTERTWINER_DEPTH):
    """The intertwiner's depth as the level search found it: route the
    sphere levels 1, 2, ... and stop at the first with no block argument
    shorter than its source's depth.  Each inadmissible level stops at its
    first short argument; None when none of ``levels`` levels is
    admissible."""
    for depth in range(1, levels + 1):
        if all(s not in f.blocks or len(arg) >= f.blocks[s].depth
               for _, args in level_arguments(f.data, layout, depth) for s, arg in args):
            return depth
    return None


class TestOnePassIntertwiner:
    """J chooses the depth the per-depth search chose and gives bit-identical
    values in the same key order; its depth recursion and its level steps
    follow the routes that rewriting gives."""

    # S3 blocks of depth 3 reach depth 10, where the search takes minutes
    @pytest.mark.parametrize("name,block_depth", [
        ("setup", 1), ("setup", 2), ("setup", 3), ("cyclic3_setup", 1),
        ("cyclic3_setup", 2), ("cyclic3_setup", 3), ("cyclic3_random_setup", 1),
        ("cyclic3_random_setup", 2), ("s3_setup", 1), ("s3_setup", 2), ("s3_swapped_setup", 1)])
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
                                            ("cyclic3_setup", ("A", "ab")),
                                            ("cyclic3_random_setup", ("b", "aB"))])
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

    def test_evaluates_one_level(self, setup, monkeypatch):
        """J makes no per-block point read beyond level 1: a point
        evaluation reads only a first-level argument that is already longer
        than its source's depth; every later value is a table read or a step
        of the induced maps.  At index 2 such arguments exist, and a block
        of the word a has an empty argument, so J goes deeper than 1."""
        layout, space = setup["layout"], setup["ind_space"]
        rng = np.random.default_rng(47)
        calls = []

        def counting(src):
            value_at = point_values(src)

            def counted(letters):
                calls.append(letters)
                return value_at(letters)

            return counted

        monkeypatch.setattr(induce, "point_values", counting)
        plain = rand_blocks(setup, rng)
        for f in (plain, induced_action(w("ab"), plain)):
            calls.clear()
            assert intertwiner_J(f, layout, space).depth > 1
            longer = [arg for firsts in layout.first for s, arg in firsts
                      if s in f.blocks and len(arg) > f.blocks[s].depth]
            assert calls == longer
            assert len(calls) < sum(len(p) for p in layout.pairs)
            assert calls or f is not plain

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
            for x, rx in prefix_routes(data, layout, length):
                prefixes.append(x)
                assert len(rx) == data.index
                for u_idx, route in enumerate(rx):
                    src_idx, h = _decompose_element(data, x + inverses[u_idx])
                    assert route == (src_idx, rewrite_to_subgroup(h, data).letters)
            assert prefixes == [y.letters for y in sphere(A2, length)]

    @pytest.mark.parametrize("name", ["setup", "cyclic3_setup", "s3_setup", "s3_swapped_setup"])
    def test_least_depth_matches_level_search(self, name, request, monkeypatch):
        """The min-plus depth is the level search's depth: for blocks of
        depth 1 to 3, for a vector with a block left out, and for images
        under two cylinder operators and three translations.  The cap is
        lifted, so that the depth search runs past the levels J may store."""
        s = request.getfixturevalue(name)
        layout = s["layout"]
        rng = np.random.default_rng(59)
        f = rand_blocks(s, rng)
        cases = [rand_blocks(s, rng, depth=d) for d in (1, 2, 3)]
        cases.append(InducedVector(s["data"], f.space, dict(list(f.blocks.items())[1:])))
        cases += [induced_boundary_op(f, w(text)) for text in ("a", "ab")]
        # at the swapped S3 layout, _least_depth raises DepthError for all
        # three translations even with the cap lifted
        if name != "s3_swapped_setup":
            cases += [induced_action(w(text), f) for text in ("a", "Ba", "ab")]
        monkeypatch.setattr(induce, "DEFAULT_CAP", 10 ** 15)
        depths = []
        for g in cases:
            try:
                depths.append(induce._least_depth(g, layout))
            except DepthError:
                depths.append(None)
        for g, depth in zip(cases, depths):
            # the search routes a whole admissible level, and an inadmissible
            # one up to its first short argument: both take seconds at index 6
            # past levels 8 and 11
            if depth is not None and depth <= 8:
                assert searched_depth(g, layout) == depth
            elif depth is not None and depth <= 11:
                assert searched_depth(g, layout, depth - 1) is None
        assert None not in depths
        if name == "s3_setup":
            assert depths[-2] == 14  # moved by Ba; the level search stopped at its cap there

    @pytest.mark.parametrize("name", ["setup", "cyclic3_setup", "s3_setup", "s3_swapped_setup"])
    def test_arguments_step_through_the_feeding_blocks(self, name, request):
        """Up to words of length 6, each block argument at x.a.b is the
        argument of the block feeding it at x.a, kept on a copy and with the
        block's generator appended on a crossing, and the append cancels
        only where the feeding argument does not end in its block's
        generator.  In the first three layouts no step after level 1
        cancels; in the swapped S3 layout one does."""
        s = request.getfixturevalue(name)
        data, layout = s["data"], s["layout"]
        sub_inv = data.subgroup_alphabet.inv
        previous = dict(level_arguments(data, layout, 1))
        assert previous == {(a,): layout.first[a] for a in range(len(A2))}
        cancels = 0
        for depth in range(2, 7):
            current = dict(level_arguments(data, layout, depth))
            for y, args in current.items():
                a, b = y[-2], y[-1]
                fed = [(k, ka, jc) for ka, targets in enumerate(layout.targets[a])
                       for b_to, k, jc in targets if b_to == b]
                assert sorted(k for k, _, _ in fed) == list(range(len(args)))
                for k, ka, jc in fed:
                    (s_to, arg), (s_from, arg_from) = args[k], previous[y[:-1]][ka]
                    jd = layout.pairs[b][k][1]
                    assert s_to == s_from
                    if jc < 0:
                        assert arg == arg_from
                        continue
                    assert arg == _argument(arg_from, jd, sub_inv)
                    if len(arg) < len(arg_from):
                        cancels += 1
                        assert arg_from[-1:] != (layout.pairs[a][ka][1],)
            previous = current
        assert (cancels > 0) == (name == "s3_swapped_setup")


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
