import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from mbrep import cli, fileio
from mbrep.errors import ValidationError
from mbrep.multrep import MultVector, RepSpace
from mbrep.system import compatibility_residual, spherical_system, validate
from mbrep.vfree import psl2z_datum, vf_validate
from mbrep.words import Alphabet, Word, sphere

from exact import QuadExt, exact_coefficient, load_exact_builtin, load_exact_vector
from helpers import random_system, random_vector, save_vector

A2 = Alphabet.rank(2)


class TestSystemFiles:
    def test_roundtrip_random_system(self, tmp_path):
        rng = np.random.default_rng(2)
        space, _ = random_system(rng)
        path = tmp_path / "sys.json"
        fileio.save_system(str(path), space.system, space.forms)
        loaded, forms = fileio.load_system(str(path))
        assert validate(loaded) == []
        assert loaded.dims == space.system.dims
        for b in range(4):
            for a in range(4):
                assert np.allclose(loaded.map(b, a), space.system.map(b, a))
        for a in range(4):
            assert np.allclose(forms[a], space.forms[a])

    def test_builtin_spherical(self):
        path = cli._resolve("builtin:spherical2")
        system, forms = fileio.load_system(path)
        assert validate(system) == []
        assert compatibility_residual(system, forms) <= 1e-12

    def test_omitted_maps_are_zero(self, tmp_path):
        doc = {
            "alphabet": ["a", "A", "b", "B"],
            "involution": [["a", "A"], ["b", "B"]],
            "dims": {"a": 1, "A": 1, "b": 1, "B": 1},
            "maps": {"a|b": [[0.5]]},
        }
        path = tmp_path / "sparse.json"
        path.write_text(json.dumps(doc))
        system, forms = fileio.load_system(str(path))
        assert forms is None
        assert np.abs(system.map(0, 3)).max() == 0
        assert system.map(0, 2)[0, 0] == 0.5

    def test_bad_map_key_rejected(self, tmp_path):
        doc = {
            "alphabet": ["a", "A", "b", "B"],
            "involution": [["a", "A"], ["b", "B"]],
            "dims": {"a": 1, "A": 1, "b": 1, "B": 1},
            "maps": {"ab": [[0.5]]},
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValidationError):
            fileio.load_system(str(path))

    def test_complex_entries(self, tmp_path):
        doc = {
            "alphabet": ["a", "A", "b", "B"],
            "involution": [["a", "A"], ["b", "B"]],
            "dims": {"a": 1, "A": 1, "b": 1, "B": 1},
            "maps": {"a|b": [[[0.5, -0.25]]]},
        }
        path = tmp_path / "cplx.json"
        path.write_text(json.dumps(doc))
        system, _ = fileio.load_system(str(path))
        assert system.map(0, 2)[0, 0] == 0.5 - 0.25j

    @pytest.mark.parametrize("entry", ["1/0", "1/0*rt", "1/2+1/00*rt"])
    def test_zero_denominator_rejected(self, entry, tmp_path):
        doc = _builtin_doc("spherical2-exact")
        doc["maps"]["a|b"] = [[entry]]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValidationError):
            fileio.load_system(str(path))

    def test_exact_builtin(self):
        system, forms = fileio.load_system(cli._resolve("builtin:spherical2-exact"))
        exact = load_exact_builtin()
        assert exact.compatibility_holds()
        for (b, a), m in exact.maps.items():
            assert system.map(b, a)[0, 0] == float(m[0][0])
        assert all(forms[a][0, 0] == float(exact.forms[a][0][0]) for a in range(4))
        f = load_exact_vector(cli._resolve("builtin:seed-a"), exact)
        val = exact_coefficient(Word.parse(A2, "a"), f, f)
        assert val.square().as_fraction() == Fraction(1, 3)


RATIONALS = st.fractions(min_value=-10 ** 6, max_value=10 ** 6, max_denominator=10 ** 6)


class TestExactEntries:
    """Exact entries a + b*rt load as float(a) + float(b) * sqrt(radicand),
    bit for bit the float of the exact oracle's number."""

    @staticmethod
    def _load_entry(tmp_path, entry, radicand):
        doc = _builtin_doc("spherical2-exact")
        doc["radicand"] = str(radicand)
        doc["maps"]["a|b"] = [[entry]]
        path = tmp_path / "entry.json"
        path.write_text(json.dumps(doc))
        system, _ = fileio.load_system(str(path))
        return system.map(A2.letter("a"), A2.letter("b"))[0, 0]

    @settings(derandomize=True, max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(a=RATIONALS, b=RATIONALS,
           k=st.fractions(min_value=0, max_value=10 ** 6, max_denominator=10 ** 6)
           .filter(lambda k: k > 0))
    def test_float_parity(self, tmp_path, a, b, k):
        for entry, want in ((f"{a}", QuadExt(a, 0, k)), (f"{b}*rt", QuadExt(0, b, k)),
                            (f"{a}+{b}*rt", QuadExt(a, b, k))):
            got = self._load_entry(tmp_path, entry, k)
            assert got.imag == 0.0 and got.real == float(want), entry
        big, top = (a or 1) * 10 ** 400, 10 ** 308
        for entry, radicand in ((f"{big}", k), (f"{a}+{big}*rt", k),
                                (f"{top}+{top}*rt", max(k, 1))):
            with pytest.raises(ValidationError):
                self._load_entry(tmp_path, entry, radicand)

    def test_builtin_entry(self):
        system, _ = fileio.load_system(cli._resolve("builtin:spherical2-exact"))
        got = system.map(A2.letter("a"), A2.letter("a"))[0, 0]
        assert got == 0.0 + float(Fraction(1, 3)) * 3 ** 0.5


class TestVectorFiles:
    def test_roundtrip(self, tmp_path, spherical_space):
        rng = np.random.default_rng(5)
        v = random_vector(spherical_space, rng, depth=2)
        path = tmp_path / "vec.json"
        save_vector(str(path), v)
        loaded = fileio.load_vector(str(path), spherical_space)
        assert loaded.depth == v.depth
        assert loaded.values.keys() == v.values.keys()
        for k in v.values:
            assert np.allclose(loaded.values[k], v.values[k])

    def test_dimension_mismatch_rejected(self, tmp_path, spherical_space):
        path = tmp_path / "vec.json"
        path.write_text(json.dumps({"depth": 1, "values": {"a": [1.0, 2.0]}}))
        with pytest.raises(ValidationError):
            fileio.load_vector(str(path), spherical_space)


JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3),
    lambda kids: st.lists(kids, max_size=3) | st.dictionaries(st.text(max_size=3), kids,
                                                               max_size=3),
    max_leaves=8)


@st.composite
def mutated(draw, base: dict):
    """``base`` with up to three edits, each replacing one value somewhere
    inside it by arbitrary JSON or dropping one key."""
    doc = json.loads(json.dumps(base))
    for _ in range(draw(st.integers(1, 3))):
        node = doc
        while node:
            key = draw(st.sampled_from(list(node) if isinstance(node, dict) else range(len(node))))
            child = node[key]
            if isinstance(child, (dict, list)) and child and draw(st.booleans()):
                node = child
                continue
            if isinstance(node, dict) and draw(st.integers(0, 4)) == 0:
                del node[key]
            else:
                node[key] = draw(JSON)
            break
    return doc


def _builtin_doc(name):
    with open(cli._resolve(f"builtin:{name}")) as fh:
        return json.load(fh)


def _psl2z_doc():
    """The built-in PSL(2,Z) datum written as a datum file."""
    datum = psl2z_datum()
    grp = datum.group
    return {
        "name": "psl2z-copy",
        "factors": list(grp.orders),
        "generators": list(grp.names),
        "transversal": [grp.format(t) for t in datum.transversal],
        "free_basis": [grp.format(datum.basis_elements[0]),
                       grp.format(datum.basis_elements[2])],
        "table": {
            f"{grp.format(datum.transversal[t])}|{grp.names[f]}":
                [grp.format(datum.transversal[t2]), str(word)]
            for (t, f), (word, t2) in datum.table.items()
        },
    }


@pytest.fixture(scope="module")
def exact_spherical():
    return load_exact_builtin()


class TestLoaderFuzz:
    @settings(derandomize=True, max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(doc=JSON | mutated(_builtin_doc("spherical2")) | mutated(_builtin_doc("spherical2-exact"))
           | mutated(_builtin_doc("seed-a")))
    def test_any_document_loads_or_fails_validation(self, doc, spherical_space, tmp_path_factory):
        path = tmp_path_factory.getbasetemp() / "fuzz.json"
        path.write_text(json.dumps(doc))
        for load in (fileio.load_system, lambda p: fileio.load_vector(p, spherical_space)):
            try:
                load(str(path))
            except ValidationError as err:
                assert str(path) in str(err)

    @settings(derandomize=True, max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(doc=JSON | mutated(_builtin_doc("index2-quotient")) | mutated(_psl2z_doc())
           | mutated(_builtin_doc("seed-a")))
    def test_quotient_datum_and_exact_vector_load_or_fail_validation(
            self, doc, exact_spherical, tmp_path_factory):
        path = tmp_path_factory.getbasetemp() / "fuzz.json"
        path.write_text(json.dumps(doc))
        for load in (lambda p: fileio.load_quotient(p, A2), fileio.load_vf_datum,
                     lambda p: load_exact_vector(p, exact_spherical)):
            try:
                load(str(path))
            except ValidationError:
                pass


class TestVFDatumFiles:
    def test_psl2z_roundtrip(self, tmp_path):
        path = tmp_path / "datum.json"
        path.write_text(json.dumps(_psl2z_doc()))
        loaded = fileio.load_vf_datum(str(path))
        assert vf_validate(loaded) == []
        assert loaded.name == "psl2z-copy"


class TestCli:
    def test_normalize_writes_reloadable_file(self, tmp_path, capsys):
        out = tmp_path / "norm.json"
        code = cli.main(["normalize", "--input", cli._resolve("builtin:spherical2-unscaled"),
                         "--output", str(out)])
        assert code == 0
        text = capsys.readouterr().out
        assert "spectral_radius=3" in text
        system, forms = fileio.load_system(str(out))
        assert validate(system) == []
        assert compatibility_residual(system, forms) <= 1e-9

    def test_normalize_prints_solver_decisions(self, tmp_path, capsys):
        def lines(argv):
            assert cli.main(argv) == 0
            return dict(line.split("=", 1) for line in capsys.readouterr().out.splitlines()
                        if "=" in line)

        spherical = lines(["normalize", "--input", "builtin:spherical2-unscaled"])
        assert (spherical["solver"], spherical["degenerate"]) == ("power", "0")
        assert int(spherical["iterations"]) >= 1
        # maps only between {a, A} and {b, B}: the transfer map has period 2,
        # so the power iteration cycles and the dense solve takes over
        weights = {"b|a": 1.0, "B|a": 2.0, "b|A": 1.5, "B|A": 0.5,
                   "a|b": 1.0, "A|b": 0.7, "a|B": 1.2, "A|B": 0.3}
        doc = {"alphabet": ["a", "A", "b", "B"], "involution": [["a", "A"], ["b", "B"]],
               "dims": {"a": 1, "A": 1, "b": 1, "B": 1},
               "maps": {k: [[v]] for k, v in weights.items()}}
        path = tmp_path / "bipartite.json"
        path.write_text(json.dumps(doc))
        bipartite = lines(["normalize", "--input", str(path)])
        assert (bipartite["solver"], bipartite["degenerate"]) == ("dense", "1")
        assert int(bipartite["iterations"]) >= 1
        assert float(bipartite["residual"]) <= 1e-9

    def test_normalize_degenerate_exit(self, tmp_path, capsys):
        doc = {
            "alphabet": ["a", "A", "b", "B"],
            "involution": [["a", "A"], ["b", "B"]],
            "dims": {"a": 1, "A": 1, "b": 1, "B": 1},
            "maps": {},
        }
        path = tmp_path / "zero.json"
        path.write_text(json.dumps(doc))
        assert cli.main(["normalize", "--input", str(path)]) == cli.EXIT_MATH

    def test_normalize_invalid_exit(self, tmp_path):
        path = tmp_path / "broken.json"
        doc = {
            "alphabet": ["a", "A", "b", "B"],
            "involution": [["a", "A"], ["b", "B"]],
            "dims": {"a": 0, "A": 1, "b": 1, "B": 1},
            "maps": {},
        }
        path.write_text(json.dumps(doc))
        assert cli.main(["normalize", "--input", str(path)]) == cli.EXIT_VALIDATION

    def test_invalid_system_names_its_file(self, tmp_path, capsys):
        # the structural check runs after the file has loaded
        doc = json.loads(Path(cli._resolve("builtin:spherical2")).read_text())
        doc["dims"]["a"] = 0
        doc["maps"] = {k: m for k, m in doc["maps"].items() if "a" not in k.split("|")}
        doc["forms"]["a"] = []
        path = tmp_path / "no-a.json"
        path.write_text(json.dumps(doc))
        code = cli.main(["herz", "--system", str(path), "--vector", "builtin:seed-a"])
        assert code == cli.EXIT_VALIDATION
        err = capsys.readouterr().err
        assert str(path) in err and "letter a has dimension 0" in err

    def test_incompatible_forms_name_their_file(self, tmp_path, capsys):
        # the forms are checked against the maps after the file has loaded
        doc = json.loads(Path(cli._resolve("builtin:spherical2")).read_text())
        doc["forms"]["a"] = [[2.0]]
        path = tmp_path / "bad-forms.json"
        path.write_text(json.dumps(doc))
        code = cli.main(["coefficients", "--system", str(path), "--vector", "builtin:seed-a",
                         "--words", "a"])
        assert code == cli.EXIT_VALIDATION
        err = capsys.readouterr().err
        assert str(path) in err and "forms are not compatible with the maps" in err

    def test_coefficients_deterministic(self, tmp_path):
        out1, out2 = tmp_path / "c1.csv", tmp_path / "c2.csv"
        args = ["coefficients", "--system", "builtin:spherical2",
                "--vector", "builtin:seed-a", "--words", "e,a,ab,B",
                "--backend", "both"]
        assert cli.main(args + ["--output", str(out1)]) == 0
        assert cli.main(args + ["--output", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_coefficients_empty_word_list(self, tmp_path):
        out = tmp_path / "empty.csv"
        code = cli.main(["coefficients", "--system", "builtin:spherical2",
                         "--vector", "builtin:seed-a", "--words", "",
                         "--output", str(out)])
        assert code == 0
        lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        assert lines == ["word,re,im,backend,depth"]

    def test_cap_exit_code(self):
        code = cli.main(["coefficients", "--system", "builtin:spherical2",
                         "--vector", "builtin:seed-a", "--words", "ab",
                         "--backend", "brute", "--cap", "10"])
        assert code == cli.EXIT_CAP

    def test_induce_reports_dims(self, tmp_path, capsys):
        out = tmp_path / "ind.json"
        code = cli.main(["induce", "--system", "builtin:spherical3",
                         "--quotient", cli._resolve("builtin:index2-quotient"),
                         "--trials", "3", "--output", str(out)])
        assert code == 0
        text = capsys.readouterr().out
        assert "(4, 4, 2, 2)" in text
        system, forms = fileio.load_system(str(out))
        assert validate(system) == []
        assert compatibility_residual(system, forms) <= 1e-9

    def test_normalize_defaults_compose_with_induce(self, tmp_path, capsys):
        # a random rank-3 subgroup system prepared at the CLI's default
        # tolerance must pass induction's absolute intertwiner gates
        alphabet = Alphabet.rank(3)
        names = alphabet.names
        rng = np.random.default_rng(1)
        dims = [int(d) for d in rng.integers(1, 3, size=len(names))]
        maps = {}
        for b in range(len(names)):
            for a in range(len(names)):
                if alphabet.inv[a] != b:
                    re, im = (rng.normal(size=(dims[b], dims[a])).tolist() for _ in range(2))
                    maps[f"{names[b]}|{names[a]}"] = [
                        [[x, y] for x, y in zip(r1, r2)] for r1, r2 in zip(re, im)]
        raw, sub = tmp_path / "raw.json", tmp_path / "sub.json"
        raw.write_text(json.dumps({
            "alphabet": list(names), "involution": [["a", "A"], ["b", "B"], ["c", "C"]],
            "dims": dict(zip(names, dims)), "maps": maps}))
        assert cli.main(["normalize", "--input", str(raw), "--output", str(sub)]) == 0
        code = cli.main(["induce", "--system", str(sub), "--quotient", "builtin:index2-quotient"])
        assert code == 0, capsys.readouterr().out

    def test_herz_pass(self, tmp_path):
        out = tmp_path / "herz.csv"
        code = cli.main(["herz", "--system", "builtin:spherical2",
                         "--vector", "builtin:seed-a", "--radius", "2",
                         "--output", str(out)])
        assert code == 0
        body = out.read_text()
        assert "FAIL" not in body
        assert "# failures=0" in body

    def test_herz_cap_exit_code(self, capsys):
        # the radius-3 check reads the masses of spheres 1 to 7, 4,372
        # entries, and the measure grows its arrays to them before any check
        code = cli.main(["herz", "--system", "builtin:spherical2",
                         "--vector", "builtin:seed-a", "--radius", "3",
                         "--cap", "200"])
        assert code == cli.EXIT_CAP
        err = capsys.readouterr().err
        assert err.startswith("resource cap:")
        assert len(err.strip().splitlines()) == 1

    def test_herz_builds_one_measure(self, tmp_path, monkeypatch):
        from mbrep import boundary_measure, multrep

        counts = {"spectral_measure": 0, "levels": 0}
        build, propagate = boundary_measure.spectral_measure, multrep.deepen

        def spectral_measure(*args, **kwargs):
            counts["spectral_measure"] += 1
            return build(*args, **kwargs)

        def deepen(f, new_depth, **kwargs):
            counts["levels"] += new_depth - f.depth
            return propagate(f, new_depth, **kwargs)

        monkeypatch.setattr(boundary_measure, "spectral_measure", spectral_measure)
        monkeypatch.setattr(cli, "spectral_measure", spectral_measure)
        monkeypatch.setattr(multrep, "deepen", deepen)
        code = cli.main(["herz", "--system", "builtin:spherical2",
                         "--vector", "builtin:seed-a", "--radius", "3",
                         "--output", str(tmp_path / "herz.csv")])
        assert code == 0
        assert counts["spectral_measure"] == 1
        # the measure steps its mass arrays out with the level step, not
        # deepen, and the identity's coefficient pairs at the vector's own
        # depth, so no table is deepened
        assert counts["levels"] == 0

    def test_vf_induce(self, tmp_path):
        out = tmp_path / "vf.csv"
        code = cli.main(["vf-induce", "--datum", "psl2z",
                         "--system", "builtin:spherical2",
                         "--vector", "builtin:seed-a", "--radius", "2",
                         "--output", str(out)])
        assert code == 0
        header = [l for l in out.read_text().splitlines() if l.startswith("#")]
        assert [l.split("=")[0] for l in header] == [
            "# command", "# datum", "# radius", "# gram_min_eigenvalue"]

    def test_vf_induce_cap_exit_code(self, capsys):
        # the radius-6 ball of PSL(2,Z) has 62 elements
        code = cli.main(["vf-induce", "--datum", "psl2z", "--system", "builtin:spherical2",
                         "--vector", "builtin:seed-a", "--radius", "6", "--cap", "10"])
        assert code == cli.EXIT_CAP
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("resource cap:")

    def test_vf_induce_gram_cap_in_a_child(self, tmp_path):
        """A radius whose ball fits the cap but whose Gram matrix does not
        exits 3 with one line before any matrix is allocated; a run that
        fits never imports ``numpy.random``."""
        src = str(Path(cli.__file__).resolve().parents[1])
        argv = ["vf-induce", "--system", "builtin:spherical2", "--vector", "builtin:seed-a"]
        script = ("import sys; from mbrep import cli; code = cli.main(sys.argv[1:]); "
                  "print('numpy.random' in sys.modules); sys.exit(code)")

        def child(*extra):
            return subprocess.run([sys.executable, "-c", script, *argv, *extra],
                                  capture_output=True, text=True, cwd=tmp_path,
                                  env={**os.environ, "PYTHONPATH": src}, timeout=120)

        # radius 17 has 2,554 elements and radius 18 3,578: 6.5M and 12.8M entries
        big = child("--radius", "18")
        assert big.returncode == cli.EXIT_CAP
        err = big.stderr.splitlines()
        assert len(err) == 1 and err[0].startswith("resource cap:")
        assert "Traceback" not in big.stderr
        small = child("--radius", "3", "--output", "vf.csv")
        assert small.returncode == 0 and small.stdout == "False\n"

    @pytest.mark.parametrize("argv", [
        # a power solve, so the degeneracy probe runs
        ["normalize", "--input", "builtin:spherical2-unscaled", "--output", "sys.json"],
        ["vf-induce", "--system", "builtin:spherical2", "--vector", "builtin:seed-a",
         "--radius", "4", "--output", "vf.csv"]], ids=["normalize", "vf-induce"])
    def test_command_does_not_import_numpy_random(self, argv, tmp_path):
        """Neither command draws random numbers, so a child that runs it
        has not imported ``numpy.random`` after ``cli.main``."""
        src = str(Path(cli.__file__).resolve().parents[1])
        script = ("import sys; from mbrep import cli; code = cli.main(sys.argv[1:]); "
                  "print('numpy.random' in sys.modules); sys.exit(code)")
        proc = subprocess.run([sys.executable, "-c", script, *argv], capture_output=True,
                              text=True, cwd=tmp_path, env={**os.environ, "PYTHONPATH": src},
                              timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "False"

    @pytest.mark.parametrize("command", ["vf-induce", "herz"])
    def test_negative_radius_exits_validation(self, command, capsys):
        argv = [command, "--system", "builtin:spherical2", "--vector", "builtin:seed-a",
                "--radius", "-1"]
        assert cli.main(argv) == cli.EXIT_VALIDATION
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("validation failure:")
        assert "radius" in err[0]

    @pytest.mark.parametrize("argv,word", [
        (["induce", "--system", "builtin:spherical3", "--quotient", "builtin:index2-quotient",
          "--trials", "-2"], "trials"),
        (["demo-no-hc", "--uniform-rank", "2", "--word", "ab", "--max-power", "-1"], "power"),
        (["demo-no-hc", "--uniform-rank", "2", "--word", "a", "--max-power", "0"], "power")])
    def test_negative_count_exits_validation(self, argv, word, tmp_path, capsys):
        out = tmp_path / "out"
        assert cli.main(argv + ["--output", str(out)]) == cli.EXIT_VALIDATION
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("validation failure:")
        assert word in err[0]
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["demo-no-hc", "--uniform-rank", "1200000", "--word", "a"],
        ["induce", "--system", "builtin:spherical3", "--quotient", "builtin:index2-quotient",
         "--base-rank", "1200000"]], ids=["uniform-rank", "base-rank"])
    def test_huge_rank_exits_validation(self, argv, tmp_path, capsys):
        """A rank beyond the 26 letter names is one validation line, not an
        exception out of building the letter names."""
        out = tmp_path / "out"
        assert cli.main(argv + ["--output", str(out)]) == cli.EXIT_VALIDATION
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.count("\n") == 1 and err.startswith("validation failure:")
        assert "rank must be between 2 and 26" in err
        assert not out.exists()

    @pytest.mark.parametrize("order", [26, 3000])
    def test_subgroup_rank_beyond_letter_names_exits_validation(self, order, tmp_path, capsys):
        """A quotient whose kernel has more generators than letter names
        fails in one validation line that names the index and the forced
        rank 1 + index, before the Schreier generators are built."""
        quotient = tmp_path / "q.json"
        quotient.write_text(json.dumps({"quotient": {"cyclic": order,
                                                     "images": {"a": 1, "b": 0}}}))
        out = tmp_path / "out"
        start = time.perf_counter()
        code = cli.main(["induce", "--system", "builtin:spherical3", "--quotient", str(quotient),
                         "--output", str(out)])
        assert time.perf_counter() - start < 1.0
        assert code == cli.EXIT_VALIDATION
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.count("\n") == 1 and err.startswith("validation failure:")
        assert f"index {order} in the free group of rank 2 has rank {order + 1}" in err
        assert not out.exists()

    @pytest.mark.parametrize("extra", [[], ["--uniform-rank", "0"],
                                       ["--system", "builtin:spherical2"]],
                             ids=["no-source", "rank-zero", "no-vector"])
    def test_demo_without_measure_exits_validation(self, extra, tmp_path, capsys):
        out = tmp_path / "out"
        argv = ["demo-no-hc", "--word", "ab", "--output", str(out)] + extra
        assert cli.main(argv) == cli.EXIT_VALIDATION
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("validation failure:")
        assert not out.exists()

    @pytest.mark.parametrize("value", ["0", "-1", "nan"])
    @pytest.mark.parametrize("argv", [
        ["normalize", "--input", "builtin:spherical2-unscaled"],
        ["induce", "--system", "builtin:spherical3", "--quotient", "builtin:index2-quotient",
         "--trials", "1"],
        ["herz", "--system", "builtin:spherical2", "--vector", "builtin:seed-a", "--radius", "1"],
    ], ids=["normalize", "induce", "herz"])
    def test_bad_tolerance_exits_validation(self, argv, value, tmp_path, capsys):
        out = tmp_path / "out"
        assert cli.main(argv + ["--tolerance", value, "--output", str(out)]) == cli.EXIT_VALIDATION
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("validation failure:")
        assert "tolerance" in err[0]
        assert not out.exists()

    @pytest.mark.parametrize("value", ["0", "-5", "2.5"])
    @pytest.mark.parametrize("argv", [
        ["coefficients", "--system", "builtin:spherical2", "--vector", "builtin:seed-a",
         "--words", "ab", "--backend", "both"],
        ["vf-induce", "--system", "builtin:spherical2", "--vector", "builtin:seed-a",
         "--radius", "1"],
        ["herz", "--system", "builtin:spherical2", "--vector", "builtin:seed-a", "--radius", "1"],
        ["demo-no-hc", "--uniform-rank", "2", "--word", "ab", "--max-power", "1"],
    ], ids=["coefficients", "vf-induce", "herz", "demo-no-hc"])
    def test_bad_cap_exits_validation(self, argv, value, tmp_path, capsys):
        out = tmp_path / "out"
        assert cli.main(argv + ["--cap", value, "--output", str(out)]) == cli.EXIT_VALIDATION
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("validation failure:")
        assert "cap" in err[0]
        assert not out.exists()

    @pytest.mark.parametrize("value", ["-1", "-7", "2.5"])
    @pytest.mark.parametrize("argv", [
        ["induce", "--system", "builtin:spherical3", "--quotient", "builtin:index2-quotient",
         "--trials", "1"],
        ["selftest"],
        ["decompose", "--input", "builtin:spherical2"],
    ], ids=["induce", "selftest", "decompose"])
    def test_bad_seed_exits_validation(self, argv, value, tmp_path, capsys):
        # selftest writes no file, so it takes no --output; decompose would
        # write out-0.json
        written = [] if argv == ["selftest"] else ["--output", str(tmp_path / "out")]
        assert cli.main(argv + ["--seed", value] + written) == cli.EXIT_VALIDATION
        err = capsys.readouterr().err
        assert "Traceback" not in err
        err = err.splitlines()
        assert len(err) == 1 and err[0].startswith("validation failure:")
        assert "seed" in err[0]
        assert list(tmp_path.iterdir()) == []

    def test_demo_uniform(self, tmp_path):
        out = tmp_path / "demo.csv"
        code = cli.main(["demo-no-hc", "--word", "ab", "--max-power", "3",
                         "--uniform-rank", "2", "--output", str(out)])
        assert code == 0
        rows = [l for l in out.read_text().splitlines() if not (l.startswith("#") or l.startswith("n,"))]
        phis = [float(r.split(",")[2]) for r in rows]
        assert all(p < 1 for p in phis)

    def test_demo_cap_exit_code(self, capsys):
        # the first Hellinger sum already partitions 324 depth-5 cylinders
        code = cli.main(["demo-no-hc", "--uniform-rank", "2", "--word", "abab",
                         "--max-power", "3", "--cap", "5"])
        assert code == cli.EXIT_CAP
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("resource cap:")

    @pytest.mark.parametrize("case", ["json", "dims", "depth", "factors", "values", "maps",
                                      "table-scalar", "table-ragged", "table-entry",
                                      "entry-pair", "entry-list", "map-rows"])
    def test_malformed_file_exits_validation(self, case, tmp_path, capsys):
        path = tmp_path / "bad.json"
        with open(cli._resolve("builtin:spherical2-unscaled")) as fh:
            system_doc = json.load(fh)
        bad_maps = json.dumps(dict(system_doc, maps=[1]))
        bad_rows = json.dumps(dict(system_doc, maps={"a|a": 5}))
        system_doc["dims"]["a"] = "x"
        induce = ["induce", "--system", "builtin:spherical3", "--quotient", str(path)]
        text, argv, field = {
            "json": ('{"alphabet": [', ["normalize", "--input", str(path)], "invalid JSON"),
            "dims": (json.dumps(system_doc), ["normalize", "--input", str(path)], "dims.a"),
            "depth": ('{"depth": "two", "values": {}}',
                      ["coefficients", "--system", "builtin:spherical2", "--vector", str(path)],
                      "depth"),
            "factors": ('{"generators": ["s", "t"]}',
                        ["vf-induce", "--datum", str(path), "--system", "builtin:spherical2",
                         "--vector", "builtin:seed-a"], "factors"),
            "values": ('{"depth": 1, "values": [1]}',
                       ["coefficients", "--system", "builtin:spherical2", "--vector", str(path)],
                       "values"),
            "maps": (bad_maps, ["normalize", "--input", str(path)], "maps"),
            "table-scalar": ('{"quotient": {"table": 5, "images": {"a": 1, "b": 0}}}',
                             induce, "quotient.table"),
            "table-ragged": ('{"quotient": {"table": [[0, 1], [1]], "images": {"a": 1, "b": 0}}}',
                             induce, "quotient.table"),
            "table-entry": ('{"quotient": {"table": [[0, 1], [1, 10000000000000000000000]], '
                            '"images": {"a": 1, "b": 0}}}', induce, "quotient.table"),
            "entry-pair": ('{"depth": 1, "values": {"a": [[1, "q"]]}}',
                           ["coefficients", "--system", "builtin:spherical2", "--vector", str(path)],
                           "values.a"),
            "entry-list": ('{"depth": 1, "values": {"a": 5}}',
                           ["coefficients", "--system", "builtin:spherical2", "--vector", str(path)],
                           "values.a"),
            "map-rows": (bad_rows, ["normalize", "--input", str(path)], "maps.a|a"),
        }[case]
        path.write_text(text)
        assert cli.main(argv) == cli.EXIT_VALIDATION
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("validation failure:")
        assert str(path) in err[0] and field in err[0]

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "1e400", "[1, -Infinity]",
                                         "1" + "0" * 400],
                             ids=["nan", "infinity", "1e400", "pair", "long-integer"])
    @pytest.mark.parametrize("where", ["map", "form", "vector"])
    def test_non_finite_entry_exits_validation(self, where, literal, tmp_path, capsys):
        path = tmp_path / "bad.json"
        with open(cli._resolve("builtin:spherical2")) as fh:
            doc = json.load(fh)
        if where == "map":
            doc["maps"]["a|b"] = [["@"]]
            argv, field = ["normalize", "--input", str(path)], "maps.a|b"
        elif where == "form":
            doc["forms"]["b"] = [["@"]]
            argv, field = ["decompose", "--input", str(path)], "forms.b"
        else:
            doc = {"depth": 1, "values": {"a": ["@"]}}
            argv = ["coefficients", "--system", "builtin:spherical2", "--vector", str(path),
                    "--words", "ab"]
            field = "values.a"
        path.write_text(json.dumps(doc).replace('"@"', literal))
        assert cli.main(argv) == cli.EXIT_VALIDATION
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("validation failure:")
        assert str(path) in err[0] and field in err[0]

    @pytest.mark.parametrize("case", ["dims", "exact-entry"])
    def test_number_beyond_float_range_exits_validation(self, case, tmp_path, capsys):
        path = tmp_path / "bad.json"
        name = "spherical2-unscaled" if case == "dims" else "spherical2-exact"
        with open(cli._resolve(f"builtin:{name}")) as fh:
            doc = json.load(fh)
        if case == "dims":
            doc["dims"]["a"], field = "@", "dims.a"
        else:
            doc["maps"]["a|b"], field = [["1e400"]], "maps.a|b"
        path.write_text(json.dumps(doc).replace('"@"', "Infinity"))
        assert cli.main(["normalize", "--input", str(path)]) == cli.EXIT_VALIDATION
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("validation failure:")
        assert str(path) in err[0] and field in err[0]

    @pytest.mark.parametrize("case,field,value", [
        ("involution-string", "involution", "ab"),
        ("involution-scalar", "involution", 7),
        ("pair-of-three", "involution", [["a", "A", "b"], ["b", "B"]]),
        ("pair-unknown-name", "involution", [["a", "X"], ["b", "B"]]),
        ("alphabet-number", "alphabet", [1, "A", "b", "B"]),
        ("dims-fraction", "dims", 1.5),
        ("dims-bool", "dims", True),
        ("dims-string", "dims", "2"),
        ("depth-fraction", "depth", 1.5),
        ("depth-bool", "depth", True),
        ("cyclic-fraction", "quotient.cyclic", 2.5),
        ("cyclic-string", "quotient.cyclic", "2"),
        ("cyclic-huge", "quotient.cyclic", 10 ** 12),
        ("image-bool", "quotient.images", True),
        ("factors-fraction", "factors", 2.0),
        ("generators-scalar", "generators", 7),
        ("transversal-number", "transversal", [1]),
        ("free-basis-scalar", "free_basis", 5),
        ("table-list", "table", []),
        ("radicand-zero-denominator", "radicand", "1/0"),
        ("radicand-negative", "radicand", -3),
    ])
    def test_malformed_structure_exits_validation(self, case, field, value, tmp_path, capsys):
        path = tmp_path / "bad.json"
        if field in ("alphabet", "involution", "dims", "radicand"):
            with open(cli._resolve("builtin:spherical2-exact")) as fh:
                doc = json.load(fh)
            if field == "dims":
                doc["dims"]["a"], field = value, "dims.a"
            else:
                doc[field] = value
            argv = ["normalize", "--input", str(path)]
        elif field == "depth":
            doc = {"depth": value, "values": {}}
            argv = ["coefficients", "--system", "builtin:spherical2", "--vector", str(path)]
        elif field.startswith("quotient"):
            quotient = {"cyclic": 2, "images": {"a": 1, "b": 0}}
            if field == "quotient.cyclic":
                quotient["cyclic"] = value
            else:
                quotient["images"]["a"], field = value, "quotient.images.a"
            doc = {"quotient": quotient}
            argv = ["induce", "--system", "builtin:spherical3", "--quotient", str(path)]
        else:
            doc = _psl2z_doc()
            doc[field] = [value, 3] if field == "factors" else value
            argv = ["vf-induce", "--datum", str(path), "--system", "builtin:spherical2",
                    "--vector", "builtin:seed-a"]
        path.write_text(json.dumps(doc))
        assert cli.main(argv) == cli.EXIT_VALIDATION
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("validation failure:")
        assert str(path) in err[0] and field in err[0]

    @pytest.mark.parametrize("trials", [0, 2])
    def test_induce_prints_j_depths(self, trials, capsys):
        code = cli.main(["induce", "--system", "builtin:spherical3",
                         "--quotient", "builtin:index2-quotient", "--trials", str(trials)])
        assert code == 0
        values = [line.split("=", 1)[1] for line in capsys.readouterr().out.splitlines()
                  if line.startswith("J_depths=")]
        assert len(values) == 1
        if trials == 0:
            assert values[0] == "none"
        else:
            # one depth per J result: f, the moved vector and the cut vector
            depths = values[0].split(",")
            assert len(depths) == 3 * trials
            assert all(d.isdigit() and int(d) > 0 for d in depths)

    @pytest.mark.parametrize("argv", [
        ["normalize", "--input", "{dir}"],
        ["herz", "--system", "builtin:spherical2", "--vector", "builtin:seed-a",
         "--radius", "1", "--output", "{dir}"],
    ], ids=["input", "output"])
    def test_directory_path_exits_validation(self, argv, tmp_path, capsys):
        assert cli.main([a.format(dir=tmp_path) for a in argv]) == cli.EXIT_VALIDATION
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("validation failure:")
        assert str(tmp_path) in err[0]

    @pytest.mark.parametrize("argv", [
        ["herz", "--system", "builtin:spherical2", "--vector", "builtin:seed-a", "--radius", "x"],
        ["selftest", "--output", "report.csv"],
        ["herz", "--system", "builtin:spherical2", "--vector", "builtin:seed-a",
         "--backend", "brute"],
        ["vf-induce", "--system", "builtin:spherical2", "--vector", "builtin:seed-a",
         "--backend", "brute"],
        ["normalize", "--input", "builtin:spherical2-unscaled", "--seed", "1"],
        ["vf-induce", "--system", "builtin:spherical2", "--vector", "builtin:seed-a",
         "--seed", "1"],
    ], ids=["bad-value", "removed-flag", "herz-backend", "vf-induce-backend",
            "normalize-seed", "vf-induce-seed"])
    def test_usage_error_exits_validation(self, argv, capsys):
        assert cli.main(argv) == cli.EXIT_VALIDATION
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("validation failure:")

    def test_decompose_command(self, tmp_path, capsys):
        # build a reducible two-block file, then split it from the CLI
        from test_system import two_block_system

        system, forms = two_block_system()
        path = tmp_path / "blocks.json"
        fileio.save_system(str(path), system, forms)
        code = cli.main(["decompose", "--input", str(path),
                         "--output", str(tmp_path / "comp.json")])
        assert code == 0
        out = capsys.readouterr().out.splitlines()
        assert "components=2" in out
        # the two summands are inequivalent, and one split at the first
        # stage of the tolerance cascade separates them
        assert "commutant_dim=2" in out
        margin = next(float(line.split("=", 1)[1]) for line in out
                      if line.startswith("commutant_margin="))
        assert margin >= 1
        assert "cascade=1e-06" in out
        for k in range(2):
            comp, cf = fileio.load_system(str(tmp_path / f"comp-{k}.json"))
            assert validate(comp) == []

    def test_selftest(self):
        assert cli.main(["selftest"]) == 0

    def test_every_declared_flag_is_read(self):
        """A subcommand declares only the flags its command function reads."""
        import argparse
        import inspect

        sub = next(a for a in cli.build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        for name, parser in sub.choices.items():
            source = inspect.getsource(parser.get_default("fn"))
            for action in parser._actions:
                if action.dest != "help":
                    assert f"args.{action.dest}" in source, (name, action.dest)


class TestStartup:
    """What a fresh interpreter loads and sets when it imports the package."""

    @staticmethod
    def child(script, **env):
        src = str(Path(cli.__file__).resolve().parents[1])
        base = {k: v for k, v in os.environ.items() if k != "OPENBLAS_THREAD_TIMEOUT"}
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env={**base, "PYTHONPATH": src, **env}, timeout=120)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout.strip()

    def test_package_root_loads_no_submodule(self):
        script = ("import sys, mbrep; print(sorted(m for m in sys.modules "
                  "if m == 'numpy' or m.startswith(('numpy.', 'mbrep.'))))")
        assert self.child(script) == "[]"

    # prints the wait that numpy's import saw, then the wait after the import
    WAIT = ("import os, sys\n"
            "seen = []\n"
            "sys.addaudithook(lambda event, args: event == 'import' and args[0] == 'numpy'"
            " and seen.append(os.environ.get('OPENBLAS_THREAD_TIMEOUT')))\n"
            "import mbrep.cli\n"
            "print(*seen, os.environ.get('OPENBLAS_THREAD_TIMEOUT'))")

    def test_cli_sets_the_openblas_wait_before_numpy_loads(self):
        assert self.child(self.WAIT) == "4 4"

    def test_a_preset_openblas_wait_wins(self):
        assert self.child(self.WAIT, OPENBLAS_THREAD_TIMEOUT="28") == "28 28"
