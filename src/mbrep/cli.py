"""Command-line surface: normalize, decompose, coefficients, induce,
vf-induce, herz, demo-no-hc, selftest.

Exit codes: 0 success, 1 validation failure, 2 mathematical-invariant
failure, 3 resource cap.  CSV output uses '.' decimals with 15 significant
digits.  No command that writes CSV reads a seed or draws a random number,
so identical configurations give byte-identical reports.  Subcommands
declare only the flags they read.

Threads: ``python -m mbrep.cli`` and the ``mbrep`` script set
``OPENBLAS_THREAD_TIMEOUT=4`` before numpy loads, unless it is set already, so
an idle OpenBLAS worker sleeps after 2^4 cycles instead of spinning a second
core for the default 2^28 (about 0.1 s after start-up and after each threaded
call).  The thread count is unchanged.  To override, set the variable (4 to
30) or ``OPENBLAS_NUM_THREADS``; importing any other module sets nothing.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from importlib import resources
from typing import List, Optional, Sequence

os.environ.setdefault("OPENBLAS_THREAD_TIMEOUT", "4")  # read once, as numpy loads OpenBLAS

import numpy as np

# Commands import nothing themselves: perfbench/tracer.py rebinds only what this module loads.
from . import fileio
from .boundary_measure import (herz_check, no_harish_chandra_demo, spectral_measure,
                               uniform_measure)
from .errors import (CapExceededError, DegenerateSystemError, MbrepError,
                     NormalizationError, ValidationError)
from .induce import (InducedVector, induce_system, induced_action,
                     induced_boundary_op, induced_inner, intertwiner_J)
from .multrep import (MultVector, RepSpace, act, coefficient, covariance_check, cylinder_op,
                      distance, inner)
from .subgroups import schreier
from .system import (NORMALIZE_TOL, compatibility_residual, decompose, normalize,
                     radical_quotient, spherical_system, validate)
from .vfree import vf_gram, vf_validate
from .words import DEFAULT_CAP, Alphabet, Word, ball, sphere

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_MATH = 2
EXIT_CAP = 3


def _resolve(path: str) -> str:
    if path.startswith("builtin:"):
        name = path.split(":", 1)[1]
        return str(resources.files("mbrep").joinpath("data", f"{name}.json"))
    return path


def _fmt(x: float) -> str:
    return f"{float(x):.15g}"


class Report:
    """CSV with '# key=value' header comments; deterministic formatting."""

    def __init__(self, columns: Sequence[str], meta: dict):
        self.columns = list(columns)
        self.meta = dict(meta)
        self.rows: List[List[str]] = []

    def add(self, *cells) -> None:
        self.rows.append([_fmt(c) if isinstance(c, float) else str(c) for c in cells])

    def render(self) -> str:
        lines = [f"# {k}={v}" for k, v in self.meta.items()]
        lines.append(",".join(self.columns))
        lines.extend(",".join(r) for r in self.rows)
        return "\n".join(lines) + "\n"

    def write(self, output: Optional[str]) -> None:
        text = self.render()
        if output:
            with open(output, "w") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)


def _load_space(path: str) -> RepSpace:
    resolved = _resolve(path)
    system, forms = fileio.load_system(resolved)
    problems = validate(system)
    if problems:
        raise ValidationError(f"{resolved}: " + "; ".join(problems))
    if forms is None:
        raise ValidationError(f"system file {path} carries no forms; run normalize first")
    try:
        return RepSpace(system, forms)
    except ValidationError as err:
        raise ValidationError(f"{resolved}: {err}") from None


def _tolerance(text: str) -> float:
    """A tolerance flag's value: a positive finite float, else a usage error."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"tolerance must be positive and finite, got {text!r}")
    return value


def _integer(flag: str, least: int):
    """The argparse type of an integer flag: a value that is no integer, or
    is below ``least`` (0 or 1), is a usage error."""
    def value_of(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = least - 1
        if value < least:
            kind = "positive" if least else "nonnegative"
            raise argparse.ArgumentTypeError(f"{flag} must be a {kind} integer, got {text!r}")
        return value
    return value_of


_FLAGS = {
    "tolerance": dict(type=_tolerance, default=None, help="override the default tolerance"),
    "cap": dict(type=_integer("cap", 1), default=DEFAULT_CAP, help="word-enumeration cap"),
    "seed": dict(type=_integer("seed", 0), default=0, help="seed for randomized checks"),
    "backend": dict(choices=["fast", "brute", "both"], default="fast"),
    "output": dict(default=None, help="output file (reports default to stdout)"),
}


def _flags(p: argparse.ArgumentParser, *names: str, **helps: str) -> None:
    """Declare the shared flags a subcommand reads, in the order given, with
    the help texts in ``helps`` replacing the shared ones."""
    for name in names:
        p.add_argument(f"--{name}", **{**_FLAGS[name], "help": helps.get(name, _FLAGS[name].get("help"))})


class _Parser(argparse.ArgumentParser):
    """Usage errors are validation failures (exit 1, one stderr line), not
    argparse's exit 2, which here means a mathematical-invariant failure."""

    def error(self, message: str):
        raise ValidationError(f"{self.prog}: {message}")


def cmd_normalize(args) -> int:
    system, _ = fileio.load_system(_resolve(args.input))
    problems = validate(system)
    if problems:
        for p in problems:
            print(f"invalid: {p}", file=sys.stderr)
        return EXIT_VALIDATION
    tol = NORMALIZE_TOL if args.tolerance is None else args.tolerance
    result = normalize(system, tol=tol)
    print(f"spectral_radius={_fmt(result.spectral_radius)}")
    print(f"residual={_fmt(result.residual)}")
    print(f"solver={result.solver}")
    print(f"iterations={result.iterations}")
    print(f"degenerate={int(result.degenerate)}")
    if result.degenerate:
        print("warning: leading transfer eigenvalue is (near-)degenerate", file=sys.stderr)
    if args.output:
        fileio.save_system(args.output, result.system, result.forms)
        print(f"wrote {args.output}")
    return EXIT_OK


def cmd_decompose(args) -> int:
    space = _load_space(args.input)
    system, forms = space.system, space.forms
    if forms.min_eigenvalue() <= 1e-10 * max(forms.max_abs(), 1.0):
        system, forms = radical_quotient(system, forms)
        if sum(system.dims) == 0:
            print("system is entirely radical: quotient has dimension zero", file=sys.stderr)
            return EXIT_MATH
        print(f"radical quotient applied; dims now {system.dims}")
    components = decompose(system, forms, seed=args.seed)
    total = sum(sum(c.system.dims) for c in components)
    print(f"components={len(components)}")
    print(f"commutant_dim={components.commutant_dim}")
    print(f"commutant_margin={components.commutant_margin:.3e}")
    print("cascade=" + (",".join(f"{t:g}" for t in components.cascade) or "none"))
    for k, comp in enumerate(components):
        print(f"component {k}: dims={comp.system.dims}")
        if args.output:
            path = f"{args.output.removesuffix('.json')}-{k}.json"
            fileio.save_system(path, comp.system, comp.forms)
            print(f"wrote {path}")
    if total != sum(system.dims):
        print("component dimensions do not add up", file=sys.stderr)
        return EXIT_MATH
    return EXIT_OK


def cmd_coefficients(args) -> int:
    space = _load_space(args.system)
    vec = fileio.load_vector(_resolve(args.vector), space)
    texts = [t for t in (args.words.split(",") if args.words else []) if t != ""]
    words = [Word.parse(space.alphabet, t) for t in texts]
    meta = {"command": "coefficients", "backend": args.backend, "depth": vec.depth}
    columns = ["word", "re", "im", "backend", "depth"]
    if args.backend == "both":
        columns.append("discrepancy")
    report = Report(columns, meta)

    backend = args.backend if args.backend != "both" else "fast"
    for w in words:
        val = coefficient(w, vec, vec, backend=backend, cap=args.cap)
        row = [str(w), _fmt(val.real), _fmt(val.imag), args.backend,
               str(vec.depth + len(w) + 1)]
        if args.backend == "both":
            brute = coefficient(w, vec, vec, backend="brute", cap=args.cap)
            row.append(_fmt(abs(val - brute)))
        report.add(*row)
    report.write(args.output)
    return EXIT_OK


def cmd_induce(args) -> int:
    if args.trials < 0:
        raise ValidationError(f"trials must be >= 0, got {args.trials}")
    path = _resolve(args.system)
    sub_system, sub_forms = fileio.load_system(path)
    if sub_forms is None:
        raise ValidationError(f"{path}: subgroup system needs forms")
    base = fileio.load_quotient(_resolve(args.quotient), Alphabet.rank(args.base_rank))
    data = schreier(base)
    if sub_system.alphabet != data.subgroup_alphabet:
        raise ValidationError(
            f"subgroup system alphabet has rank {len(sub_system.alphabet) // 2}, "
            f"the subgroup has rank {data.rank}")
    ind_system, ind_forms, layout = induce_system(sub_system, sub_forms, data)
    print(f"induced dims={ind_system.dims} total={sum(ind_system.dims)} "
          f"(index {data.index} x subgroup total {sum(sub_system.dims)})")
    problems = validate(ind_system)
    if problems:
        for p in problems:
            print(f"invalid induced system: {p}", file=sys.stderr)
        return EXIT_MATH
    res = compatibility_residual(ind_system, ind_forms)
    print(f"induced_forms_residual={_fmt(res)}")
    tol = 1e-9 if args.tolerance is None else args.tolerance
    ok = res <= tol

    sub_space = RepSpace(sub_system, sub_forms)
    ind_space = RepSpace(ind_system, ind_forms)
    rng = np.random.default_rng(args.seed)
    worst_inner = worst_act = worst_bdry = 0.0
    test_words = [w for r in range(1, 3) for w in sphere(ind_space.alphabet, r)]
    depths: List[int] = []
    for trial in range(args.trials):
        f = InducedVector(data, sub_space, {u: MultVector(sub_space, 1, {
            Word(sub_space.alphabet, (a,)): rng.normal(size=d) + 1j * rng.normal(size=d)
            for a, d in enumerate(sub_system.dims)}) for u in range(data.index)})
        jf = intertwiner_J(f, layout, ind_space)
        worst_inner = max(worst_inner, abs(inner(jf, jf) - induced_inner(f, f)))
        x = Word(ind_space.alphabet,
                 [int(rng.integers(len(ind_space.alphabet)))])
        lhs = intertwiner_J(induced_action(x, f), layout, ind_space)
        rhs = act(x, jf)
        worst_act = max(worst_act, distance(lhs, rhs))
        z = test_words[int(rng.integers(len(test_words)))]
        lhsb = intertwiner_J(induced_boundary_op(f, z), layout, ind_space)
        rhsb = cylinder_op(z, jf)
        worst_bdry = max(worst_bdry, distance(lhsb, rhsb))
        depths += [jf.depth, lhs.depth, lhsb.depth]
    jtol = 1e-10 * (1 + data.index)
    print(f"J_inner_defect={_fmt(worst_inner)}")
    print(f"J_intertwine_defect={_fmt(worst_act)}")
    print(f"J_boundary_defect={_fmt(worst_bdry)}")
    print("J_depths=" + (",".join(map(str, depths)) or "none"))
    ok = ok and worst_inner <= jtol and worst_act <= jtol and worst_bdry <= jtol
    if args.output:
        fileio.save_system(args.output, ind_system, ind_forms)
        fileio.dump_schreier(f"{args.output.removesuffix('.json')}-layout.json", data)
        print(f"wrote {args.output}")
    if not ok:
        print("induction invariants failed", file=sys.stderr)
        return EXIT_MATH
    return EXIT_OK


def cmd_vf_induce(args) -> int:
    datum = fileio.load_vf_datum(args.datum if args.datum == "psl2z" else _resolve(args.datum))
    problems = vf_validate(datum)
    if problems:
        for p in problems:
            print(f"invalid datum: {p}", file=sys.stderr)
        return EXIT_VALIDATION
    space = _load_space(args.system)
    if space.alphabet != datum.basis_alphabet:
        raise ValidationError("system alphabet does not match the free-basis alphabet")
    vec = fileio.load_vector(_resolve(args.vector), space)
    blocks = {0: vec}
    grp = datum.group
    elements = grp.ball(args.radius, cap=args.cap)
    if len(elements) ** 2 > args.cap:
        raise CapExceededError(f"the Gram matrix of the radius-{args.radius} ball has "
                               f"{len(elements) ** 2} entries, cap {args.cap}")
    meta = {"command": "vf-induce", "datum": datum.name or args.datum,
            "radius": args.radius}
    report = Report(["lambda", "re", "im"], meta)
    gram = vf_gram(datum, elements, blocks)
    # the ball starts at the identity, so row 0 holds the values at each lambda
    for lam, val in zip(elements, gram[0]):
        report.add(grp.format(lam), val.real, val.imag)
    eig_min = float(np.linalg.eigvalsh((gram + gram.conj().T) / 2).min())
    report.meta["gram_min_eigenvalue"] = _fmt(eig_min)
    report.write(args.output)
    scale = max(1.0, float(np.abs(gram).max()))
    if eig_min < -1e-8 * scale:
        print("induced Gram matrix is not positive semidefinite", file=sys.stderr)
        return EXIT_MATH
    return EXIT_OK


def cmd_herz(args) -> int:
    space = _load_space(args.system)
    vec = fileio.load_vector(_resolve(args.vector), space)
    tol = 1e-9 if args.tolerance is None else args.tolerance
    meta = {"command": "herz", "radius": args.radius, "tolerance": _fmt(tol)}
    report = Report(["x", "N", "lhs", "rhs", "margin", "pass"], meta)
    words = list(ball(space.alphabet, args.radius, cap=args.cap))
    mu = spectral_measure(vec, cap=args.cap)
    mu.masses(2 * args.radius + 1)  # grown before any check, so a cap fails first
    failures = 0
    for w in words:
        n = len(w) + 1
        hz = herz_check(vec, w, n, tol=tol, mu=mu, cap=args.cap)
        report.add(str(w), n, hz.lhs, hz.rhs, hz.margin, "pass" if hz.passed else "FAIL")
        failures += 0 if hz.passed else 1
    report.meta["failures"] = failures
    report.write(args.output)
    print(f"herz: {len(words) - failures}/{len(words)} pass")
    return EXIT_OK if failures == 0 else EXIT_MATH


def cmd_demo_no_hc(args) -> int:
    if args.uniform_rank is not None:
        alphabet = Alphabet.rank(args.uniform_rank)
        mu = uniform_measure(alphabet)
        source = f"uniform(rank {args.uniform_rank})"
    else:
        if args.system is None or args.vector is None:
            raise ValidationError("the demo needs --uniform-rank, or --system and --vector")
        space = _load_space(args.system)
        mu = spectral_measure(fileio.load_vector(_resolve(args.vector), space), cap=args.cap)
        alphabet = space.alphabet
        source = "spectral"
    w = Word.parse(alphabet, args.word)
    rows = no_harish_chandra_demo(mu, w, args.max_power, cap=args.cap)
    meta = {"command": "demo-no-hc", "measure": source, "word": str(w)}
    report = Report(["n", "word_length", "phi"], meta)
    for row in rows:
        report.add(*row)
    phis = [phi for _, _, phi in rows]
    decreasing = all(phi < 1.0 for phi in phis) and all(b < a for a, b in zip(phis, phis[1:]))
    report.write(args.output)
    if not decreasing:
        print("decay demonstration failed: values not strictly below one and decreasing",
              file=sys.stderr)
        return EXIT_MATH
    return EXIT_OK


def cmd_selftest(args) -> int:
    """Compact seeded end-to-end checks over the shipped data."""
    checks = []
    rng = np.random.default_rng(args.seed)

    alphabet = Alphabet.rank(2)
    unscaled, _ = spherical_system(alphabet, scale=1.0)
    result = normalize(unscaled)
    checks.append(("normalize spherical radius 3", abs(result.spectral_radius - 3.0) <= 1e-9))
    checks.append(("normalize residual", result.residual <= 1e-9))

    space = _load_space("builtin:spherical2")
    f = fileio.load_vector(_resolve("builtin:seed-a"), space)
    a = Word.parse(alphabet, "a")
    val = coefficient(a, f, f, backend="fast")
    checks.append(("spherical coefficient 3^-1/2", abs(val - 3 ** -0.5) <= 1e-12))
    brute = coefficient(a, f, f, backend="brute")
    checks.append(("backend agreement", abs(val - brute) <= 1e-10))

    worst = 0.0
    for _ in range(10):
        letters = [int(rng.integers(4))]
        for _ in range(2):
            c = int(rng.integers(4))
            if c != alphabet.inv[letters[-1]]:
                letters.append(c)
        x = Word(alphabet, letters)
        z = Word(alphabet, [int(rng.integers(4))])
        worst = max(worst, covariance_check(x, z, f))
    checks.append(("boundary covariance", worst <= 1e-10))

    hz = herz_check(f, a, 2)
    checks.append(("herz equality case", hz.passed and abs(hz.lhs - hz.rhs) <= 1e-12))

    failures = 0
    for name, ok in checks:
        print(f"{'PASS' if ok else 'FAIL'}  {name}")
        failures += 0 if ok else 1
    return EXIT_OK if failures == 0 else EXIT_MATH


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="mbrep", description="multiplicative boundary representations toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("normalize", help="scale a system to transfer radius one and solve the fixed point")
    p.add_argument("--input", required=True)
    _flags(p, "tolerance", "output")
    p.set_defaults(fn=cmd_normalize)

    p = sub.add_parser("decompose", help="split a system with forms into form-orthogonal "
                                         "parts that split no further")
    p.add_argument("--input", required=True)
    _flags(p, "seed", "output")
    p.set_defaults(fn=cmd_decompose)

    p = sub.add_parser("coefficients", help="matrix coefficients of a vector over a word list")
    p.add_argument("--system", required=True)
    p.add_argument("--vector", required=True)
    p.add_argument("--words", default="", help="comma-separated reduced words ('e' for identity)")
    _flags(p, "cap", "backend", "output")
    p.set_defaults(fn=cmd_coefficients)

    p = sub.add_parser("induce", help="induce a subgroup system through a finite-quotient kernel")
    p.add_argument("--system", required=True, help="system over the subgroup generator alphabet")
    p.add_argument("--quotient", required=True)
    p.add_argument("--base-rank", type=int, default=2, help="rank of the ambient free group")
    p.add_argument("--trials", type=int, default=10, help="random checks of the intertwiner")
    _flags(p, "tolerance", "seed", "output")
    p.set_defaults(fn=cmd_induce)

    p = sub.add_parser("vf-induce", help="matrix coefficients induced to a virtually free group")
    p.add_argument("--datum", default="psl2z", help="'psl2z' or a datum file")
    p.add_argument("--system", required=True, help="system over the free-basis alphabet")
    p.add_argument("--vector", required=True, help="block vector at the identity coset")
    p.add_argument("--radius", type=int, default=3)
    _flags(p, "cap", "output")
    p.set_defaults(fn=cmd_vf_induce)

    p = sub.add_parser("herz", help="majorization report over a word ball")
    p.add_argument("--system", required=True)
    p.add_argument("--vector", required=True)
    p.add_argument("--radius", type=int, default=3)
    _flags(p, "tolerance", "cap", "output", cap="bound on the ball, each Hellinger sum's "
           "partition and the measure's masses, one per stem of spheres 1 to 2*radius+1")
    p.set_defaults(fn=cmd_herz)

    p = sub.add_parser("demo-no-hc", help="decay table showing the majorizing measure depends on the vector")
    p.add_argument("--word", required=True)
    p.add_argument("--max-power", type=int, default=6)
    p.add_argument("--system", default=None)
    p.add_argument("--vector", default=None)
    p.add_argument("--uniform-rank", type=int, default=None,
                   help="use the uniform measure on the rank-r boundary instead of a vector")
    _flags(p, "cap", "output", cap="bound on each Hellinger sum's partition and on the "
           "spectral measure's masses, one per stem of spheres 1 to 2|w^n|+1")
    p.set_defaults(fn=cmd_demo_no_hc)

    p = sub.add_parser("selftest", help="compact seeded end-to-end checks")
    _flags(p, "seed")
    p.set_defaults(fn=cmd_selftest)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.fn(args)
    except CapExceededError as err:
        print(f"resource cap: {err}", file=sys.stderr)
        return EXIT_CAP
    except (DegenerateSystemError, NormalizationError) as err:
        print(f"solver failure: {err}", file=sys.stderr)
        return EXIT_MATH
    except (ValidationError, OSError) as err:  # OSError: a missing, unreadable or directory path
        print(f"validation failure: {err}", file=sys.stderr)
        return EXIT_VALIDATION
    except MbrepError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_MATH


if __name__ == "__main__":
    sys.exit(main())
