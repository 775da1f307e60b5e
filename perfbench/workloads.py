"""Seeded inputs, command lines and output checks of the benchmark workloads.

Every workload writes raw input files from its seed, prepares them with
``mbrep normalize`` at the CLI defaults, and then runs a fixed sequence of
timed CLI commands.  Letter dimensions are fixed per workload so that the
amount of work does not depend on the seed; the seed draws the complex
Gaussian map entries, the vectors and the words.
"""

from __future__ import annotations

import csv
import io
import json
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np


@dataclass
class Checks:
    """Tally of correctness checks: how many ran, how many failed, and the
    worst defect as a share of its tolerance."""

    attempted: int = 0
    failed: int = 0
    defect_frac: float = 0.0
    notes: List[str] = field(default_factory=list)

    def gate(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.append(what)

    def defect(self, value: float, tol: float, what: str) -> None:
        """Gate ``value <= tol`` and record ``value / tol``."""
        self.defect_frac = max(self.defect_frac, value / tol)
        self.gate(value <= tol, f"{what}={value:.3e} above {tol:.1e}")

    def merge(self, other: "Checks") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.defect_frac = max(self.defect_frac, other.defect_frac)
        self.notes.extend(other.notes)


@dataclass
class Command:
    """One CLI invocation: the ``mbrep`` arguments, the files it writes
    (relative to the work directory), a check of its stdout and files, and
    the part of ``calibrate.py`` whose speed its own follows most closely:
    ``"python"``, ``"blas"`` or ``"mixed"`` (the whole calibration)."""

    name: str
    argv: List[str]
    check: Callable[[str, Path, Checks], None]
    outputs: Tuple[str, ...] = ()
    calibration: str = "python"


@dataclass
class Workload:
    """``make`` writes the seeded inputs into the work directory and returns
    the values substituted for ``{key}`` fields in the command arguments."""

    name: str
    make: Callable[[np.random.Generator, Path], Dict[str, str]]
    setup: List[Command]
    timed: List[Command]


def _alphabet(rank: int) -> Tuple[List[str], List[List[str]], List[int]]:
    """Letter names, involution pairs and inverse table of ``mbrep``'s
    standard rank-``rank`` alphabet (a, A, b, B, ...)."""
    names, pairs = [], []
    for k in range(rank):
        lo = chr(ord("a") + k)
        names += [lo, lo.upper()]
        pairs.append([lo, lo.upper()])
    inv = [i ^ 1 for i in range(2 * rank)]
    return names, pairs, inv


def _entries(rng: np.random.Generator, shape) -> list:
    re_, im = rng.normal(size=shape), rng.normal(size=shape)
    return [[[float(x), float(y)] for x, y in zip(r1, r2)] for r1, r2 in zip(re_, im)]


def random_system(rng: np.random.Generator, rank: int, dims: Sequence[int]) -> dict:
    """Unnormalized system document with complex Gaussian maps on every
    allowed letter pair."""
    names, pairs, inv = _alphabet(rank)
    maps = {}
    for b in range(len(names)):
        for a in range(len(names)):
            if inv[a] != b:
                maps[f"{names[b]}|{names[a]}"] = _entries(rng, (dims[b], dims[a]))
    return {"alphabet": names, "involution": pairs,
            "dims": dict(zip(names, dims)), "maps": maps}


def random_vector(rng: np.random.Generator, rank: int, dims: Sequence[int],
                  letters: Sequence[int]) -> dict:
    """Depth-1 vector with Gaussian values on the given letters."""
    names, _, _ = _alphabet(rank)
    return {"depth": 1,
            "values": {names[a]: _entries(rng, (1, dims[a]))[0] for a in letters}}


def random_word(rng: np.random.Generator, rank: int, length: int) -> str:
    names, _, inv = _alphabet(rank)
    letters = [int(rng.integers(len(names)))]
    while len(letters) < length:
        c = int(rng.integers(len(names)))
        if c != inv[letters[-1]]:
            letters.append(c)
    return "".join(names[c] for c in letters)


def _dump(path: Path, doc: dict) -> None:
    path.write_text(json.dumps(doc, indent=1) + "\n")


def _csv_rows(text: str) -> List[Dict[str, str]]:
    body = "\n".join(line for line in text.splitlines() if not line.startswith("#"))
    return list(csv.DictReader(io.StringIO(body)))


def _csv_meta(text: str) -> Dict[str, str]:
    return dict(line[2:].split("=", 1) for line in text.splitlines() if line.startswith("# "))


def _stdout_value(text: str, key: str) -> float:
    m = re.search(rf"^{key}=(\S+)$", text, re.M)
    if m is None:
        raise ValueError(f"no {key}= line in the output")
    return float(m.group(1))


def _normalize(raw: str, out: str) -> Command:
    def check(stdout: str, work: Path, chk: Checks) -> None:
        chk.defect(_stdout_value(stdout, "residual"), 1e-9, "normalize residual")
    return Command("normalize", ["normalize", "--input", raw, "--output", out], check, (out,))


# --- herz-ball -------------------------------------------------------------
# The paper's majorization check over a word ball; `deepen` under
# `boundary_measure` does nearly all the work.  At radius 4 one command takes
# about 9 s, too long for a median within one run, and at radius 3 a vector on
# one letter cylinder leaves interpreter start-up as the largest cost, so the
# vector is dense on all four letters at radius 3.

HERZ_DIMS = (2, 1, 1, 2)
HERZ_RADIUS = 3
HERZ_TOL = 1e-9


def _herz_make(rng, work: Path) -> Dict[str, str]:
    _dump(work / "raw.json", random_system(rng, 2, HERZ_DIMS))
    _dump(work / "vec.json", random_vector(rng, 2, HERZ_DIMS, range(4)))
    return {}


def _herz_check(stdout: str, work: Path, chk: Checks) -> None:
    rows = _csv_rows((work / "herz.csv").read_text())
    chk.gate(len(rows) == 1 + sum(4 * 3 ** (k - 1) for k in range(1, HERZ_RADIUS + 1)),
             f"herz reported {len(rows)} words")
    worst = 0.0
    for row in rows:
        chk.gate(row["pass"] == "pass", f"herz FAIL at {row['x']}")
        worst = max(worst, float(row["lhs"]) - float(row["rhs"]))
    chk.defect(max(worst, 0.0), HERZ_TOL, "herz lhs - rhs")


HERZ_BALL = Workload(
    "herz-ball", _herz_make,
    [_normalize("raw.json", "sys.json")],
    [Command("herz", ["herz", "--system", "sys.json", "--vector", "vec.json",
                      "--radius", str(HERZ_RADIUS), "--output", "herz.csv"],
             _herz_check, ("herz.csv",))])


# --- vf-gram ---------------------------------------------------------------
# Coefficients induced to PSL(2,Z) over a ball and their Gram matrix: many
# short point evaluations, almost no sphere propagation.

VF_DIMS = (1, 2, 3, 2)
VF_RADIUS = 9


def _vf_make(rng, work: Path) -> Dict[str, str]:
    _dump(work / "raw.json", random_system(rng, 2, VF_DIMS))
    _dump(work / "vec.json", random_vector(rng, 2, VF_DIMS, range(4)))
    return {}


def _vf_check(stdout: str, work: Path, chk: Checks) -> None:
    text = (work / "vf.csv").read_text()
    rows = _csv_rows(text)
    values = {row["lambda"]: complex(float(row["re"]), float(row["im"])) for row in rows}
    chk.gate(len(rows) > 1 and "e" in values, f"vf-induce reported {len(rows)} elements")
    # a positive-definite function is bounded by its value at the identity,
    # which is also the largest Gram entry the command scales its gate by
    phi_e = abs(values.get("e", 0.0))
    scale = max(1.0, phi_e)
    for lam, val in values.items():
        chk.gate(abs(val) <= phi_e + 1e-9 * scale, f"|phi({lam})| exceeds phi(e)")
    eig_min = float(_csv_meta(text)["gram_min_eigenvalue"])
    chk.defect(max(-eig_min, 0.0), 1e-8 * scale, "Gram matrix negativity")


VF_GRAM = Workload(
    "vf-gram", _vf_make,
    [_normalize("raw.json", "sys.json")],
    [Command("vf-induce", ["vf-induce", "--datum", "psl2z", "--system", "sys.json",
                           "--vector", "vec.json", "--radius", str(VF_RADIUS),
                           "--output", "vf.csv"], _vf_check, ("vf.csv",))])


# --- induce-decompose ------------------------------------------------------
# Induction through a cyclic quotient of order 3 (a -> 1, b -> 0), then the
# commutant decomposition of the induced system: Python-bound intertwiner
# work followed by a BLAS-bound SVD.

IND_INDEX = 3
IND_DIMS = (1, 2, 2, 1, 1, 2, 2, 1)
IND_TRIALS = 4


def _ind_make(rng, work: Path) -> Dict[str, str]:
    _dump(work / "raw.json", random_system(rng, 1 + IND_INDEX, IND_DIMS))
    _dump(work / "quot.json", {"quotient": {"cyclic": IND_INDEX, "images": {"a": 1, "b": 0}}})
    return {}


def _induce_check(stdout: str, work: Path, chk: Checks) -> None:
    m = re.search(r"^induced dims=.* total=(\d+) ", stdout, re.M)
    chk.gate(m is not None and int(m.group(1)) == IND_INDEX * sum(IND_DIMS),
             "induced total dimension")
    chk.defect(_stdout_value(stdout, "induced_forms_residual"), 1e-9, "induced forms residual")
    jtol = 1e-10 * (1 + IND_INDEX)
    for key in ("J_inner_defect", "J_intertwine_defect", "J_boundary_defect"):
        chk.defect(_stdout_value(stdout, key), jtol, key)


def _decompose_check(stdout: str, work: Path, chk: Checks) -> None:
    comps = re.findall(r"^component \d+: dims=\(([\d, ]*)\)$", stdout, re.M)
    count = re.search(r"^components=(\d+)$", stdout, re.M)
    total = sum(int(d) for c in comps for d in c.split(",") if d.strip())
    chk.gate(count is not None and int(count.group(1)) == len(comps) >= 1,
             "component count")
    chk.gate(total == IND_INDEX * sum(IND_DIMS), f"component dimensions add to {total}")


INDUCE_DECOMPOSE = Workload(
    "induce-decompose", _ind_make,
    [_normalize("raw.json", "sub.json")],
    [Command("induce", ["induce", "--system", "sub.json", "--quotient", "quot.json",
                        "--trials", str(IND_TRIALS), "--output", "ind.json"],
             _induce_check, ("ind.json", "ind-layout.json")),
     Command("decompose", ["decompose", "--input", "ind.json"], _decompose_check,
             calibration="blas")])


# --- coeff-oracle ----------------------------------------------------------
# Matrix coefficients of long words checked against the literal sphere-sum
# oracle, whose cost and memory grow as 3^|x|.

COEFF_DIMS = (1, 2, 3, 2)
COEFF_LENGTHS = (10, 12)
COEFF_TOL = 1e-10


def _coeff_make(rng, work: Path) -> Dict[str, str]:
    _dump(work / "raw.json", random_system(rng, 2, COEFF_DIMS))
    _dump(work / "vec.json", random_vector(rng, 2, COEFF_DIMS, range(4)))
    words = ",".join(random_word(rng, 2, n) for n in COEFF_LENGTHS)
    (work / "words.txt").write_text(words + "\n")
    return {"words": words}


def _coeff_check(stdout: str, work: Path, chk: Checks) -> None:
    rows = _csv_rows((work / "coeff.csv").read_text())
    want = (work / "words.txt").read_text().split()[0].split(",")
    chk.gate([row["word"] for row in rows] == want, "coefficient rows do not match the words")
    for row in rows:
        chk.defect(float(row["discrepancy"]), COEFF_TOL, f"oracle discrepancy at {row['word']}")


COEFF_ORACLE = Workload(
    "coeff-oracle", _coeff_make,
    [_normalize("raw.json", "sys.json")],
    [Command("coefficients", ["coefficients", "--system", "sys.json", "--vector", "vec.json",
                              "--words", "{words}", "--backend", "both",
                              "--output", "coeff.csv"], _coeff_check, ("coeff.csv",),
                     calibration="mixed")])


WORKLOADS: Dict[str, Workload] = {w.name: w for w in
                                  (HERZ_BALL, VF_GRAM, INDUCE_DECOMPOSE, COEFF_ORACLE)}
