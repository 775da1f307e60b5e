"""The benchmark's tracer wraps package functions by name; a rename in
``mbrep``, or a changed signature that its per-layer quantities read, must
fail here rather than break ``perfbench/run.py --trace 1``."""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "perfbench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_targets_resolve():
    tracer = _tracer()
    targets = ([(module, attr) for module, attr, _, _ in tracer.TIMED]
               + list(tracer.COUNTED) + [("multrep", "coefficient")])
    for module, attr in targets:
        owner = importlib.import_module(f"mbrep.{module}")
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        assert callable(owner), f"{module}.{attr}"


def test_tracer_counts_herz_layers(tmp_path):
    # the tracer's own wrappers and quantities, run as the benchmark runs
    # them: the stems of the 53 Hellinger sums over the radius-3 ball are
    # the depth-(|x|+1) spheres, 4 + 4*12 + 12*36 + 36*108 = 4,372
    counters = tmp_path / "counters.json"
    proc = subprocess.run(
        [sys.executable, str(TRACER), "--counters", str(counters), "--",
         "herz", "--system", "builtin:spherical2", "--vector", "builtin:seed-a",
         "--radius", "3", "--output", str(tmp_path / "herz.csv")],
        capture_output=True, text=True, cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")}, timeout=120)
    assert proc.returncode == 0, proc.stderr
    got = json.loads(counters.read_text())
    assert got["boundary_measure.herz_check.calls"] == 53
    assert got["boundary_measure.spectral_measure.calls"] == 1
    assert got["boundary_measure.quasi_regular_coefficient.stems"] == 4372
    assert got.get("multrep.deepen.calls", 0) == 0


def test_tracer_counts_induce_propagation(tmp_path):
    # deepen's words_out reads len(out.values), which decodes the level; an
    # induction with two trials deepens 8 times to 378 words in all
    counters = tmp_path / "counters.json"
    proc = subprocess.run(
        [sys.executable, str(TRACER), "--counters", str(counters), "--",
         "induce", "--system", "builtin:spherical3", "--quotient", "builtin:index2-quotient",
         "--trials", "2"],
        capture_output=True, text=True, cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")}, timeout=120)
    assert proc.returncode == 0, proc.stderr
    got = json.loads(counters.read_text())
    assert got["multrep.deepen.calls"] == 8
    assert got["multrep.deepen.words_out"] == 378
