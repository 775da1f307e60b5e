"""Reproduce the index-2 induction failure recorded in perfbench/NOTES.md.

Run from the root of a source checkout:

    python3 perfbench/repro_index2_defect.py [seeds...]

For each seed it writes a random rank-3 subgroup system with letter
dimensions in {1, 2}, prepares it with ``mbrep normalize`` at the default
tolerance and at ``--tolerance 1e-13``, and runs ``mbrep induce`` through
the built-in index-2 quotient on both.  It prints the compatibility residual,
the exit code and ``J_inner_defect`` of each.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

from workloads import random_system


def mbrep(work: Path, *argv: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(Path.cwd() / "src"))
    return subprocess.run([sys.executable, "-m", "mbrep.cli", *argv], cwd=work, env=env,
                          capture_output=True, text=True, timeout=600)


def field(text: str, key: str) -> str:
    m = re.search(rf"^{key}=(\S+)$", text, re.M)
    return m.group(1) if m else "-"


def main() -> int:
    if not (Path.cwd() / "src" / "mbrep" / "cli.py").is_file():
        print("run from the root of an mbrep checkout", file=sys.stderr)
        return 2
    seeds = [int(s) for s in sys.argv[1:]] or list(range(1, 7))
    work = Path.cwd() / ".perfbench_work" / f"repro-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        print("seed dims tolerance residual induce_exit J_inner_defect")
        for seed in seeds:
            rng = np.random.default_rng(seed)
            dims = [int(d) for d in rng.integers(1, 3, size=6)]
            (work / "raw.json").write_text(json.dumps(random_system(rng, 3, dims)))
            for tol in (None, "1e-13"):
                flags = ["--tolerance", tol] if tol else []
                norm = mbrep(work, "normalize", "--input", "raw.json", "--output", "sub.json",
                             *flags)
                ind = mbrep(work, "induce", "--system", "sub.json",
                            "--quotient", "builtin:index2-quotient")
                print(seed, "".join(map(str, dims)), tol or "default",
                      field(norm.stdout, "residual"), ind.returncode,
                      field(ind.stdout, "J_inner_defect"))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
