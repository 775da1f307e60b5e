"""Per-layer counters and timers for one ``mbrep`` command, measured from
outside the package.

    python3 perfbench/tracer.py --counters out.json -- herz --system s.json ...

runs ``mbrep.cli.main`` on the arguments after ``--`` in this process, with
wrappers around the package's public functions, and writes the counters as
JSON.  Every name bound to a wrapped function in any loaded ``mbrep``
module is replaced, so ``from`` imports are traced too.  A timed wrapper
records ``calls``, inclusive time ``s`` and ``self_s``, which excludes the
time of wrapped functions it called; the hottest leaves only count calls.
Metric names are ``<module>.<function>.<quantity>``; ``_kernels`` appears as
``kernels``.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import json
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

# (module, attribute, extra quantity, how to compute it from (args, result))
TIMED: List[Tuple[str, str, Optional[str], Optional[Callable]]] = [
    ("boundary_measure", "herz_check", None, None),
    ("boundary_measure", "spectral_measure", None, None),
    ("boundary_measure", "quasi_regular_coefficient", "stems",
     lambda args, out: _sphere_size(len(args[0].alphabet), args[2])),
    ("multrep", "deepen", "words_out",
     lambda args, out: 0 if out is args[0] else len(out.values)),
    ("multrep", "cylinder_op", None, None),
    ("multrep", "act", None, None),
    ("multrep", "inner", None, None),
    ("_kernels", "brute_pairing", "terms",
     lambda args, out: _sphere_size(len(args[0].alphabet), args[4])),
    ("induce", "intertwiner_J", "depth_sum", lambda args, out: out.depth),
    ("induce", "induced_boundary_op", None, None),
    ("induce", "induced_action", None, None),
    ("subgroups", "rewrite_to_subgroup", None, None),
    ("subgroups", "schreier", None, None),
    ("vfree", "VFGroupDatum.route", None, None),
    ("vfree", "induce_to_vf", None, None),
    ("vfree", "vf_validate", None, None),
    ("system", "normalize", "iterations", lambda args, out: out.iterations),
    ("system", "decompose", "components", lambda args, out: len(out)),
    ("fileio", "load_system", None, None),
    ("fileio", "load_vector", None, None),
    ("fileio", "save_system", None, None),
]

COUNTED = [("words", "multiply"), ("words", "cylinder_image"), ("words", "sphere"),
           ("multrep", "evaluate"), ("system", "compatibility_residual")]

# The per-layer metrics the benchmark reports, with their units.
PER_LAYER: List[Tuple[str, str]] = [
    ("trace.wall_s", "s"),
    ("trace.overhead_s", "s"),
    ("boundary_measure.herz_check.calls", "count"),
    ("boundary_measure.quasi_regular_coefficient.self_s", "s"),
    ("boundary_measure.quasi_regular_coefficient.stems", "count"),
    ("boundary_measure.spectral_measure.calls", "count"),
    ("multrep.deepen.calls", "count"),
    ("multrep.deepen.self_s", "s"),
    ("multrep.deepen.words_out", "count"),
    ("multrep.cylinder_op.self_s", "s"),
    ("multrep.act.self_s", "s"),
    ("multrep.inner.self_s", "s"),
    ("multrep.coefficient.fast.calls", "count"),
    ("multrep.coefficient.fast.self_s", "s"),
    ("multrep.evaluate.calls", "count"),
    ("kernels.brute_pairing.calls", "count"),
    ("kernels.brute_pairing.self_s", "s"),
    ("kernels.brute_pairing.terms", "count"),
    ("induce.intertwiner_J.calls", "count"),
    ("induce.intertwiner_J.self_s", "s"),
    ("induce.intertwiner_J.depth_sum", "count"),
    ("induce.induced_boundary_op.self_s", "s"),
    ("induce.induced_action.self_s", "s"),
    ("subgroups.rewrite_to_subgroup.calls", "count"),
    ("subgroups.rewrite_to_subgroup.self_s", "s"),
    ("subgroups.schreier.s", "s"),
    ("vfree.VFGroupDatum.route.calls", "count"),
    ("vfree.VFGroupDatum.route.self_s", "s"),
    ("vfree.induce_to_vf.self_s", "s"),
    ("vfree.vf_validate.s", "s"),
    ("words.multiply.calls", "count"),
    ("words.cylinder_image.calls", "count"),
    ("words.sphere.calls", "count"),
    ("system.normalize.s", "s"),
    ("system.normalize.iterations", "count"),
    ("system.decompose.s", "s"),
    ("system.decompose.components", "count"),
    ("system.compatibility_residual.calls", "count"),
    ("fileio.load_system.s", "s"),
    ("fileio.load_vector.s", "s"),
    ("fileio.save_system.s", "s"),
    ("gate.defect_frac", "ratio"),
]


def counts_of(values: Dict[str, float]) -> Dict[str, float]:
    """The entries that must repeat exactly: everything but times."""
    return {k: v for k, v in values.items() if not k.endswith(("_s", ".s"))}


def _sphere_size(n: int, r: int) -> int:
    return 1 if r == 0 else n * (n - 1) ** (r - 1)


class Tracer:
    def __init__(self):
        self.values: Dict[str, float] = defaultdict(float)
        # time spent in wrapped callees, one slot per open timed call
        self._child_time = [0.0]

    def timed(self, fn: Callable, name: Callable[[tuple, dict], str],
              extra: Optional[str], measure: Optional[Callable]) -> Callable:
        values, child_time, clock = self.values, self._child_time, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            key = name(args, kwargs)
            child_time.append(0.0)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                elapsed = clock() - t0
                inner = child_time.pop()
                child_time[-1] += elapsed
                values[key + ".calls"] += 1
                values[key + ".s"] += elapsed
                values[key + ".self_s"] += elapsed - inner
            if extra:
                values[f"{key}.{extra}"] += measure(args, out)
            return out

        return wrapper

    def counted(self, fn: Callable, key: str) -> Callable:
        values = self.values

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            values[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        """Wrap every target and rebind each name bound to it in any loaded
        ``mbrep`` module."""
        importlib.import_module("mbrep.cli")
        modules = [m for name, m in sys.modules.items()
                   if (name == "mbrep" or name.startswith("mbrep.")) and m is not None]
        for module, attr, extra, measure in TIMED:
            label = f"{module.lstrip('_')}.{attr}"
            self._replace(modules, module, attr,
                          lambda fn, label=label: self.timed(fn, lambda a, k: label, extra, measure))
        self._replace(modules, "multrep", "coefficient",
                      lambda fn: self.timed(fn, _coefficient_label, None, None))
        for module, attr in COUNTED:
            self._replace(modules, module, attr,
                          lambda fn, key=f"{module}.{attr}.calls": self.counted(fn, key))

    @staticmethod
    def _replace(modules, module: str, attr: str, make: Callable) -> None:
        owner = importlib.import_module(f"mbrep.{module}")
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        original = getattr(owner, leaf)
        wrapped = make(original)
        setattr(owner, leaf, wrapped)
        for m in modules:
            for name, value in list(vars(m).items()):
                if value is original:
                    setattr(m, name, wrapped)


def _coefficient_label(args: tuple, kwargs: dict) -> str:
    backend = kwargs.get("backend", args[3] if len(args) > 3 else "fast")
    return f"multrep.coefficient.{backend}"


def main() -> int:
    parser = argparse.ArgumentParser(description="run one mbrep command under the tracer")
    parser.add_argument("--counters", required=True, help="JSON file the counters are written to")
    parser.add_argument("argv", nargs=argparse.REMAINDER, help="mbrep arguments after --")
    args = parser.parse_args()
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv
    tracer = Tracer()
    tracer.install()
    from mbrep import cli

    rc = cli.main(argv)
    sys.stdout.flush()
    with open(args.counters, "w") as fh:
        json.dump(dict(sorted(tracer.values.items())), fh, indent=1)
    return rc


if __name__ == "__main__":
    sys.exit(main())
