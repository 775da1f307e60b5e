"""The benchmark's tracer wraps package functions by name; a rename in
``mbrep`` must fail here rather than break ``perfbench/run.py --trace 1``."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


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
