"""The package ships only code that a command can run.

Each top-level function and class of ``src/mbrep`` must be named by another
live definition there, by a module-level statement of any of its modules,
or by the benchmark scripts in ``perfbench/``, which are only read.  A
definition named only by dead ones is dead too, so names drop out until
none is left to drop.  Oracles that only tests call live under ``tests/``.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _names_in(node):
    """The bare and attribute names that ``node`` reads."""
    return ({sub.id for sub in ast.walk(node) if isinstance(sub, ast.Name)}
            | {sub.attr for sub in ast.walk(node) if isinstance(sub, ast.Attribute)})


def unreached_definitions():
    """Sorted ``module.name`` of each top-level definition no command reaches."""
    definitions, roots = {}, set()
    for path in sorted((ROOT / "src" / "mbrep").glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                definitions[f"{path.stem}.{node.name}"] = _names_in(node) - {node.name}
            else:
                roots |= _names_in(node)
    for script in (ROOT / "perfbench").glob("*.py"):
        roots |= set(re.findall(r"\w+", script.read_text()))
    live = dict(definitions)
    while True:
        named = roots.union(*live.values())
        dead = [key for key in live if key.split(".")[1] not in named]
        if not dead:
            return sorted(set(definitions) - set(live))
        for key in dead:
            del live[key]


def test_every_definition_is_reached():
    assert unreached_definitions() == []
