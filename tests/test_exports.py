"""The package's exports: `__all__` is every public name that its imports
bind, so no later import can be left out of it."""

import ast
from pathlib import Path
from types import ModuleType

import gnewton

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _imported_from_gnewton(path):
    """The names a module imports with `from gnewton import ...`."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return {a.name for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module == "gnewton"
            for a in node.names}


def test_all_is_every_public_name_but_the_submodules():
    public = {name for name, v in vars(gnewton).items()
              if not (name.startswith("_") or isinstance(v, ModuleType))}
    assert len(gnewton.__all__) == len(set(gnewton.__all__))
    assert set(gnewton.__all__) == public | {"__version__"}
    assert {"ambient_gradient", "ambient_hessian_vec"} <= public


def test_star_import_gives_every_name_the_benchmark_imports():
    names = set()
    for module in ("tracing.py", "ops.py", "gates.py"):
        names |= _imported_from_gnewton(BENCH / module)
    assert {"apply_psi", "ambient_gradient", "ambient_hessian_vec",
            "match_truth_signs"} <= names
    star = {}
    exec("from gnewton import *", star)
    assert sorted(names - set(star)) == []
