"""The package surface: ``finfree`` imports its submodules lazily, still
exports every name in ``__all__``, and defines nothing at module level that
neither ``src/finfree`` reads nor ``__all__`` exports."""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import finfree


def test_every_exported_name_is_its_submodules_object():
    for name in finfree.__all__:
        module = importlib.import_module(f"finfree.{finfree._HOME[name]}")
        assert getattr(finfree, name) is getattr(module, name)


def test_every_module_level_name_is_read_in_the_package_or_exported():
    """Every function, class and assigned name at the top of a module of
    ``src/finfree`` is loaded somewhere in ``src/finfree``, as a name or an
    attribute, or is in ``__all__``; dunders are exempt. A helper that only
    the tests use belongs in ``tests/``."""
    trees = {path.name: ast.parse(path.read_text()) for path in Path(finfree.__file__).parent.glob("*.py")}
    loaded = set()
    for node in (node for tree in trees.values() for node in ast.walk(tree)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            loaded.add(node.id)
        elif isinstance(node, ast.Attribute):
            loaded.add(node.attr)
    unused = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [name.id for target in targets for name in ast.walk(target) if isinstance(name, ast.Name)]
            else:
                names = []
            unused += [f"{module}: {name}" for name in names
                       if not (name.startswith("__") and name.endswith("__"))
                       and name not in loaded and name not in finfree.__all__]
    assert len(trees) > 1
    assert not unused


def test_dir_lists_every_exported_name():
    assert set(finfree.__all__) <= set(dir(finfree))


def test_submodules_import_from_the_package():
    from finfree import families, ffp

    assert families.verify_pair is finfree.verify_pair
    assert ffp.ADDITIVE == finfree.ADDITIVE == "additive"
    assert ffp.MULTIPLICATIVE == finfree.MULTIPLICATIVE == "multiplicative"
    # moved out of families for the light verbs, and re-exported there
    from finfree import matrices, polynomials

    assert families.cycle_sums is matrices.cycle_sums is finfree.cycle_sums
    assert families.CycleSums is matrices.CycleSums is finfree.CycleSums
    assert families.rank_upper_bound is polynomials.rank_upper_bound is finfree.rank_upper_bound


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        finfree.no_such_name  # noqa: B018
    assert not hasattr(finfree, "kernel_of_nothing")
    with pytest.raises(ImportError):
        from finfree import no_such_name  # noqa: F401


def test_import_loads_a_submodule_on_first_access():
    code = (
        "import json, sys, finfree\n"
        "before = 'finfree.families' in sys.modules\n"
        "pair = finfree.verify_pair\n"
        "import finfree.families\n"
        "print(json.dumps([before, pair is finfree.families.verify_pair, 'verify_pair' in vars(finfree)]))\n"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    assert json.loads(result.stdout) == [False, True, True]
