"""The package surface: ``finfree`` imports its submodules lazily and still
exports every name in ``__all__``."""

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


def test_dir_lists_every_exported_name():
    assert set(finfree.__all__) <= set(dir(finfree))


def test_submodules_import_from_the_package():
    from finfree import families, ffp

    assert families.verify_pair is finfree.verify_pair
    assert ffp.ADDITIVE == finfree.ADDITIVE == "additive"
    assert ffp.MULTIPLICATIVE == finfree.MULTIPLICATIVE == "multiplicative"


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
