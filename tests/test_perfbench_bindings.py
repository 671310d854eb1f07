"""The names and call forms that ``perfbench/`` binds in quantrep.

The benchmark reaches into the library by name: the tracer wraps methods
with ``getattr`` and the shift oracle imports functions and builds
transforms. A refactor that renames one of them breaks benchmark runs,
so these checks catch it in the test suite first.
"""

import ast
import importlib
import importlib.util
import inspect
import math
import pathlib

import numpy as np
import pytest

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_owner_bound_hot_entries_resolve():
    tracer = _load("tracer")
    bound = [entry for entry in tracer.HOT.values() if entry[1] is not None]
    assert bound
    for short, owner, attr in bound:
        module = importlib.import_module(f"quantrep.{short}")
        assert callable(getattr(getattr(module, owner), attr)), (short, owner, attr)


def test_tracer_after_hooks_name_public_functions():
    tracer = _load("tracer")
    for name in tracer.AFTER:
        short, attr = name.split(".")
        assert inspect.isfunction(getattr(importlib.import_module(f"quantrep.{short}"), attr))


def test_oracle_imports_exist():
    tree = ast.parse((PERFBENCH / "oracle.py").read_text(encoding="utf-8"))
    imports = [(node.module, alias.name) for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.module.startswith("quantrep")
               for alias in node.names]
    assert imports
    for module, name in imports:
        assert hasattr(importlib.import_module(module), name), (module, name)


@pytest.mark.parametrize("family, params", [
    ("orthogonal-2d", {"angle_deg": 30.0, "reflect": True}),
    ("affine", {"matrix": [[1.1, 0.2], [-0.1, 0.9]], "offset": [0.3, -0.4]}),
])
def test_oracle_transform_constructors(family, params):
    tr = _load("oracle").transform_of(family, params)
    x = np.array([[1.0, 2.0], [-0.5, 0.25]])
    if family == "orthogonal-2d":
        c, s = math.cos(math.radians(30.0)), math.sin(math.radians(30.0))
        np.testing.assert_allclose(tr.forward_matrix(), [[c, s], [s, -c]], atol=1e-15)
    else:
        np.testing.assert_array_equal(tr.matrix, params["matrix"])
        np.testing.assert_array_equal(tr.offset, params["offset"])
    np.testing.assert_allclose(tr.apply_inverse(tr.apply(x)), x, atol=1e-12)
