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


def test_tracer_after_hooks_read_real_results(tmp_path):
    # each hook runs on what its function returns for tiny inputs, in every
    # call form it reads: a result field or argument name that a hook reads
    # and the library dropped fails here rather than in a traced run
    from quantrep import (Dataset, QuantileGrid, fit_base_classifiers, fit_quantile_model,
                          save_dataset)
    tracer = _load("tracer")
    rng = np.random.default_rng(0)
    x = rng.normal(size=(40, 2))
    ds = Dataset(x, (x[:, 0] + rng.normal(size=40) > 0).astype(int), 2)
    save_dataset(ds, tmp_path / "d.csv")
    grid = QuantileGrid(np.linspace(0.05, 0.95, 6), np.linspace(0.05, 0.95, 20))
    model = fit_quantile_model(ds, fit_base_classifiers(ds), grid=grid)
    calls = [
        ("linear.fit_weighted_logistic", (x, ds.labels), {},
         {"linear.nonconverged": 0, "linear.degenerate": 0}),
        ("linear.fit_weighted_logistic", (x, np.ones(40, dtype=int)), {},
         {"linear.nonconverged": 0, "linear.degenerate": 1}),
        ("quantile.represent", (model, x[:5]), {}, {"quantile.represent.bytes": 5 * 2 * 20 * 8}),
        ("ood.lof_scores", (x, x[:7]), {"k": 5},
         {"ood.lof_scores.dist_bytes": (40 * 40 + 7 * 40) * 8}),
        ("ood.lof_scores", (), {"reference": x, "queries": x[:7], "k": 5},
         {"ood.lof_scores.dist_bytes": (40 * 40 + 7 * 40) * 8}),
        ("datasets.load_dataset", (str(tmp_path / "d.csv"),), {},
         {"datasets.load_dataset.rows": 40}),
    ]
    assert {name for name, *_ in calls} == set(tracer.AFTER)
    for name, args, kwargs, expected in calls:
        short, attr = name.split(".")
        out = getattr(importlib.import_module(f"quantrep.{short}"), attr)(*args, **kwargs)
        counts = {}
        tracer.AFTER[name](out, args, kwargs,
                           lambda key, value: counts.update({key: counts.get(key, 0) + value}))
        assert counts == expected, name


def test_oracle_imports_exist():
    tree = ast.parse((PERFBENCH / "oracle.py").read_text(encoding="utf-8"))
    imports = [(node.module, alias.name) for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.module.startswith("quantrep")
               for alias in node.names]
    assert imports
    for module, name in imports:
        assert hasattr(importlib.import_module(module), name), (module, name)


def test_oracle_calls_match_library_signatures():
    # every call the oracle makes to a name it imports from quantrep must
    # bind to the current signature: an option deleted from the library
    # fails here rather than in a benchmark run
    tree = ast.parse((PERFBENCH / "oracle.py").read_text(encoding="utf-8"))
    targets = {alias.asname or alias.name: getattr(importlib.import_module(node.module),
                                                   alias.name)
               for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.module.startswith("quantrep")
               for alias in node.names}
    keywords = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and node.func.id in targets:
            names = [kw.arg for kw in node.keywords]
            # a *args or **kwargs call could not be checked
            assert None not in names and not any(
                isinstance(arg, ast.Starred) for arg in node.args), ast.unparse(node)
            inspect.signature(targets[node.func.id]).bind_partial(
                *node.args, **dict.fromkeys(names))
            keywords.update(f"{node.func.id}({name}=)" for name in names)
    assert {"fit_quantile_model(grid=)", "fit_quantile_model(fit_config=)",
            "FitConfig(seed=)", "Transform(angle=)", "Transform(reflect=)",
            "Transform(matrix=)", "Transform(offset=)"} <= keywords


@pytest.mark.parametrize("family, params", [
    ("orthogonal-2d", {"angle_deg": 30.0, "reflect": True}),
    ("affine", {"matrix": [[1.1, 0.2], [-0.1, 0.9]], "offset": [0.3, -0.4]}),
])
def test_oracle_transform_constructors(family, params):
    tr = _load("oracle").transform_of(family, params)
    x = np.array([[1.0, 2.0], [-0.5, 0.25]])
    if family == "orthogonal-2d":
        c, s = math.cos(math.radians(30.0)), math.sin(math.radians(30.0))
        np.testing.assert_allclose(tr.matrix, [[c, s], [s, -c]], atol=1e-15)
    else:
        np.testing.assert_array_equal(tr.matrix, params["matrix"])
        np.testing.assert_array_equal(tr.offset, params["offset"])
    np.testing.assert_allclose(tr.apply_inverse(tr.apply(x)), x, atol=1e-12)


def test_cli_writes_every_file_the_benchmark_checks(tmp_path):
    # every subcommand runs once at the workloads' tiny sizes and passes
    # perfbench's own result-file check: a dropped or malformed result file
    # fails here rather than in a benchmark run
    from quantrep.cli import main
    workloads = _load("workloads")
    ran = set()

    def run(step):
        assert main(step.argv) == 0, step.argv
        assert workloads.check_files(step) == [], step.argv
        ran.add(step.subcommand)

    for name, workload in workloads.WORKLOADS.items():
        wl = workload(1, "tiny")
        inputs, out = str(tmp_path / name / "inputs"), str(tmp_path / name / "out")
        for argv in wl.generate(inputs):
            run(workloads.Step("gen", argv, inputs))
        wl.derive(inputs)
        for step in wl.steps(inputs, out):
            run(step)
    assert ran == set(workloads.OUTPUTS)
