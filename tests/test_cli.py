import contextlib
import csv
import inspect
import json
import os
import re
import shlex
import shutil
import subprocess
import sys

import numpy as np
import pytest

import quantrep
from quantrep import (Dataset, LatentModelSpec, gen_gaussian_pair, gen_latent_binary,
                      gen_two_moons, load_dataset, save_dataset)
from quantrep.cli import FIT_DEFAULTS, GEN_DEFAULTS, build_parser, main


def read(path):
    with open(path, "rb") as fh:
        return fh.read()


# run in a fresh interpreter: the steps named in argv[1] go through main,
# and after the import and after each step it lists what is loaded
_IMPORT_PROBE = """
import json, sys
def loaded(prefix):
    return sorted(m for m in sys.modules if m.partition(".")[0] == prefix)
import quantrep.cli
seen = {"import": loaded("scipy"), "quantrep": loaded("quantrep")}
for tag, argv in json.loads(sys.argv[1]):
    seen[tag] = [quantrep.cli.main(argv), loaded("scipy"), loaded("concurrent")]
print(json.dumps(seen))
"""


def test_import_leaves_scipy_stats_unloaded(tmp_path, moons_dir, moons_model, pair_files):
    # every CLI call pays for its imports: scipy.stats would add about half
    # a second, and scipy.interpolate (for CubicSpline) 33 modules and about
    # 80 ms to a 1 s import of quantrep.cli. scipy is imported where it is
    # called, so gen-data, xcorr and fit-quantile (numpy Newton fits, with
    # or without a given base) run on numpy alone. So do calib-eval, whose
    # isotonic map is pool-adjacent-violators in plain Python, and both
    # searches of shift-match: the rotation refine is a plain golden-section
    # search, and the affine search is IRLS in numpy (importing
    # scipy.optimize alone takes about 0.36 s and 76 MB). A shift-match
    # whose t1 epoch fails its fit check loads none either. No step up to
    # ood-eval loads concurrent.futures (with logging, about 10 ms): the
    # rotation scan is one plain loop.
    src = os.path.dirname(os.path.dirname(quantrep.__file__))
    data, model = str(moons_dir / "id.csv"), str(moons_model)
    one_class = str(_degenerate_input("one-class", tmp_path / "one-class.csv"))
    fit = ["fit-quantile", "--data", data, "--anchors", "6", "--dense", "30"]
    shift = ["shift-match", "--data-t0", str(pair_files[0]), "--data-t1", str(pair_files[1])]
    steps = [
        ["two-moons", ["gen-data", "two-moons", "--n-per-class", "20", "--ood-n", "10"]],
        ["gaussian-pair", ["gen-data", "gaussian-pair", "--n-per-class", "20"]],
        ["latent-binary", ["gen-data", "latent-binary", "--n", "40"]],
        ["xcorr", ["xcorr", "--model", model, "--data", data]],
        ["fit-quantile", fit],
        ["fit-quantile-base", [*fit, "--base-model", str(moons_model / "base.json")]],
        ["shift-match-one-class-t1", _degenerate_argv("t1", one_class, pair_files)],
        ["calib-eval", ["calib-eval", "--model", model, "--data", data,
                        "--severities", "0,1"]],
        ["shift-match-orthogonal", [*shift, "--family", "orthogonal-2d"]],
        ["shift-match-affine", [*shift, "--family", "affine"]],
        # last: the probe lists every module loaded so far, and this step
        # loads scipy.spatial
        ["ood-eval", ["ood-eval", "--model", model, "--train", data, "--test-id", data,
                      "--test-ood", str(moons_dir / "ood.csv")]],
    ]
    steps = [[tag, [*argv, "--out", str(tmp_path / tag)]] for tag, argv in steps]
    proc = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, json.dumps(steps)],
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, check=True)
    seen = json.loads(proc.stdout)
    assert [m for m in ("scipy.stats", "scipy.interpolate") if m in seen["import"]] == []
    assert seen["import"] == []
    # perfbench/tracer.py reads each of these from sys.modules after the import
    assert {f"quantrep.{name}" for name in ("cli", "datasets", "linear", "quantile", "ood",
                                            "calibration", "shift")} <= set(seen["quantrep"])
    for tag in ("two-moons", "gaussian-pair", "latent-binary", "xcorr", "fit-quantile",
                "fit-quantile-base", "calib-eval", "shift-match-orthogonal",
                "shift-match-affine"):
        assert seen[tag] == [0, [], []], tag
    assert seen["shift-match-one-class-t1"] == [3, [], []]
    rc, loaded, _ = seen["ood-eval"]
    assert rc == 0 and "scipy.spatial" in loaded and "scipy.optimize" not in loaded


def run_fit(tmp_path, tag, data, extra=()):
    out = tmp_path / tag
    rc = main(["fit-quantile", "--data", str(data), "--out", str(out),
               "--anchors", "12", "--dense", "60", *extra])
    assert rc == 0
    return out


def write_weighted(tmp_path, source):
    """A copy of a dataset file with a weight column (all weights 2)."""
    ds = load_dataset(source)
    path = tmp_path / "weighted.csv"
    save_dataset(Dataset(ds.features, ds.labels, ds.k, weights=np.full(ds.n, 2.0)), path)
    return path


@pytest.fixture(scope="module")
def moons_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("moons")
    rc = main(["gen-data", "two-moons", "--out", str(root / "a"),
               "--n-per-class", "60", "--ood-n", "30", "--seed", "7"])
    assert rc == 0
    return root / "a"


@pytest.fixture(scope="module")
def moons_model(tmp_path_factory, moons_dir):
    """A model fitted on the moons ID data, for tests that only read it."""
    return run_fit(tmp_path_factory.mktemp("moons_model"), "m", moons_dir / "id.csv")


@pytest.fixture(scope="module")
def pair_files(tmp_path_factory):
    """Two small gaussian-pair epochs, the t0 and t1 data of shift-match."""
    root = tmp_path_factory.mktemp("pair")
    for tag, seed in (("t0", "2"), ("t1", "3")):
        assert main(["gen-data", "gaussian-pair", "--out", str(root / tag),
                     "--n-per-class", "40", "--seed", seed]) == 0
    return root / "t0" / "data.csv", root / "t1" / "data.csv"


# the stages each subcommand closes, and the input flag that a failed run
# below points at a file that does not exist
RUN_STAGES = {
    "gen-data": ({"generate", "save"}, "--config"),
    "fit-quantile": ({"load", "base_fit", "quantile_fit", "diagnostics", "save"}, "--data"),
    "ood-eval": ({"load", "quantile_rep_lof", "baseline_lof", "metrics"}, "--test-ood"),
    "calib-eval": ({"load", "sweep"}, "--data"),
    "xcorr": ({"load", "correlation"}, "--data"),
    "shift-match": ({"load", "fit_t0", "fit_t1", "estimate", "save"}, "--data-t1"),
}


@pytest.mark.parametrize("command", list(RUN_STAGES))
def test_run_protocol(tmp_path, moons_dir, moons_model, pair_files, command):
    data, model = str(moons_dir / "id.csv"), str(moons_model)
    argv = {"gen-data": ["two-moons", "--n-per-class", "20", "--ood-n", "5"],
            "fit-quantile": ["--data", data, "--anchors", "12", "--dense", "60"],
            "ood-eval": ["--model", model, "--train", data, "--test-id", data,
                         "--test-ood", str(moons_dir / "ood.csv")],
            "calib-eval": ["--model", model, "--data", data, "--severities", "0,1"],
            "xcorr": ["--model", model, "--data", data],
            "shift-match": ["--data-t0", str(pair_files[0]),
                            "--data-t1", str(pair_files[1])]}[command]
    stages, input_flag = RUN_STAGES[command]
    ok = tmp_path / "ok"
    assert main([command, *argv, "--out", str(ok)]) == 0
    assert json.loads((ok / "resolved_config.json").read_text())["subcommand"] == command
    meta = json.loads((ok / "run_meta.json").read_text())
    assert set(meta) == {"timings_sec", "peak_rss_mb"}
    assert set(meta["timings_sec"]) == {*stages, "total"}
    assert all(v >= 0.0 for v in meta["timings_sec"].values())
    assert meta["timings_sec"]["total"] > 0.0
    assert meta["peak_rss_mb"] > 0.0

    # the last occurrence of a flag wins, so this names a missing input
    failed = tmp_path / "failed"
    assert main([command, *argv, "--out", str(failed),
                 input_flag, str(tmp_path / "absent")]) == 2
    assert not (failed / "resolved_config.json").exists()
    assert not (failed / "run_meta.json").exists()


def test_fitting_stages_cover_the_run(tmp_path, moons_dir, pair_files):
    # the stages of the two fitting subcommands are README.md's list, and
    # together they take all of `total` but the protocol's own writes
    readme = os.path.join(os.path.dirname(os.path.dirname(__file__)), "README.md")
    with open(readme, encoding="utf-8") as fh:
        documented = dict(re.findall(r"^\| `([a-z-]+)` \| (`.*`) \|$", fh.read(), re.M))
    runs = {"fit-quantile": ["--data", str(moons_dir / "id.csv"),
                             "--anchors", "12", "--dense", "60"],
            "shift-match": ["--data-t0", str(pair_files[0]),
                            "--data-t1", str(pair_files[1])]}
    for command, argv in runs.items():
        out = tmp_path / command
        assert main([command, *argv, "--out", str(out)]) == 0
        timings = json.loads((out / "run_meta.json").read_text())["timings_sec"]
        total = timings.pop("total")
        assert set(timings) == set(re.findall(r"`(\w+)`", documented[command])), command
        assert abs(sum(timings.values()) - total) <= 0.01, (command, timings, total)


class TestGenData:
    def test_two_moons_byte_identical_reruns(self, tmp_path):
        for tag in ("r1", "r2"):
            rc = main(["gen-data", "two-moons", "--out", str(tmp_path / tag),
                       "--n-per-class", "40", "--ood-n", "20", "--seed", "7"])
            assert rc == 0
        for name in ("id.csv", "ood.csv", "resolved_config.json"):
            assert read(tmp_path / "r1" / name) == read(tmp_path / "r2" / name)

    def test_gaussian_pair_defaults(self, tmp_path):
        rc = main(["gen-data", "gaussian-pair", "--out", str(tmp_path / "g"),
                   "--n-per-class", "300", "--seed", "1"])
        assert rc == 0
        ds = load_dataset(tmp_path / "g" / "data.csv")
        m0 = ds.features[ds.labels == 0].mean(axis=0)
        m1 = ds.features[ds.labels == 1].mean(axis=0)
        np.testing.assert_allclose(m0, [0.0, 0.0], atol=0.1)
        np.testing.assert_allclose(m1, [1.0, 1.0], atol=0.1)

    def test_latent_binary_writes_features_and_label(self, tmp_path):
        # P(y=1|x) is not stored: LatentOracle(spec).decision gives its logit
        rc = main(["gen-data", "latent-binary", "--out", str(tmp_path / "l"),
                   "--n", "100", "--dim", "2", "--g", "1.0,-0.5", "--seed", "3"])
        assert rc == 0
        assert (tmp_path / "l" / "data.csv").read_text().split("\n")[0] == "f0,f1,label"
        assert load_dataset(tmp_path / "l" / "data.csv").d == 2

    def test_missing_output_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["gen-data", "two-moons"])
        assert exc.value.code == 2

    def test_flag_of_another_kind_exit_2(self, tmp_path, capsys):
        # each kind has its own parser, so another kind's flag is a usage error
        with pytest.raises(SystemExit) as exc:
            main(["gen-data", "two-moons", "--out", str(tmp_path / "g"),
                  "--centers", "9,9,9,9", "--dim", "7", "--n", "3"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "error:" in err
        for flag in ("--centers", "--dim", "--n"):
            assert flag in err

    def test_config_key_of_another_kind_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n_per_class": 25, "dim": 3}))
        rc = main(["gen-data", "two-moons", "--out", str(tmp_path / "c"),
                   "--config", str(cfg)])
        assert rc == 2
        assert "'dim'" in capsys.readouterr().err

    def test_resolved_config_reruns_as_config(self, tmp_path):
        assert main(["gen-data", "gaussian-pair", "--out", str(tmp_path / "a"),
                     "--n-per-class", "30", "--seed", "4"]) == 0
        resolved = tmp_path / "a" / "resolved_config.json"
        assert main(["gen-data", "gaussian-pair", "--out", str(tmp_path / "b"),
                     "--config", str(resolved)]) == 0
        assert read(tmp_path / "a" / "data.csv") == read(tmp_path / "b" / "data.csv")
        # the echoed kind names the kind the file was made for
        assert main(["gen-data", "two-moons", "--out", str(tmp_path / "c"),
                     "--config", str(resolved)]) == 2

    def test_config_value_of_wrong_type_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n_per_class": None}))
        rc = main(["gen-data", "two-moons", "--out", str(tmp_path / "c"),
                   "--config", str(cfg)])
        assert rc == 2
        assert "'n_per_class'" in capsys.readouterr().err
        assert not (tmp_path / "c" / "id.csv").exists()

    def test_config_that_is_not_an_object_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps([["n_per_class", 25]]))
        rc = main(["gen-data", "two-moons", "--out", str(tmp_path / "c"),
                   "--config", str(cfg)])
        assert rc == 2
        assert str(cfg) in capsys.readouterr().err

    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n_per_class": 25, "seed": 4}))
        rc = main(["gen-data", "two-moons", "--out", str(tmp_path / "c"),
                   "--config", str(cfg), "--seed", "9"])
        assert rc == 0
        resolved = json.loads((tmp_path / "c" / "resolved_config.json").read_text())
        assert resolved["n_per_class"] == 25   # from config file
        assert resolved["seed"] == 9           # flag wins
        ds = load_dataset(tmp_path / "c" / "id.csv")
        assert ds.n == 50



def test_fit_defaults_follow_the_library():
    # FIT_DEFAULTS is read from FitConfig and QuantileGrid, not restated:
    # with other library defaults the CLI resolves those
    src = os.path.dirname(os.path.dirname(quantrep.__file__))
    code = """if True:
        import dataclasses, json
        import numpy as np
        import quantrep.linear, quantrep.quantile
        quantrep.linear.FitConfig = dataclasses.make_dataclass(
            "FitConfig", [("l2_reg", float, 0.5), ("max_iter", int, 7),
                          ("tol", float, 1e-3), ("seed", int, 3)])
        class Grid(quantrep.quantile.QuantileGrid):
            def __post_init__(self):
                self.anchors = np.linspace(0.2, 0.8, 9)
                self.dense = np.linspace(0.2, 0.8, 30)
                super().__post_init__()
        quantrep.quantile.QuantileGrid = Grid
        from quantrep.cli import FIT_DEFAULTS
        print(json.dumps(FIT_DEFAULTS, sort_keys=True))
    """
    proc = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, check=True)
    # FitConfig.seed is not a parameter: no subcommand reads it
    assert json.loads(proc.stdout) == {"anchors": 9, "dense": 30, "tau_min": 0.2,
                                       "tau_max": 0.8, "l2_reg": 0.5, "max_iter": 7,
                                       "tol": 1e-3}


def subparsers(parser):
    return next(a.choices for a in parser._actions if isinstance(a.choices, dict))


def test_defaults_have_their_flag_types():
    # _resolve reads a --config value through the type of its default
    commands = subparsers(build_parser())
    kinds = subparsers(commands["gen-data"])
    assert sorted(kinds) == sorted(GEN_DEFAULTS)
    for parser, defaults in [(commands["fit-quantile"], FIT_DEFAULTS),
                             *((kinds[kind], d) for kind, d in GEN_DEFAULTS.items())]:
        types = {a.dest: a.type or str for a in parser._actions}
        for key, default in defaults.items():
            assert types[key] is type(default), (parser.prog, key)


def test_gen_defaults_follow_the_library():
    # a gen-data default is the library's default for the same parameter; a
    # comma-separated text default reads as the library's number or tuple
    sources = {"two-moons": [gen_two_moons], "gaussian-pair": [gen_gaussian_pair],
               "latent-binary": [gen_latent_binary, LatentModelSpec]}
    for kind, funcs in sources.items():
        for func in funcs:
            for name, param in inspect.signature(func).parameters.items():
                if param.default is inspect.Parameter.empty:
                    continue
                cli, lib = GEN_DEFAULTS[kind][name], param.default
                if isinstance(cli, str) and not isinstance(lib, str):
                    cli, lib = [float(v) for v in cli.split(",")], list(np.atleast_1d(lib))
                assert cli == lib, (kind, name)


def test_readme_commands_parse(capsys):
    # every `quantrep ...` line of README.md's sh blocks, with its `\`
    # continuations joined, parses: the documented argv order stays valid
    readme = os.path.join(os.path.dirname(os.path.dirname(__file__)), "README.md")
    with open(readme, encoding="utf-8") as fh:
        blocks = re.findall(r"```sh\n(.*?)```", fh.read(), re.S)
    lines = [shlex.split(line, comments=True) for block in blocks
             for line in block.replace("\\\n", " ").splitlines()]
    commands = [argv[1:] for argv in lines if argv[:1] == ["quantrep"]]
    parser = build_parser()
    commands_seen = {argv[0] for argv in commands}
    kinds_seen = {argv[1] for argv in commands if argv[0] == "gen-data"}
    assert (commands_seen, kinds_seen) == (set(subparsers(parser)), set(GEN_DEFAULTS))
    for argv in commands:
        try:
            parser.parse_args(argv)
        except SystemExit as exc:  # -h exits 0, a usage error 2
            assert exc.code == 0 and "-h" in argv, shlex.join(["quantrep", *argv])


@pytest.mark.parametrize("argv", [
    ["fit-quantile", "--data", "d.csv", "--out", "o", "--anc", "7"],
    ["ood-eval", "--model", "m", "--train", "t", "--test-i", "a", "--test-ood", "b",
     "--out", "o"],
    ["calib-eval", "--model", "m", "--data", "d.csv", "--out", "o", "--sev", "0"],
    ["shift-match", "--data-t0", "a", "--data-t1", "b", "--out", "o", "--fam", "affine"],
    ["gen-data", "two-moons", "--out", "o", "--n-per", "3"],
])
def test_abbreviated_flag_is_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(argv)
    assert exc.value.code == 2
    assert "error:" in capsys.readouterr().err


class TestFitQuantile:
    def test_outputs_and_manifest(self, tmp_path, moons_dir):
        out = run_fit(tmp_path, "fit1", moons_dir / "id.csv")
        for name in ("model.json", "model_dense.bin", "base.json",
                     "manifest.json", "resolved_config.json", "run_meta.json"):
            assert (out / name).exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["grid"]["n_anchor"] == 12
        assert manifest["grid"]["n_dense"] == 60
        assert 0.0 <= manifest["monotonicity_violation_rate"] <= 1.0
        # 12 anchors put the "median" anchor at tau=0.455; agreement is
        # correspondingly looser than with the default grid
        assert manifest["median_agreement"][0] >= 0.9
        assert "timings" not in json.dumps(manifest)

    def test_manifest_counts_anchor_diagnostics(self, tmp_path, moons_dir, capsys):
        out = run_fit(tmp_path, "conv", moons_dir / "id.csv")
        assert "warning" not in capsys.readouterr().err
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["nonconverged_anchors"] == [0]
        assert manifest["degenerate_anchors"][0] >= 0
        assert manifest["anchor_iterations"][0] > 12 - manifest["degenerate_anchors"][0]

        out = run_fit(tmp_path, "capped", moons_dir / "id.csv", ("--max-iter", "1"))
        err = capsys.readouterr().err
        assert err.count("warning") == 1
        assert "did not meet the stopping rule" in err
        capped = json.loads((out / "manifest.json").read_text())
        assert capped["nonconverged_anchors"][0] > 0
        # one Newton step per fitted anchor, none for a one-class anchor
        assert 0 < capped["anchor_iterations"][0] <= 12 - capped["degenerate_anchors"][0]
        # the base fit stops after its one step too; the same line names it
        assert (capped["base_converged"], capped["base_iterations"]) == ([False], [1])
        assert "1 base fits" in err

    def test_manifest_base_diagnostics(self, tmp_path, moons_dir, moons_model):
        manifest = json.loads((moons_model / "manifest.json").read_text())
        assert manifest["schema_version"] == 3
        assert manifest["base_converged"] == [True]
        assert manifest["base_iterations"][0] > 0
        # a given base was not fitted by this run: it has no diagnostics
        out = run_fit(tmp_path, "given", moons_dir / "id.csv",
                      ("--base-model", str(moons_model / "base.json")))
        given = json.loads((out / "manifest.json").read_text())
        assert (given["base_converged"], given["base_iterations"]) == ([None], [None])
        assert given["anchor_iterations"] == manifest["anchor_iterations"]

    def test_rerun_byte_identical_results(self, tmp_path, moons_dir):
        a = run_fit(tmp_path, "da", moons_dir / "id.csv")
        b = run_fit(tmp_path, "db", moons_dir / "id.csv")
        for name in ("model.json", "model_dense.bin", "base.json", "manifest.json"):
            assert read(a / name) == read(b / name), name

    def test_missing_data_exit_2(self, tmp_path):
        rc = main(["fit-quantile", "--data", str(tmp_path / "nope.csv"),
                   "--out", str(tmp_path / "x")])
        assert rc == 2

    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_nonfinite_weight_exit_2(self, tmp_path, moons_dir, bad, capsys):
        lines = (moons_dir / "id.csv").read_text().splitlines()
        rows = [f"{line},1.0" for line in lines[1:]]
        rows[4] = f"{lines[5]},{bad}"
        data = tmp_path / "w.csv"
        data.write_text("\n".join([f"{lines[0]},weight", *rows]) + "\n")
        rc = main(["fit-quantile", "--data", str(data), "--out", str(tmp_path / "x")])
        assert rc == 2
        assert "weights must be positive and finite" in capsys.readouterr().err
        assert not (tmp_path / "x" / "model.json").exists()

    def test_config_value_of_wrong_type_exit_2(self, tmp_path, moons_dir, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"anchors": "x"}))
        rc = main(["fit-quantile", "--data", str(moons_dir / "id.csv"),
                   "--out", str(tmp_path / "x"), "--config", str(cfg)])
        assert rc == 2
        assert "'anchors'" in capsys.readouterr().err
        assert not (tmp_path / "x" / "model.json").exists()

    def test_unknown_config_key_exit_2(self, tmp_path, moons_dir, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"anchor": 7, "dense": 40}))
        rc = main(["fit-quantile", "--data", str(moons_dir / "id.csv"),
                   "--out", str(tmp_path / "x"), "--config", str(cfg)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "'anchor'" in err and "'dense'" not in err
        assert not (tmp_path / "x" / "model.json").exists()

    def test_config_with_a_seed_exit_2(self, tmp_path, moons_dir, capsys):
        # fit-quantile takes no seed, so an older resolved_config.json that
        # holds one is refused, naming the key, rather than read in part
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"subcommand": "fit-quantile", "anchors": 12, "seed": 0}))
        rc = main(["fit-quantile", "--data", str(moons_dir / "id.csv"),
                   "--out", str(tmp_path / "x"), "--config", str(cfg)])
        assert rc == 2
        assert "'seed'" in capsys.readouterr().err
        assert not (tmp_path / "x" / "model.json").exists()

    def test_resolved_config_reruns_as_config(self, tmp_path, moons_dir):
        a = run_fit(tmp_path, "a", moons_dir / "id.csv", ("--tau-min", "0.05",
                                                          "--tau-max", "0.95"))
        b = tmp_path / "b"
        assert main(["fit-quantile", "--data", str(moons_dir / "id.csv"), "--out", str(b),
                     "--config", str(a / "resolved_config.json")]) == 0
        for name in ("model.json", "model_dense.bin", "base.json", "manifest.json",
                     "resolved_config.json"):
            assert read(a / name) == read(b / name), name

    def test_defaults_complete_quickly(self, tmp_path, moons_dir):
        import time
        out = tmp_path / "full"
        t0 = time.perf_counter()
        rc = main(["fit-quantile", "--data", str(moons_dir / "id.csv"),
                   "--out", str(out)])
        elapsed = time.perf_counter() - t0
        assert rc == 0
        assert elapsed < 60.0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["grid"] == {"n_anchor": 100, "n_dense": 1000,
                                    "tau_min": 0.01, "tau_max": 0.99}

    def test_manifest_monotonicity_on_separable_data(self, tmp_path):
        from quantrep import Dataset, save_dataset
        rng = np.random.default_rng(6)
        x = rng.uniform(-2, 2, 300)
        x = x[np.abs(x) > 0.15][:, None]  # separable with a clear margin
        ds = Dataset(x, (x[:, 0] > 0).astype(int), 2)
        save_dataset(ds, tmp_path / "sep.csv")
        out = tmp_path / "sepfit"
        rc = main(["fit-quantile", "--data", str(tmp_path / "sep.csv"),
                   "--out", str(out)])
        assert rc == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["monotonicity_violation_rate"] < 0.01
        assert manifest["median_agreement"][0] >= 0.99

    def test_two_base_classifiers_for_binary_data_exit_2(self, tmp_path, moons_dir,
                                                           capsys):
        base = tmp_path / "base.json"
        clf = {"weights": [1.0, -1.0], "bias": 0.0}
        base.write_text(json.dumps({"classifiers": [clf, clf]}))
        rc = main(["fit-quantile", "--data", str(moons_dir / "id.csv"),
                   "--base-model", str(base), "--out", str(tmp_path / "f"),
                   "--anchors", "12", "--dense", "60"])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_asymmetric_tau_range_on_binary_data_exit_2(self, tmp_path, moons_dir,
                                                         capsys):
        rc = main(["fit-quantile", "--data", str(moons_dir / "id.csv"),
                   "--out", str(tmp_path / "f"), "--tau-min", "0.05",
                   "--tau-max", "0.9"])
        assert rc == 2
        assert "symmetric" in capsys.readouterr().err

    def test_three_anchors_exit_2_before_any_fit(self, tmp_path, moons_dir, monkeypatch,
                                                  capsys):
        # the spline needs four anchors: the grid says so before a fit runs
        import quantrep.quantile as q

        fits = []
        fit = q.fit_weighted_logistic
        monkeypatch.setattr(q, "fit_weighted_logistic",
                            lambda *args, **kwargs: fits.append(1) or fit(*args, **kwargs))
        rc = main(["fit-quantile", "--data", str(moons_dir / "id.csv"),
                   "--out", str(tmp_path / "f"), "--anchors", "3", "--dense", "20"])
        assert rc == 2
        assert ">= 4 points" in capsys.readouterr().err
        assert fits == []

    def test_fit_failure_exit_3(self, tmp_path, moons_dir, monkeypatch):
        import quantrep.quantile as q

        base_dir = run_fit(tmp_path, "bm", moons_dir / "id.csv")

        def zero_fits(features, probs, sample_weights, taus, median_idx, config):
            count = taus.size
            return (np.zeros((count, features.shape[1] + 1)), np.ones(count, dtype=bool),
                    np.zeros(count, dtype=bool), 0)

        # fail inside the anchor sweep (the base model is loaded from disk):
        # an all-zero fit has no direction to store
        monkeypatch.setattr(q, "_anchor_fits", zero_fits)
        rc = main(["fit-quantile", "--data", str(moons_dir / "id.csv"),
                   "--base-model", str(base_dir / "base.json"),
                   "--out", str(tmp_path / "f"), "--anchors", "6",
                   "--dense", "24"])
        assert rc == 3

    def test_all_degenerate_anchors_exit_3(self, tmp_path, capsys):
        # a base that is sure of class 1 everywhere leaves one-class
        # pseudo-labels at every tau: a model with no information
        assert main(["gen-data", "latent-binary", "--out", str(tmp_path / "d"),
                     "--n", "200"]) == 0
        base = tmp_path / "base.json"
        base.write_text(json.dumps({"classifiers": [
            {"weights": [0.0], "bias": 50.0}]}))
        out = tmp_path / "f"
        assert main(["fit-quantile", "--data", str(tmp_path / "d" / "data.csv"),
                     "--base-model", str(base), "--out", str(out)]) == 3
        assert "every anchor fit is degenerate" in capsys.readouterr().err
        assert list(out.iterdir()) == []


class TestOodEval:
    def test_report_schema(self, tmp_path, moons_dir):
        model = run_fit(tmp_path, "m", moons_dir / "id.csv")
        out = tmp_path / "ood"
        rc = main(["ood-eval", "--model", str(model),
                   "--train", str(moons_dir / "id.csv"),
                   "--test-id", str(moons_dir / "id.csv"),
                   "--test-ood", str(moons_dir / "ood.csv"),
                   "--out", str(out), "--k", "10"])
        assert rc == 0
        metrics = json.loads((out / "metrics.json").read_text())
        for det in ("baseline", "quantile-rep"):
            for key in ("auroc", "tnr_at_tpr95", "detection_accuracy"):
                assert 0.0 <= metrics[det][key] <= 1.0
        with open(out / "metrics.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert {r["detector"] for r in rows} == {"baseline", "quantile-rep"}

    @pytest.mark.parametrize("damage", ["schema-version", "task-count", "no-tasks",
                                        "missing-field",
                                        "weights-length", "bias-type",
                                        "weight-nan", "bias-inf",
                                        "anchor-norm",
                                        "row-count", "width", "int-overflow"])
    def test_damaged_model_exit_2(self, tmp_path, moons_dir, damage, capsys):
        model = run_fit(tmp_path, "m", moons_dir / "id.csv")
        meta_path = model / "model.json"
        meta = json.loads(meta_path.read_text())
        rows = meta["anchor_coefficients"][0]  # (weights, bias) per anchor
        if damage == "schema-version":
            meta["schema_version"] = 99
        elif damage == "task-count":
            # one task is binary, three a 3-class model; two name no model
            meta["anchor_coefficients"] *= 2
        elif damage == "no-tasks":
            meta["anchor_coefficients"] = []
        elif damage == "missing-field":
            del meta["grid"]
        elif damage == "weights-length":
            # a model of 3 features, which the 2-feature data does not match
            for row in rows:
                row.insert(-1, 0.0)
        elif damage == "weight-nan":
            rows[3][0] = float("nan")
        elif damage == "bias-inf":
            rows[3][-1] = float("inf")
        elif damage == "anchor-norm":
            rows[:10] = [[3.0 * v for v in row] for row in rows[:10]]
        elif damage == "row-count":
            del rows[5]
        elif damage == "width":
            rows[7].insert(-1, 0.0)
        elif damage == "int-overflow":
            # JSON holds integers of any size; this one has no float
            rows[3][-1] = 10**400
        else:
            rows[3][-1] = "x"
        meta_path.write_text(json.dumps(meta))
        rc = main(["ood-eval", "--model", str(model),
                   "--train", str(moons_dir / "id.csv"),
                   "--test-id", str(moons_dir / "id.csv"),
                   "--test-ood", str(moons_dir / "ood.csv"),
                   "--out", str(tmp_path / "ood")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert list((tmp_path / "ood").iterdir()) == []
        # model.json has one reader, so the other subcommands refuse it too
        for cmd in ("calib-eval", "xcorr"):
            assert main([cmd, "--model", str(model), "--data", str(moons_dir / "id.csv"),
                         "--out", str(tmp_path / cmd)]) == 2

    @staticmethod
    def _old_schema(tmp_path, moons_dir, version, task):
        """A fitted model's file rewritten as a ``version`` file: each task,
        which ``task`` builds from its anchor rows, in a ``tasks`` list with
        its class id and median agreement, under the class count."""
        model = run_fit(tmp_path, "m", moons_dir / "id.csv")
        meta_path = model / "model.json"
        meta = json.loads(meta_path.read_text())
        meta.update(schema_version=version, class_count=2, tasks=[
            {"class_id": 1, "median_agreement": 1.0, **task(rows)}
            for rows in meta.pop("anchor_coefficients")])
        meta_path.write_text(json.dumps(meta))
        return model

    def _assert_every_reader_refuses(self, model, moons_dir, tmp_path, capsys, version):
        # no code reads an old layout, and every reader says which version
        # it has and what to do
        data = str(moons_dir / "id.csv")
        for argv in (["ood-eval", "--train", data, "--test-id", data,
                      "--test-ood", str(moons_dir / "ood.csv")],
                     ["calib-eval", "--data", data], ["xcorr", "--data", data]):
            out = tmp_path / argv[0]
            assert main([*argv, "--model", str(model), "--out", str(out)]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.count("\n") == 1
            assert f"schema_version {version}" in err and "version 3" in err
            assert "re-run fit-quantile" in err
            assert list(out.iterdir()) == []

    def test_schema_1_model_exit_2(self, tmp_path, moons_dir, capsys):
        # a version-1 file held each anchor as a classifier dict
        model = self._old_schema(tmp_path, moons_dir, 1, lambda rows: {
            "anchor_classifiers": [{"weights": row[:-1], "bias": row[-1], "normalized": True}
                                   for row in rows]})
        self._assert_every_reader_refuses(model, moons_dir, tmp_path, capsys, 1)

    def test_schema_2_model_exit_2(self, tmp_path, moons_dir, capsys):
        # a version-2 file held each task's anchor rows with its class id and
        # median agreement, under the class count
        model = self._old_schema(tmp_path, moons_dir, 2,
                                 lambda rows: {"anchor_coefficients": rows})
        self._assert_every_reader_refuses(model, moons_dir, tmp_path, capsys, 2)

    def test_feature_dimension_mismatch_exit_2(self, tmp_path, moons_dir):
        model = run_fit(tmp_path, "m", moons_dir / "id.csv")
        assert main(["gen-data", "latent-binary", "--out", str(tmp_path / "l"),
                     "--n", "40", "--dim", "3", "--g", "1,0,0"]) == 0
        rc = main(["ood-eval", "--model", str(model),
                   "--train", str(moons_dir / "id.csv"),
                   "--test-id", str(moons_dir / "id.csv"),
                   "--test-ood", str(tmp_path / "l" / "data.csv"),
                   "--out", str(tmp_path / "ood")])
        assert rc == 2

    def test_base_json_task_mismatch_exit_2(self, tmp_path, moons_dir, capsys):
        # a binary model takes one base classifier; three must not be scored
        model = run_fit(tmp_path, "m", moons_dir / "id.csv")
        base = json.loads((model / "base.json").read_text())
        base["classifiers"] = base["classifiers"] * 3
        (model / "base.json").write_text(json.dumps(base))
        rc = main(["ood-eval", "--model", str(model),
                   "--train", str(moons_dir / "id.csv"),
                   "--test-id", str(moons_dir / "id.csv"),
                   "--test-ood", str(moons_dir / "ood.csv"),
                   "--out", str(tmp_path / "ood")])
        assert rc == 2
        assert "base classifier" in capsys.readouterr().err
        assert not (tmp_path / "ood" / "metrics.json").exists()
        assert main(["calib-eval", "--model", str(model), "--data", str(moons_dir / "id.csv"),
                     "--out", str(tmp_path / "calib")]) == 2

    @pytest.mark.parametrize("damage", ["no-bias", "no-classifiers", "bias-nan",
                                        "weight-inf", "extra-key", "int-overflow"])
    def test_malformed_base_json_exit_2(self, tmp_path, moons_dir, damage, capsys):
        model = run_fit(tmp_path, "m", moons_dir / "id.csv")
        base = json.loads((model / "base.json").read_text())
        if damage == "no-bias":
            del base["classifiers"][0]["bias"]
        elif damage == "bias-nan":
            base["classifiers"][0]["bias"] = float("nan")
        elif damage == "weight-inf":
            base["classifiers"][0]["weights"][1] = float("-inf")
        elif damage == "int-overflow":
            base["classifiers"][0]["bias"] = 10**400
        elif damage == "extra-key":
            # the flag a version-1 base.json carried; an entry is weights and bias
            base["classifiers"][0]["normalized"] = False
        else:
            base = {"clf": []}
        (model / "base.json").write_text(json.dumps(base))
        data = str(moons_dir / "id.csv")
        for argv in (["ood-eval", "--train", data, "--test-id", data,
                      "--test-ood", str(moons_dir / "ood.csv")],
                     ["calib-eval", "--data", data],
                     ["fit-quantile", "--data", data, "--base-model",
                      str(model / "base.json"), "--anchors", "8", "--dense", "40"]):
            if argv[0] != "fit-quantile":
                argv += ["--model", str(model)]
            out = tmp_path / argv[0]
            assert main([*argv, "--out", str(out)]) == 2
            err = capsys.readouterr().err
            assert f"malformed base model file {model / 'base.json'}" in err
            assert damage != "extra-key" or "'normalized'" in err
            assert list(out.iterdir()) == []

    def test_defaults_in_resolved_config(self, tmp_path, moons_dir, moons_model):
        out = tmp_path / "ood"
        assert main(["ood-eval", "--model", str(moons_model),
                     "--train", str(moons_dir / "id.csv"),
                     "--test-id", str(moons_dir / "id.csv"),
                     "--test-ood", str(moons_dir / "ood.csv"),
                     "--out", str(out)]) == 0
        resolved = json.loads((out / "resolved_config.json").read_text())
        assert resolved["k"] == 20

    @pytest.mark.parametrize("flag", ["--train", "--test-id", "--test-ood"])
    def test_weighted_input_exit_2(self, tmp_path, moons_dir, moons_model, flag, capsys):
        weighted = write_weighted(tmp_path, moons_dir / "id.csv")
        files = {"--train": moons_dir / "id.csv", "--test-id": moons_dir / "id.csv",
                 "--test-ood": moons_dir / "ood.csv", flag: weighted}
        rc = main(["ood-eval", "--model", str(moons_model),
                   *[arg for name, path in files.items() for arg in (name, str(path))],
                   "--out", str(tmp_path / "ood")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "ood-eval" in err and str(weighted) in err
        assert not (tmp_path / "ood" / "metrics.json").exists()

    def test_missing_inputs_exit_2(self, tmp_path, moons_dir):
        rc = main(["ood-eval", "--model", str(tmp_path / "absent"),
                   "--train", str(moons_dir / "id.csv"),
                   "--test-id", str(moons_dir / "id.csv"),
                   "--test-ood", str(moons_dir / "ood.csv"),
                   "--out", str(tmp_path / "o")])
        assert rc == 2



@pytest.fixture(scope="module")
def one_feature_model(tmp_path_factory):
    """A latent-binary file of one feature and the model fitted on it."""
    root = tmp_path_factory.mktemp("one_feature")
    assert main(["gen-data", "latent-binary", "--out", str(root / "d"), "--n", "200",
                 "--dim", "1", "--g", "1"]) == 0
    data = root / "d" / "data.csv"
    return data, run_fit(root, "m", data)


@pytest.mark.parametrize("weights", [5.4, [[1.0, 2.0]]], ids=["scalar", "matrix"])
@pytest.mark.parametrize("command", ["ood-eval", "calib-eval", "fit-quantile"])
def test_base_weights_not_a_vector_exit_2(tmp_path, one_feature_model, command, weights,
                                          capsys):
    # on a one-feature model a one-row matrix has the model's width, so only
    # the rule that weights are a vector rejects it
    data, model = one_feature_model
    model = shutil.copytree(model, tmp_path / "m")
    base = json.loads((model / "base.json").read_text())
    base["classifiers"][0]["weights"] = weights
    (model / "base.json").write_text(json.dumps(base))
    argv = {"fit-quantile": ["--data", data, "--base-model", model / "base.json"],
            "calib-eval": ["--model", model, "--data", data],
            "ood-eval": ["--model", model, "--train", data, "--test-id", data,
                         "--test-ood", data]}[command]
    assert main([command, *map(str, argv), "--out", str(tmp_path / "out")]) == 2
    assert f"malformed base model file {model / 'base.json'}" in capsys.readouterr().err


class TestCalibEval:
    def test_severity_zero_row_matches_clean(self, tmp_path, moons_dir):
        model = run_fit(tmp_path, "mc", moons_dir / "id.csv")
        out = tmp_path / "cal"
        rc = main(["calib-eval", "--model", str(model),
                   "--data", str(moons_dir / "id.csv"), "--out", str(out),
                   "--severities", "0,0.5", "--seed", "5"])
        assert rc == 0
        with open(out / "sweep.csv") as fh:
            rows = list(csv.DictReader(fh))
        methods = {r["method"] for r in rows}
        assert methods == {"QUANT", "MSP", "QUANT+platt", "QUANT+isotonic"}
        clean = [r for r in rows if float(r["severity"]) == 0.0]
        assert len(clean) == 4

        # severity-0 QUANT row equals a direct clean evaluation
        from quantrep import ece, load_model, model_class_probabilities, msp_confidence
        m = load_model(model / "model.json")
        ds = load_dataset(moons_dir / "id.csv")
        probs = model_class_probabilities(m, ds.features)
        conf, pred = msp_confidence(probs)
        acc = float((pred == ds.labels).mean())
        val, _ = ece(conf, (pred == ds.labels).astype(float), m=5, binning="quantile")
        q_row = [r for r in clean if r["method"] == "QUANT"][0]
        assert float(q_row["accuracy"]) == pytest.approx(acc, abs=1e-15)
        assert float(q_row["ece"]) == pytest.approx(val, abs=1e-15)

    def test_defaults_in_resolved_config(self, tmp_path, moons_dir, moons_model):
        out = tmp_path / "cal"
        assert main(["calib-eval", "--model", str(moons_model),
                     "--data", str(moons_dir / "id.csv"), "--out", str(out)]) == 0
        resolved = json.loads((out / "resolved_config.json").read_text())
        assert resolved["severities"] == [0, 0.25, 0.5, 1, 1.5, 2]
        assert (resolved["corruption"], resolved["bins"], resolved["binning"],
                resolved["seed"]) == ("gaussian-noise", 5, "quantile", 0)
        with open(out / "sweep.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["method"] for r in rows[:4]] == ["QUANT", "MSP", "QUANT+platt",
                                                   "QUANT+isotonic"]
        assert len(rows) == 4 * 6

    @pytest.mark.parametrize("severities", ["", "0,nan", "0,inf", "-0.5,1", "0,abc"])
    def test_bad_severities_exit_2(self, tmp_path, moons_dir, moons_model, severities, capsys):
        rc = main(["calib-eval", "--model", str(moons_model),
                   "--data", str(moons_dir / "id.csv"), "--out", str(tmp_path / "cal"),
                   f"--severities={severities}"])
        assert rc == 2
        assert "error:" in capsys.readouterr().err
        assert not (tmp_path / "cal" / "sweep.csv").exists()

    @pytest.mark.parametrize("corruption", ["gaussian-noise", "feature-scaling",
                                            "feature-shift"])
    def test_overflowing_severity_exit_2(self, tmp_path, moons_dir, moons_model, corruption,
                                         capsys):
        # a finite severity whose corrupted features overflow, or, for
        # feature-shift, stay finite but overflow the base logits: the error
        # names it, where the confidences it breaks would be blamed instead
        # (pytest turns the overflow warnings it would raise into errors)
        out = tmp_path / "cal"
        rc = main(["calib-eval", "--model", str(moons_model), "--data",
                   str(moons_dir / "id.csv"), "--out", str(out),
                   "--corruption", corruption, "--severities", "0,1e308"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert f"{corruption} at severity 1e+308" in err
        assert list(out.iterdir()) == []

    def test_weighted_data_exit_2(self, tmp_path, moons_dir, moons_model, capsys):
        weighted = write_weighted(tmp_path, moons_dir / "id.csv")
        rc = main(["calib-eval", "--model", str(moons_model), "--data", str(weighted),
                   "--out", str(tmp_path / "cal")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "calib-eval" in err and str(weighted) in err
        assert not (tmp_path / "cal" / "sweep.csv").exists()

    def test_label_beyond_model_classes_exit_2(self, tmp_path, moons_model, capsys):
        rng = np.random.default_rng(4)
        three = tmp_path / "three.csv"
        save_dataset(Dataset(rng.normal(size=(30, 2)), np.arange(30) % 3, 3), three)
        rc = main(["calib-eval", "--model", str(moons_model), "--data", str(three),
                   "--out", str(tmp_path / "cal")])
        assert rc == 2
        assert "label 2" in capsys.readouterr().err
        assert not (tmp_path / "cal" / "sweep.csv").exists()

    def test_perfectly_classified_data(self, tmp_path):
        # every clean prediction is right: Platt's map is the constant one
        assert main(["gen-data", "gaussian-pair", "--out", str(tmp_path / "g"),
                     "--centers", "0,0,10,10", "--n-per-class", "100"]) == 0
        data = tmp_path / "g" / "data.csv"
        model = run_fit(tmp_path, "m", data)
        out = tmp_path / "cal"
        assert main(["calib-eval", "--model", str(model), "--data", str(data),
                     "--out", str(out), "--severities", "0"]) == 0
        with open(out / "sweep.csv") as fh:
            rows = {r["method"]: r for r in csv.DictReader(fh)}
        assert float(rows["QUANT"]["accuracy"]) == 1.0
        assert float(rows["QUANT+platt"]["ece"]) < 1e-10


class TestXcorr:
    def test_emits_matrices_and_pairs(self, tmp_path, moons_dir):
        model = run_fit(tmp_path, "mx", moons_dir / "id.csv")
        out = tmp_path / "xc"
        rc = main(["xcorr", "--model", str(model),
                   "--data", str(moons_dir / "id.csv"), "--out", str(out)])
        assert rc == 0
        quant = np.loadtxt(out / "xcorr_quantile.csv", delimiter=",")
        raw = np.loadtxt(out / "xcorr_raw.csv", delimiter=",")
        assert quant.shape == (2, 2) and raw.shape == (2, 2)
        with open(out / "scatter_pairs.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 1  # d=2 -> one off-diagonal pair

    @pytest.mark.parametrize("data_dim, model_dim", [(3, 2), (2, 3)])
    def test_data_dimension_mismatch_exit_2(self, tmp_path, data_dim, model_dim, capsys):
        rng = np.random.default_rng(3)
        paths = {}
        for dim in (data_dim, model_dim):
            paths[dim] = tmp_path / f"d{dim}.csv"
            save_dataset(Dataset(rng.normal(size=(40, dim)), np.arange(40) % 2, 2),
                         paths[dim])
        model = run_fit(tmp_path, "m", paths[model_dim])
        out = tmp_path / "xc"
        rc = main(["xcorr", "--model", str(model), "--data", str(paths[data_dim]),
                   "--out", str(out)])
        assert rc == 2
        assert "dimension" in capsys.readouterr().err
        assert not (out / "scatter_pairs.csv").exists()

    def test_weighted_data_exit_2(self, tmp_path, moons_dir, moons_model, capsys):
        weighted = write_weighted(tmp_path, moons_dir / "id.csv")
        out = tmp_path / "xc"
        rc = main(["xcorr", "--model", str(moons_model), "--data", str(weighted),
                   "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "xcorr" in err and str(weighted) in err
        assert not (out / "scatter_pairs.csv").exists()


    def test_constant_feature_gives_empty_cells(self, tmp_path, moons_dir):
        # a zero column has no variance in the data, and its anchor weights
        # stay 0, so its correlations are undefined in both tables
        ds = load_dataset(moons_dir / "id.csv")
        data = tmp_path / "flat.csv"
        save_dataset(Dataset(np.column_stack([ds.features, np.zeros(ds.n)]),
                             ds.labels, ds.k), data)
        model = run_fit(tmp_path, "m", data)
        out = tmp_path / "xc"
        assert main(["xcorr", "--model", str(model), "--data", str(data),
                     "--out", str(out)]) == 0
        for name in ("xcorr_quantile.csv", "xcorr_raw.csv"):
            rows = (out / name).read_text().splitlines()
            assert [row.split(",")[2] for row in rows] == ["", "", ""], name
            assert rows[2] == ",,"
            assert all(cell != "" for row in rows[:2] for cell in row.split(",")[:2])
        pairs = [row.split(",") for row in
                 (out / "scatter_pairs.csv").read_text().splitlines()[1:]]
        assert [p[:2] for p in pairs] == [["0", "1"], ["0", "2"], ["1", "2"]]
        assert all(pairs[0][2:]) and pairs[1][2:] == pairs[2][2:] == ["", ""]


def test_model_without_sidecar_gives_the_same_results(tmp_path, moons_dir, moons_model):
    # model_dense.bin is an export: a model is read from its anchors alone
    bare = tmp_path / "bare"
    shutil.copytree(moons_model, bare)
    (bare / "model_dense.bin").unlink()
    data = str(moons_dir / "id.csv")
    runs = {"ood-eval": (["--train", data, "--test-id", data,
                          "--test-ood", str(moons_dir / "ood.csv")],
                         ("metrics.json", "metrics.csv")),
            "calib-eval": (["--data", data], ("sweep.csv",)),
            "xcorr": (["--data", data],
                      ("xcorr_quantile.csv", "xcorr_raw.csv", "scatter_pairs.csv"))}
    for command, (argv, files) in runs.items():
        for model in (moons_model, bare):
            assert main([command, "--model", str(model), *argv,
                         "--out", str(tmp_path / model.name / command)]) == 0
        for name in files:
            assert (read(tmp_path / moons_model.name / command / name)
                    == read(tmp_path / "bare" / command / name)), (command, name)


class TestShiftMatch:
    def test_end_to_end_report(self, tmp_path):
        rc = main(["gen-data", "gaussian-pair", "--out", str(tmp_path / "t0"),
                   "--n-per-class", "120", "--seed", "2"])
        assert rc == 0
        rc = main(["gen-data", "gaussian-pair", "--out", str(tmp_path / "t1"),
                   "--n-per-class", "120", "--seed", "3"])
        assert rc == 0
        out = tmp_path / "sm"
        rc = main(["shift-match", "--data-t0", str(tmp_path / "t0" / "data.csv"),
                   "--data-t1", str(tmp_path / "t1" / "data.csv"),
                   "--out", str(out), "--true-angle", "0.0"])
        assert rc == 0
        est = json.loads((out / "estimate.json").read_text())
        assert est["family"] == "orthogonal-2d"
        assert "objective" in est and "near_ties" in est
        # the 720-point scan and the golden-section refine's evaluations
        assert 720 < est["search_steps"] < 760
        for epoch in ("fit_t0", "fit_t1"):
            fit = est[epoch]
            assert set(fit) == {"nonconverged_anchors", "degenerate_anchors",
                                "anchor_iterations", "base_converged", "base_iterations",
                                "median_agreement"}
            assert fit["nonconverged_anchors"] == [0] and fit["base_converged"] == [True]
            assert len(fit["median_agreement"]) == 1 and 0.5 <= fit["median_agreement"][0] <= 1
            assert 0 <= fit["degenerate_anchors"][0] < 100
        with open(out / "report.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert rows[0]["true_angle"] == "0"
        assert rows[0]["estimated_angle"] != ""
        assert json.loads((out / "resolved_config.json").read_text())["true_angle"] == 0.0

    def test_defaults_in_resolved_config(self, tmp_path, pair_files):
        out = tmp_path / "sm"
        assert main(["shift-match", "--data-t0", str(pair_files[0]),
                     "--data-t1", str(pair_files[1]), "--out", str(out)]) == 0
        resolved = json.loads((out / "resolved_config.json").read_text())
        assert resolved["family"] == "orthogonal-2d"
        assert resolved["true_angle"] is None
        assert json.loads((out / "estimate.json").read_text())["family"] == "orthogonal-2d"

    def test_affine_on_separable_pair_not_identifiable(self, tmp_path):
        # two well-separated gaussians: every anchor has the same direction,
        # so the t0 anchor field has rank 1 and cannot pin a 2-d affine map
        for tag, seed in (("t0", "3"), ("t1", "5")):
            assert main(["gen-data", "gaussian-pair", "--out", str(tmp_path / tag),
                         "--n-per-class", "50", "--seed", seed]) == 0
        out = tmp_path / "sm"
        rc = main(["shift-match", "--data-t0", str(tmp_path / "t0" / "data.csv"),
                   "--data-t1", str(tmp_path / "t1" / "data.csv"),
                   "--family", "affine", "--out", str(out)])
        assert rc == 0
        est = json.loads((out / "estimate.json").read_text())
        assert est["family"] == "affine"
        assert est["identifiable"] is False
        assert est["near_ties"] == []
        assert isinstance(est["search_steps"], int) and est["search_steps"] > 0

    def test_affine_round_cap_warns_once(self, tmp_path, pair_files, monkeypatch, capsys):
        import quantrep.shift as shift

        argv = ["shift-match", "--data-t0", str(pair_files[0]), "--data-t1",
                str(pair_files[1]), "--family", "affine"]
        assert main([*argv, "--out", str(tmp_path / "free")]) == 0
        assert capsys.readouterr().err == ""
        monkeypatch.setattr(shift, "_MAX_ROUNDS", 1)
        assert main([*argv, "--out", str(tmp_path / "capped")]) == 0
        assert capsys.readouterr().err == (
            "warning: the affine search did not meet its stopping rule (a relative "
            "decrease below 1e-09) within 1 rounds\n")
        est = json.loads((tmp_path / "capped" / "estimate.json").read_text())
        assert est["search_steps"] == 1

    @pytest.mark.parametrize("family, t0_shape, t1_shape", [
        ("orthogonal-2d", (3, 2), (3, 2)),   # rotations need 2-d data
        ("affine", (11, 2), (11, 2)),        # the affine search takes d <= 10
        ("affine", (2, 2), (3, 2)),          # feature dimensions differ
        ("orthogonal-2d", (2, 3), (2, 2)),   # class counts differ
    ], ids=["rotation-3d", "affine-11d", "dimension-mismatch", "class-count-mismatch"])
    def test_bad_inputs_exit_2_before_any_fit(self, tmp_path, monkeypatch, capsys,
                                               family, t0_shape, t1_shape):
        import quantrep.cli as cli

        def no_fit(*args, **kwargs):
            raise AssertionError("a model was fitted before the inputs were checked")

        monkeypatch.setattr(cli, "fit_quantile_model", no_fit)
        rng = np.random.default_rng(4)
        paths = []
        for tag, (d, k) in (("t0", t0_shape), ("t1", t1_shape)):
            paths.append(tmp_path / f"{tag}.csv")
            save_dataset(Dataset(rng.normal(size=(30, d)), np.arange(30) % k, k), paths[-1])
        out = tmp_path / "sm"
        rc = main(["shift-match", "--data-t0", str(paths[0]), "--data-t1", str(paths[1]),
                   "--family", family, "--out", str(out)])
        assert rc == 2
        assert "error:" in capsys.readouterr().err
        assert not (out / "estimate.json").exists()


def _degenerate_input(kind, path):
    """A dataset with no information for a quantile model: every label one
    class, a single row, or features at +-1e308, where the base fit
    overflows at its first step."""
    rng = np.random.default_rng(0)
    x = rng.normal(size=(40, 2))
    ds = {"one-class": Dataset(x, np.zeros(40, dtype=int), 2),
          "one-row": Dataset(x[:1], np.array([1]), 2),
          "huge": Dataset(np.where(x > 0, 1e308, -1e308), np.arange(40) % 2, 2)}[kind]
    save_dataset(ds, path)
    return path


def _degenerate_argv(role, data, pair_files):
    return {"fit-quantile": ["fit-quantile", "--data", data],
            "t0": ["shift-match", "--data-t0", data, "--data-t1", str(pair_files[1])],
            "t1": ["shift-match", "--data-t0", str(pair_files[0]), "--data-t1", data],
            }[role]


@pytest.mark.parametrize("role", ["fit-quantile", "t0", "t1"])
@pytest.mark.parametrize("kind", ["one-class", "one-row", "huge"])
def test_degenerate_input_exit_3(tmp_path, pair_files, monkeypatch, capsys, kind, role):
    import quantrep.shift as shift

    def no_search(*args):
        raise AssertionError("the search ran before both epochs were checked")

    monkeypatch.setattr(shift.FieldGap, "__call__", no_search)
    data = str(_degenerate_input(kind, tmp_path / f"{kind}.csv"))
    out = tmp_path / "out"
    argv = _degenerate_argv(role, data, pair_files)
    # numpy reports the overflow of the +-1e308 fits
    with pytest.warns(RuntimeWarning) if kind == "huge" else contextlib.nullcontext():
        rc = main([*argv, "--out", str(out)])
    assert rc == 3
    err = capsys.readouterr().err
    assert "every anchor fit is degenerate" in err
    assert ("the base fit did not converge" in err) == (kind == "huge")
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("role", ["fit-quantile", "t0", "t1"])
def test_empty_class_exits_3_before_any_fit(tmp_path, pair_files, monkeypatch, capsys, role):
    # labels 0 and 100000 make 100 001 classes, 99 999 of them empty; each
    # task used to be fitted before the empty ones were refused
    import quantrep.cli as cli

    def no_fit(*args, **kwargs):
        raise AssertionError("a base was fitted before the class counts were checked")

    monkeypatch.setattr(cli, "fit_base_classifiers", no_fit)
    data = tmp_path / "sparse.csv"
    data.write_text("f0,f1,label\n0.5,1.5,0\n-1,2,100000\n")
    if role != "fit-quantile":
        # shift-match takes two epochs of one shape
        save_dataset(Dataset(np.array([[0.0, 1.0], [2.0, 0.5]]), np.array([0, 100000]),
                             100001), tmp_path / "other.csv")
        pair_files = (tmp_path / "other.csv",) * 2
    out = tmp_path / "out"
    assert main([*_degenerate_argv(role, str(data), pair_files), "--out", str(out)]) == 3
    assert capsys.readouterr().err == (
        "error: every anchor fit is degenerate: the pseudo-labels are one class at "
        "every tau, so the task carries no information (class=1)\n")
    assert list(out.iterdir()) == []


class TestEmptyInputs:
    """A dataset holds at least one row and one feature column, whether it
    is read from a file or generated; anything else exits 2."""

    @pytest.fixture
    def header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("f0,f1,label\n")
        return path

    def assert_rejected(self, rc, capsys):
        assert rc == 2
        assert "at least one row and one feature column" in capsys.readouterr().err

    def test_fit_quantile_header_only_exit_2(self, tmp_path, header_only, capsys):
        self.assert_rejected(main(["fit-quantile", "--data", str(header_only),
                                   "--out", str(tmp_path / "f")]), capsys)
        assert not (tmp_path / "f" / "model.json").exists()

    def test_shift_match_header_only_t1_exit_2(self, tmp_path, header_only, pair_files,
                                                capsys):
        self.assert_rejected(main(["shift-match", "--data-t0", str(pair_files[0]),
                                   "--data-t1", str(header_only),
                                   "--out", str(tmp_path / "sm")]), capsys)
        assert not (tmp_path / "sm" / "estimate.json").exists()

    def test_xcorr_header_only_exit_2(self, tmp_path, header_only, moons_model, capsys):
        self.assert_rejected(main(["xcorr", "--model", str(moons_model),
                                   "--data", str(header_only),
                                   "--out", str(tmp_path / "xc")]), capsys)
        assert not (tmp_path / "xc" / "xcorr_raw.csv").exists()

    @pytest.mark.parametrize("argv", [["gaussian-pair", "--n-per-class", "0"],
                                      ["two-moons", "--ood-n", "0"],
                                      ["latent-binary", "--dim", "0", "--g", ""]],
                             ids=["no-rows", "no-ood-rows", "no-features"])
    def test_gen_data_empty_exit_2(self, tmp_path, argv, capsys):
        out = tmp_path / "g"
        self.assert_rejected(main(["gen-data", *argv, "--out", str(out)]), capsys)
        assert list(out.iterdir()) == []


@pytest.mark.parametrize("header", ["f0,f1,label,posterior", "f0,f1,label,extra",
                                    "f0,f1,weight,label", "label,f0,f1"],
                         ids=["posterior", "unknown", "reordered", "label-first"])
def test_other_dataset_header_exit_2(tmp_path, header, capsys):
    # a dataset file has exactly the columns save_dataset writes
    path = tmp_path / "d.csv"
    path.write_text(header + "\n0.5,1.5,0,1\n-1,2,1,1\n")
    out = tmp_path / "f"
    assert main(["fit-quantile", "--data", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "line 1" in err and "f0,...,f{d-1},label[,weight]" in err
    assert not (out / "model.json").exists()


# numeric inputs that each value's owner rejects (the generators' counts,
# LatentModelSpec, FitConfig, QuantileGrid and shift-match's echoed true
# angle) before any draw or fit
BAD_NUMBERS = {
    "gaussian-pair-n-per-class": ["gen-data", "gaussian-pair", "--n-per-class", "-1"],
    "two-moons-ood-n": ["gen-data", "two-moons", "--ood-n", "-1"],
    "g-nan": ["gen-data", "latent-binary", "--g", "nan"],
    "g-intercept-nan": ["gen-data", "latent-binary", "--g-intercept", "nan"],
    "noise-scale-nan": ["gen-data", "latent-binary", "--noise-scale", "nan"],
    "noise-scale-inf": ["gen-data", "latent-binary", "--noise-scale", "inf"],
    "heteroskedastic-scale-not-a-pair": ["gen-data", "latent-binary", "--noise-kind",
                                         "heteroskedastic-gaussian", "--noise-scale", "1"],
    "tau-min-nan": ["fit-quantile", "--tau-min", "nan"],
    "anchors-negative": ["fit-quantile", "--anchors", "-1"],
    "dense-negative": ["fit-quantile", "--dense", "-1"],
    "l2-reg-nan": ["fit-quantile", "--l2-reg", "nan"],
    "l2-reg-inf": ["fit-quantile", "--l2-reg", "inf"],
    "tol-nan": ["fit-quantile", "--tol", "nan"],
    "two-moons-seed-negative": ["gen-data", "two-moons", "--seed", "-1"],
    "gaussian-pair-seed-negative": ["gen-data", "gaussian-pair", "--seed", "-1"],
    "latent-binary-seed-negative": ["gen-data", "latent-binary", "--seed", "-1"],
    "calib-eval-seed-negative": ["calib-eval", "--seed", "-1"],
    "true-angle-nan": ["shift-match", "--true-angle", "nan"],
    "true-angle-inf": ["shift-match", "--true-angle", "inf"],
}


def input_flags(command, moons_dir, moons_model, pair_files):
    """The input path flags of ``command`` on the shared fixtures."""
    data, model = str(moons_dir / "id.csv"), str(moons_model)
    return {
        "fit-quantile": ["--data", data],
        "ood-eval": ["--model", model, "--train", data, "--test-id", data,
                     "--test-ood", str(moons_dir / "ood.csv")],
        "calib-eval": ["--model", model, "--data", data],
        "xcorr": ["--model", model, "--data", data],
        "shift-match": ["--data-t0", str(pair_files[0]), "--data-t1", str(pair_files[1])],
    }.get(command, [])


@pytest.mark.parametrize("argv", list(BAD_NUMBERS.values()), ids=list(BAD_NUMBERS))
def test_bad_number_exit_2(tmp_path, moons_dir, moons_model, pair_files, argv, capsys):
    argv = [*argv, *input_flags(argv[0], moons_dir, moons_model, pair_files)]
    out = tmp_path / "o"
    assert main([*argv, "--out", str(out)]) == 2
    assert "error:" in capsys.readouterr().err
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("command", ["fit-quantile", "ood-eval", "calib-eval", "xcorr",
                                     "shift-match"])
def test_label_past_int64_exit_2(tmp_path, moons_dir, moons_model, pair_files, command,
                                 capsys):
    # every dataset is read by load_dataset, which names the label's line
    path = tmp_path / "big.csv"
    path.write_text("f0,f1,label\n0.5,1.5,0\n-1,2,10000000000000000000\n")
    flags = input_flags(command, moons_dir, moons_model, pair_files)
    flags[flags.index({"ood-eval": "--train", "shift-match": "--data-t0"}.get(
        command, "--data")) + 1] = str(path)
    out = tmp_path / "o"
    assert main([command, *flags, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == "error: line 3: label 10000000000000000000 does not fit a 64-bit integer\n"
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("label", [10**6, 2**63 - 1])
@pytest.mark.parametrize("command", ["fit-quantile", "shift-match"])
def test_too_many_classes_exit_2(tmp_path, monkeypatch, command, label, capsys):
    # a million one-vs-rest tasks outgrow memory at the default grid; the
    # largest int64 label makes 2**63, a count past what len() takes
    import quantrep.cli as cli

    def no_fit(*args, **kwargs):
        raise AssertionError("a base fit ran before the size bound")

    monkeypatch.setattr(cli, "fit_base_classifiers", no_fit)
    path = tmp_path / "big.csv"
    path.write_text(f"f0,f1,label\n0.5,1.5,0\n-1,2,{label}\n")
    data = ["--data", str(path)] if command == "fit-quantile" else \
        ["--data-t0", str(path), "--data-t1", str(path)]
    out = tmp_path / "o"
    assert main([command, *data, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"for {label + 1} task(s)" in err and err.count("\n") == 1
    assert list(out.iterdir()) == []


# every size flag, each given 10**20 below
SIZE_FLAGS = [["fit-quantile", "--anchors"], ["fit-quantile", "--dense"],
              ["gen-data", "latent-binary", "--n"], ["gen-data", "two-moons", "--n-per-class"],
              ["gen-data", "two-moons", "--ood-n"],
              ["gen-data", "gaussian-pair", "--n-per-class"], ["calib-eval", "--bins"]]


@pytest.mark.parametrize("argv", [
    ["calib-eval", "--bins", "1000000000000"],
    ["gen-data", "latent-binary", "--n", "1000000000000"],
    ["gen-data", "two-moons", "--n-per-class", "1000000000000"],
    ["fit-quantile", "--dense", "1000000000000"],
    *([*argv, "100000000000000000000"] for argv in SIZE_FLAGS),
], ids=["calib-eval-bins", "latent-binary-n", "two-moons-n-per-class", "fit-quantile-dense",
        *(f"{argv[-2]}{argv[-1][1:]}-1e20" for argv in SIZE_FLAGS)])
def test_size_past_memory_exit_2(tmp_path, moons_dir, moons_model, pair_files, argv,
                                 capsys):
    # 10**12 float64 values (7.3 TiB): numpy refuses the array at once, with
    # a MemoryError; at 10**20, past its index range, with a ValueError
    argv = [*argv, *input_flags(argv[0], moons_dir, moons_model, pair_files)]
    out = tmp_path / "o"
    assert main([*argv, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("classes, need", [(2, 8 * (8 + 40) * 3), (3, 8 * (8 + 40) * 3 * 3)])
def test_fit_size_bound_is_the_fields_byte_count(tmp_path, moons_dir, monkeypatch, classes,
                                                 need, capsys):
    # 8 bytes x (anchors + dense) x (d+1) x tasks, with d = 2 and one task for
    # binary data, one per class otherwise: a fit fits at exactly that much
    # memory and exits 2, writing nothing, at one byte less
    import quantrep.cli as cli
    data = moons_dir / "id.csv"
    if classes == 3:
        ds = load_dataset(data)
        data = tmp_path / "three.csv"
        x = ds.features[:, 0]
        save_dataset(Dataset(ds.features, np.digitize(x, np.quantile(x, [1 / 3, 2 / 3])), 3),
                     data)
    argv = ["fit-quantile", "--data", str(data), "--anchors", "8", "--dense", "40"]
    monkeypatch.setattr(cli, "_physical_memory", lambda: need)
    assert main([*argv, "--out", str(tmp_path / "at")]) == 0
    monkeypatch.setattr(cli, "_physical_memory", lambda: need - 1)
    out = tmp_path / "past"
    assert main([*argv, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"need {need} bytes" in err and f"{need - 1} bytes of physical memory" in err
    assert list(out.iterdir()) == []


def test_dense_past_memory_exits_before_allocating(tmp_path, moons_dir, monkeypatch):
    # with 7.8 GiB, --dense 10**9 plans 24 GB: refused before its linspace
    # is built, as filling it would exhaust memory
    import quantrep.cli as cli
    monkeypatch.setattr(cli, "_physical_memory", lambda: 8_419_655_680)
    monkeypatch.setattr(cli, "_grid", lambda cfg: pytest.fail("grid built"))
    out = tmp_path / "o"
    assert main(["fit-quantile", "--data", str(moons_dir / "id.csv"),
                 "--dense", "1000000000", "--out", str(out)]) == 2
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("command", ["fit-quantile", "ood-eval", "shift-match"])
def test_unknown_seed_flag_exit_2(tmp_path, moons_dir, moons_model, pair_files, command,
                                  capsys):
    # these subcommands draw no random numbers, so they take no --seed
    out = tmp_path / "o"
    with pytest.raises(SystemExit) as exc:
        main([command, *input_flags(command, moons_dir, moons_model, pair_files),
              "--out", str(out), "--seed", "0"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --seed 0" in capsys.readouterr().err
    assert not out.exists()


def command_parser(command):
    """The parser of ``command``, or of ``gen-data KIND`` with the kind's
    own destination, ``kind``, added to what it declares."""
    commands = subparsers(build_parser())
    name, _, kind = command.partition(" ")
    if kind:
        return subparsers(commands[name])[kind], {"kind"}
    return commands[name], set()


def three_class_data(tmp_path):
    rng = np.random.default_rng(8)
    labels = np.arange(90) % 3
    path = tmp_path / "three.csv"
    save_dataset(Dataset(rng.normal(size=(90, 2)) + 2.0 * labels[:, None], labels, 3), path)
    return path


# per subcommand: its argv without --out, and for each parameter flag the
# argv that gives it a second value; a second value that is only valid with
# another flag changed too names both. fit-quantile runs on three classes,
# where --tau-min and --tau-max each move alone (a binary grid is symmetric)
FLAG_CHANGES = {
    "gen-data two-moons": (["--n-per-class", "20", "--ood-n", "5"], {
        "--n-per-class": ["--n-per-class", "21"], "--noise": ["--noise", "0.3"],
        "--ood-n": ["--ood-n", "6"], "--ood-center": ["--ood-center", "8,2"],
        "--seed": ["--seed", "1"]}),
    "gen-data gaussian-pair": (["--n-per-class", "20"], {
        "--centers": ["--centers", "0,0,2,2"], "--stds": ["--stds", "0.2,0.3,0.3,0.11"],
        "--n-per-class": ["--n-per-class", "21"], "--seed": ["--seed", "1"]}),
    "gen-data latent-binary": (["--n", "40"], {
        "--g": ["--g", "2.0"], "--g-intercept": ["--g-intercept", "0.5"],
        "--noise-kind": ["--noise-kind", "heteroskedastic-gaussian",
                         "--noise-scale", "1,0.5"],
        "--noise-scale": ["--noise-scale", "2"], "--n": ["--n", "41"],
        "--dim": ["--dim", "2", "--g", "1,0"], "--seed": ["--seed", "1"]}),
    "fit-quantile": (["--anchors", "12", "--dense", "60"], {
        "--anchors": ["--anchors", "10"], "--dense": ["--dense", "50"],
        "--tau-min": ["--tau-min", "0.05"], "--tau-max": ["--tau-max", "0.95"],
        "--l2-reg": ["--l2-reg", "0.1"], "--max-iter": ["--max-iter", "2"],
        "--tol": ["--tol", "0.01"]}),
    "ood-eval": ([], {"--k": ["--k", "5"]}),
    "calib-eval": (["--severities", "0,1"], {
        "--severities": ["--severities", "0,2"],
        "--corruption": ["--corruption", "feature-scaling"],
        "--bins": ["--bins", "3"], "--binning": ["--binning", "equal-width"],
        "--seed": ["--seed", "1"]}),
    "xcorr": ([], {}),
    "shift-match": ([], {"--family": ["--family", "affine"],
                         "--true-angle": ["--true-angle", "10"]}),
}


def flag_argv(command, moons_dir, moons_model, pair_files, tmp_path):
    argv = input_flags(command, moons_dir, moons_model, pair_files)
    if command == "fit-quantile":
        argv = ["--data", str(three_class_data(tmp_path))]
    return [*command.split(" "), *argv, *FLAG_CHANGES[command][0]]


def results(out):
    """The result files of a run: all but its echo and its timings."""
    return {p.name: p.read_bytes() for p in out.iterdir()
            if p.name not in ("resolved_config.json", "run_meta.json")}


@pytest.mark.parametrize("command", [c for c in FLAG_CHANGES if FLAG_CHANGES[c][1]])
def test_every_flag_changes_a_result(tmp_path, moons_dir, moons_model, pair_files,
                                     command):
    # accepted input is honoured: a second value of any parameter flag moves
    # some result file, so no flag is read and then dropped
    parser, _ = command_parser(command)
    params = {a.option_strings[0] for a in parser._actions if a.option_strings
              and a.dest not in ("help", "out", "config") and a.type is not os.path.abspath}
    changes = FLAG_CHANGES[command][1]
    assert set(changes) == params
    argv = flag_argv(command, moons_dir, moons_model, pair_files, tmp_path)
    assert main([*argv, "--out", str(tmp_path / "base")]) == 0
    base = results(tmp_path / "base")
    unchanged = []
    for i, (flag, change) in enumerate(changes.items()):
        out = tmp_path / f"v{i}"
        assert main([*argv, *change, "--out", str(out)]) == 0, flag
        if results(out) == base:
            unchanged.append(flag)
    assert unchanged == []


@pytest.mark.parametrize("command", list(FLAG_CHANGES))
def test_resolved_config_echoes_every_argument(tmp_path, moons_dir, moons_model,
                                               pair_files, command):
    # one rule for every subcommand: each parsed destination but --out and
    # --config, under its own name, input paths absolute, plus the subcommand
    parser, extra = command_parser(command)
    dests = {a.dest for a in parser._actions} | extra
    argv = flag_argv(command, moons_dir, moons_model, pair_files, tmp_path)
    assert main([*argv, "--out", str(tmp_path / "o")]) == 0
    resolved = json.loads((tmp_path / "o" / "resolved_config.json").read_text())
    assert set(resolved) == dests - {"help", "out", "config"} | {"subcommand"}
    assert resolved["subcommand"] == command.split(" ")[0]
    for action in parser._actions:
        if action.type is os.path.abspath and resolved[action.dest] is not None:
            assert os.path.isabs(resolved[action.dest]), action.dest
