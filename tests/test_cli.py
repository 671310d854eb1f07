import csv
import json

import numpy as np
import pytest

from quantrep import load_dataset
from quantrep.cli import main
from quantrep.errors import DegenerateClassifierError


def read(path):
    with open(path, "rb") as fh:
        return fh.read()


def run_fit(tmp_path, tag, data, extra=()):
    out = tmp_path / tag
    rc = main(["fit-quantile", "--data", str(data), "--out", str(out),
               "--anchors", "12", "--dense", "60", *extra])
    assert rc == 0
    return out


@pytest.fixture(scope="module")
def moons_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("moons")
    rc = main(["gen-data", "two-moons", "--out", str(root / "a"),
               "--n-per-class", "60", "--ood-n", "30", "--seed", "7"])
    assert rc == 0
    return root / "a"


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

    def test_latent_binary_has_posterior(self, tmp_path):
        rc = main(["gen-data", "latent-binary", "--out", str(tmp_path / "l"),
                   "--n", "100", "--dim", "2", "--g", "1.0,-0.5", "--seed", "3"])
        assert rc == 0
        ds = load_dataset(tmp_path / "l" / "data.csv")
        assert ds.posterior is not None
        assert ds.d == 2

    def test_missing_output_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["gen-data", "two-moons"])
        assert exc.value.code == 2

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
        meta = json.loads((out / "run_meta.json").read_text())
        assert meta["timings_sec"]["total"] > 0

    def test_manifest_counts_anchor_diagnostics(self, tmp_path, moons_dir, capsys):
        out = run_fit(tmp_path, "conv", moons_dir / "id.csv")
        assert "warning" not in capsys.readouterr().err
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["nonconverged_anchors"] == [0]
        assert manifest["degenerate_anchors"][0] >= 0

        out = run_fit(tmp_path, "capped", moons_dir / "id.csv", ("--max-iter", "1"))
        err = capsys.readouterr().err
        assert err.count("warning") == 1
        assert "did not meet the stopping rule" in err
        assert json.loads((out / "manifest.json").read_text())["nonconverged_anchors"][0] > 0

    def test_rerun_byte_identical_results(self, tmp_path, moons_dir):
        a = run_fit(tmp_path, "da", moons_dir / "id.csv")
        b = run_fit(tmp_path, "db", moons_dir / "id.csv")
        for name in ("model.json", "model_dense.bin", "base.json", "manifest.json"):
            assert read(a / name) == read(b / name), name

    def test_missing_data_exit_2(self, tmp_path):
        rc = main(["fit-quantile", "--data", str(tmp_path / "nope.csv"),
                   "--out", str(tmp_path / "x")])
        assert rc == 2

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

    def test_fit_failure_exit_3(self, tmp_path, moons_dir, monkeypatch):
        import quantrep.quantile as q

        base_dir = run_fit(tmp_path, "bm", moons_dir / "id.csv")

        def boom(*args, **kwargs):
            raise DegenerateClassifierError("synthetic failure")

        # fail inside the anchor loop (the base model is loaded from disk)
        monkeypatch.setattr(q, "fit_weighted_logistic", boom)
        rc = main(["fit-quantile", "--data", str(moons_dir / "id.csv"),
                   "--base-model", str(base_dir / "base.json"),
                   "--out", str(tmp_path / "f"), "--anchors", "6",
                   "--dense", "24"])
        assert rc == 3


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
        timings = json.loads((out / "run_meta.json").read_text())["timings_sec"]
        assert set(timings) == {"load", "quantile_rep_lof", "baseline_lof",
                                "metrics", "total"}
        assert all(v >= 0.0 for v in timings.values())

    @pytest.mark.parametrize("damage", ["truncated-sidecar", "schema-version",
                                        "task-count", "missing-field"])
    def test_damaged_model_exit_2(self, tmp_path, moons_dir, damage, capsys):
        model = run_fit(tmp_path, "m", moons_dir / "id.csv")
        meta_path = model / "model.json"
        meta = json.loads(meta_path.read_text())
        if damage == "truncated-sidecar":
            blob = (model / "model_dense.bin").read_bytes()
            (model / "model_dense.bin").write_bytes(blob[:-8])
        elif damage == "schema-version":
            meta["schema_version"] = 99
        elif damage == "task-count":
            meta["tasks"] = meta["tasks"] * 3
        else:
            del meta["dense_shape"]
        meta_path.write_text(json.dumps(meta))
        rc = main(["ood-eval", "--model", str(model),
                   "--train", str(moons_dir / "id.csv"),
                   "--test-id", str(moons_dir / "id.csv"),
                   "--test-ood", str(moons_dir / "ood.csv"),
                   "--out", str(tmp_path / "ood")])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

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

    def test_missing_inputs_exit_2(self, tmp_path, moons_dir):
        rc = main(["ood-eval", "--model", str(tmp_path / "absent"),
                   "--train", str(moons_dir / "id.csv"),
                   "--test-id", str(moons_dir / "id.csv"),
                   "--test-ood", str(moons_dir / "ood.csv"),
                   "--out", str(tmp_path / "o")])
        assert rc == 2


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
        with open(out / "report.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert rows[0]["true_angle"] == "0"
        assert rows[0]["estimated_angle"] != ""
