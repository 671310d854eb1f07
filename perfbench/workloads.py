"""The three workloads: their inputs, CLI steps, output files and quality figures.

Inputs come from ``quantrep gen-data`` with the workload seed; where a
workload needs a second data set (a held-out split, a transformed epoch),
the driver derives it from the generated file with a transform drawn from
the same seed. Every path handed to the CLI is relative to the checkout
root, which is the child's working directory.
"""

import csv
import json
import math
import os
import random

# expected result files per subcommand (run_meta.json holds wall-clock data
# and is the one file outside the byte-identical contract)
OUTPUTS = {
    "gen-data": ("resolved_config.json",),
    "fit-quantile": ("model.json", "model_dense.bin", "base.json", "manifest.json",
                     "resolved_config.json", "run_meta.json"),
    "calib-eval": ("sweep.csv", "resolved_config.json"),
    "xcorr": ("xcorr_quantile.csv", "xcorr_raw.csv", "scatter_pairs.csv",
              "resolved_config.json"),
    "ood-eval": ("metrics.json", "metrics.csv", "resolved_config.json"),
    "shift-match": ("estimate.json", "report.csv", "resolved_config.json"),
}

# quality figure -> (unit, better, lowest valid, highest valid)
QUALITY = {
    "mono_violation": ("1", "lower", 0.0, 1.0),
    "quant_auroc": ("1", "higher", 0.0, 1.0),
    "quant_tnr95": ("1", "higher", 0.0, 1.0),
    "quant_ece_s0": ("1", "lower", 0.0, 1.0),
    "shift_angle_err_deg": ("deg", "lower", 0.0, 180.0),
    "shift_affine_obj": ("1", "lower", 0.0, math.inf),
}


def _read_rows(path):
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    return lines[0], lines[1:]


def _write_rows(path, header, rows):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join([header] + rows) + "\n")


def _map_rows(rows, fn):
    """Apply a 2-d point map to ``x,y,label`` rows, keeping labels."""
    out = []
    for row in rows:
        x, y, label = row.split(",")
        u, v = fn(float(x), float(y))
        out.append(f"{u:.17g},{v:.17g},{label}")
    return out


def _per_class_head(rows, count):
    """The first ``count`` rows of each label, in file order."""
    taken = {}
    out = []
    for row in rows:
        label = row.rsplit(",", 1)[1]
        if taken.get(label, 0) < count:
            taken[label] = taken.get(label, 0) + 1
            out.append(row)
    return out


def _json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _angle_gap_deg(a, b):
    diff = (a - b) % 360.0
    return min(diff, 360.0 - diff)


class Step:
    def __init__(self, label, argv, out_dir):
        self.label = label          # unique within a pass
        self.argv = argv
        self.out_dir = out_dir
        self.subcommand = argv[0]


class LatentM:
    """gen-data latent-binary d=8, then fit-quantile, calib-eval and xcorr."""

    name = "latent-m"
    G = "1.0,-0.7,0.5,0.3,-0.2,0.8,-0.4,0.1"
    SIZES = {"full": {"n": 600, "fit": []},
             "tiny": {"n": 150, "fit": ["--anchors", "8", "--dense", "40",
                                        "--max-iter", "60"]}}
    # quality figure -> (step that produces it, recorded value or None when
    # the figure is only range-checked, tolerance)
    REFERENCE = {"mono_violation": ("fit", 0.36, 0.06),
                 "quant_ece_s0": ("calib", 0.015, 0.035)}

    def __init__(self, seed, size):
        self.seed = seed
        self.size = self.SIZES[size]

    def generate(self, inputs):
        return [["gen-data", "latent-binary", "--out", inputs, "--dim", "8",
                 "--g", self.G, "--n", str(self.size["n"]), "--seed", str(self.seed)]]

    def derive(self, inputs):
        pass

    def steps(self, inputs, out):
        data = os.path.join(inputs, "data.csv")
        model = os.path.join(out, "model")
        return [
            Step("fit", ["fit-quantile", "--data", data, "--out", model] + self.size["fit"],
                 model),
            Step("calib", ["calib-eval", "--model", model, "--data", data,
                           "--out", os.path.join(out, "calib")], os.path.join(out, "calib")),
            Step("xcorr", ["xcorr", "--model", model, "--data", data,
                           "--out", os.path.join(out, "xcorr")], os.path.join(out, "xcorr")),
        ]

    def quality(self, out, inputs, oracle):
        manifest = _json(os.path.join(out, "model", "manifest.json"))
        with open(os.path.join(out, "calib", "sweep.csv"), encoding="utf-8") as fh:
            ece = [float(r["ece"]) for r in csv.DictReader(fh)
                   if r["method"] == "QUANT" and float(r["severity"]) == 0.0]
        return {"mono_violation": manifest["monotonicity_violation_rate"],
                "quant_ece_s0": ece[0]}, []


class MoonsOod:
    """Two-moons train and held-out ID sets plus OOD points; fit-quantile, ood-eval."""

    name = "moons-ood"
    SIZES = {"full": {"n": 2000, "ood": 400, "fit": []},
             "tiny": {"n": 120, "ood": 40, "fit": ["--anchors", "8", "--dense", "40",
                                                   "--max-iter", "60"]}}
    REFERENCE = {"mono_violation": ("fit", 0.015, 0.02),
                 "quant_auroc": ("ood", 0.975, 0.1),
                 "quant_tnr95": ("ood", 0.93, 0.25)}

    def __init__(self, seed, size):
        self.seed = seed
        self.size = self.SIZES[size]

    def generate(self, inputs):
        # one draw of 2n ID points, split into train and held-out halves
        return [["gen-data", "two-moons", "--out", inputs,
                 "--n-per-class", str(self.size["n"]), "--ood-n", str(self.size["ood"]),
                 "--seed", str(self.seed)]]

    def derive(self, inputs):
        header, rows = _read_rows(os.path.join(inputs, "id.csv"))
        _write_rows(os.path.join(inputs, "train.csv"), header, rows[0::2])
        _write_rows(os.path.join(inputs, "heldout.csv"), header, rows[1::2])

    def steps(self, inputs, out):
        train = os.path.join(inputs, "train.csv")
        model = os.path.join(out, "model")
        return [
            Step("fit", ["fit-quantile", "--data", train, "--out", model] + self.size["fit"],
                 model),
            Step("ood", ["ood-eval", "--model", model, "--train", train,
                         "--test-id", os.path.join(inputs, "heldout.csv"),
                         "--test-ood", os.path.join(inputs, "ood.csv"),
                         "--out", os.path.join(out, "ood")], os.path.join(out, "ood")),
        ]

    def quality(self, out, inputs, oracle):
        manifest = _json(os.path.join(out, "model", "manifest.json"))
        metrics = _json(os.path.join(out, "ood", "metrics.json"))
        quant, base = metrics["quantile-rep"], metrics["baseline"]
        problems = []
        if not quant["auroc"] > base["auroc"]:
            problems.append(("ood", f"quantile-rep AUROC {quant['auroc']:.4f} does not "
                                    f"exceed baseline AUROC {base['auroc']:.4f}"))
        return {"mono_violation": manifest["monotonicity_violation_rate"],
                "quant_auroc": quant["auroc"],
                "quant_tnr95": quant["tnr_at_tpr95"]}, problems


class ShiftPair:
    """Two gaussian-pair epochs; t1 is a fresh draw pushed through a seeded
    rotation (orthogonal-2d run) or a seeded affine map (affine run)."""

    name = "shift-pair"
    SIZES = {"full": {"n": 1000, "affine": 100}, "tiny": {"n": 40, "affine": 16}}
    # the affine objective spans 1e-5..5e-2 across seeds, so its tolerance
    # is absolute and only catches a search that stops far from a minimum.
    # The angle error is reported but not gated: at shift-match's default
    # ridge (l2_reg=1e-4) the objective's minimiser is not the true rotation
    # (test c08 recovers it at l2_reg=2.0, which the CLI cannot set), so the
    # search is checked against the objective at the truth instead.
    REFERENCE = {"shift_angle_err_deg": ("orth", None, None),
                 "shift_affine_obj": ("affine", 0.001, 0.1)}
    # the reported objective may exceed the truth's by this share: the
    # golden-section refinement stops within 1e-4 rad of a minimum
    TRUTH_SLACK = 1e-3
    # recomputed and reported objectives agree to this share
    RECOMPUTE_TOL = 1e-6

    def __init__(self, seed, size):
        self.seed = seed
        self.size = self.SIZES[size]
        rng = random.Random(seed)
        self.angle_deg = rng.uniform(0.0, 360.0)
        self.matrix = [[1.0 + rng.uniform(-0.3, 0.3), rng.uniform(-0.3, 0.3)],
                       [rng.uniform(-0.3, 0.3), 1.0 + rng.uniform(-0.3, 0.3)]]
        self.offset = [rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5)]

    def generate(self, inputs):
        # even rows form epoch t0, odd rows the fresh draw behind epoch t1
        return [["gen-data", "gaussian-pair", "--out", inputs,
                 "--n-per-class", str(self.size["n"]), "--seed", str(self.seed)]]

    def derive(self, inputs):
        header, rows = _read_rows(os.path.join(inputs, "data.csv"))
        t0, fresh = rows[0::2], rows[1::2]
        c, s = math.cos(math.radians(self.angle_deg)), math.sin(math.radians(self.angle_deg))
        (a, b), (e, f) = self.matrix
        p, q = self.offset
        _write_rows(os.path.join(inputs, "t0.csv"), header, t0)
        _write_rows(os.path.join(inputs, "t1_rot.csv"), header,
                    _map_rows(fresh, lambda x, y: (c * x - s * y, s * x + c * y)))
        half = self.size["affine"] // 2
        _write_rows(os.path.join(inputs, "t0_small.csv"), header, _per_class_head(t0, half))
        _write_rows(os.path.join(inputs, "t1_aff.csv"), header,
                    _map_rows(_per_class_head(fresh, half),
                              lambda x, y: (a * x + b * y + p, e * x + f * y + q)))

    def steps(self, inputs, out):
        def shift(label, t0, t1, family, extra=()):
            dest = os.path.join(out, label)
            return Step(label, ["shift-match", "--data-t0", os.path.join(inputs, t0),
                                "--data-t1", os.path.join(inputs, t1), "--family", family,
                                "--out", dest, *extra], dest)
        return [shift("orth", "t0.csv", "t1_rot.csv", "orthogonal-2d",
                      ("--true-angle", repr(self.angle_deg))),
                shift("affine", "t0_small.csv", "t1_aff.csv", "affine")]

    def quality(self, out, inputs, oracle):
        orth = _json(os.path.join(out, "orth", "estimate.json"))
        # the axis-swap reflection is a near-symmetry of the default pair, so
        # a reflected estimate is scored against 90 - angle (as in c08)
        params = orth["params"]
        truth = 90.0 - self.angle_deg if params["reflect"] else self.angle_deg
        affine = _json(os.path.join(out, "affine", "estimate.json"))
        cases = [("orth", "t0.csv", "t1_rot.csv", "orthogonal-2d", orth,
                  {"angle_deg": self.angle_deg, "reflect": False}),
                 ("affine", "t0_small.csv", "t1_aff.csv", "affine", affine,
                  {"matrix": self.matrix, "offset": self.offset})]
        objectives = oracle([{"t0": os.path.join(inputs, t0), "t1": os.path.join(inputs, t1),
                              "family": family, "truth": true_params,
                              "estimate": os.path.join(out, label, "estimate.json")}
                             for label, t0, t1, family, _, true_params in cases])
        problems = []
        for (label, _, _, _, estimate, _), ref in zip(cases, objectives):
            reported = estimate["objective"]
            if abs(ref["estimate"] - reported) > self.RECOMPUTE_TOL * max(abs(reported), 1e-12):
                problems.append((label, f"reported objective {reported!r} is not the "
                                        f"objective {ref['estimate']!r} of the reported "
                                        "transform"))
            if reported > ref["truth"] * (1.0 + self.TRUTH_SLACK):
                problems.append((label, f"search stopped at objective {reported:.6g}, above "
                                        f"{ref['truth']:.6g} at the true transform"))
        return {"shift_angle_err_deg": _angle_gap_deg(params["angle_deg"], truth),
                "shift_affine_obj": affine["objective"]}, problems


WORKLOADS = {w.name: w for w in (LatentM, MoonsOod, ShiftPair)}


def check_quality(workload, values, recorded_size):
    """(step label, message) for each figure out of range or, at the size the
    reference was recorded at, worse than its recorded value by more than
    its tolerance. A figure recorded as None is only range-checked."""
    problems = []
    for name, value in values.items():
        unit, better, lo, hi = QUALITY[name]
        step, recorded, tol = workload.REFERENCE[name]
        if not (math.isfinite(value) and lo <= value <= hi):
            problems.append((step, f"{name}={value!r} outside [{lo}, {hi}]"))
        elif not recorded_size or recorded is None:
            continue
        elif better == "lower" and value > recorded + tol:
            problems.append((step, f"{name}={value:.6g} above {recorded} + {tol}"))
        elif better == "higher" and value < recorded - tol:
            problems.append((step, f"{name}={value:.6g} below {recorded} - {tol}"))
    return problems


def check_files(step):
    """Messages for expected result files that are missing or do not parse."""
    problems = []
    for name in OUTPUTS[step.subcommand]:
        path = os.path.join(step.out_dir, name)
        try:
            if name.endswith(".json"):
                _json(path)
            elif name.endswith(".csv"):
                with open(path, encoding="utf-8", newline="") as fh:
                    rows = list(csv.reader(fh))
                if len(rows) < 2 or len({len(r) for r in rows}) != 1:
                    problems.append(f"{path}: ragged or empty table")
            elif os.path.getsize(path) % 8:
                problems.append(f"{path}: size is not a multiple of 8 bytes")
        except (OSError, ValueError) as exc:
            problems.append(f"{path}: {exc}")
    if step.subcommand == "gen-data":
        for name in sorted(os.listdir(step.out_dir)):
            if name.endswith(".csv"):
                with open(os.path.join(step.out_dir, name), encoding="utf-8") as fh:
                    if len(fh.read().splitlines()) < 3:
                        problems.append(f"{step.out_dir}/{name}: fewer than two rows")
    if step.subcommand == "fit-quantile" and not problems:
        shape = _json(os.path.join(step.out_dir, "model.json"))["dense_shape"]
        if os.path.getsize(os.path.join(step.out_dir, "model_dense.bin")) != 8 * math.prod(shape):
            problems.append(f"{step.out_dir}: model_dense.bin does not match dense_shape")
    return problems
