import json
import tracemalloc

import numpy as np
import pytest

from quantrep import (
    Dataset,
    FitConfig,
    FitError,
    LatentModelSpec,
    LatentOracle,
    LinearClassifier,
    QuantileGrid,
    QuantileModel,
    ValidationError,
    coefficient_cross_correlation,
    fit_diagnostics,
    fit_quantile_model,
    fit_weighted_logistic,
    gen_gaussian_pair,
    gen_latent_binary,
    gen_two_moons,
    load_model,
    model_class_probabilities,
    monotonicity_violation_rate,
    raw_feature_correlation,
    represent,
    save_model,
)
from quantrep import quantile
from quantrep.linear import _sigmoid
from quantrep.quantile import QuantileTask, fit_base_classifiers

from oracles import pearson_pair

SMALL_GRID = QuantileGrid(np.linspace(0.01, 0.99, 25),
                          np.linspace(0.01, 0.99, 200))


def separable_1d(n=200, cut=0.15, margin=0.15, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.uniform(-2, 2, n)
    x = x[np.abs(x - cut) > margin][:, None]
    y = (x[:, 0] > cut).astype(int)
    return Dataset(x, y, 2)


def replay_sweep(ds, base, grid):
    """The anchor fits of one task, each a standalone
    ``fit_weighted_logistic`` started as the sweep starts it: the median
    anchor from zero; an anchor whose pseudo-labels equal an earlier
    anchor's takes that fit; any other from the median fit, its bias moved
    by -(max z over y=0 + min z over y=1)/2, z the median fit's logits.
    Returns the fit of each anchor and the list of distinct fits."""
    probs = _sigmoid(base.decision(ds.features))
    labels = [quantile.modified_labels(probs, tau) for tau in grid.anchors]
    median_idx = int(np.argmin(np.abs(grid.anchors - 0.5)))

    def fit(y, start):
        return fit_weighted_logistic(ds.features, y,
                                     quantile.class_balance_weights(y, ds.weights),
                                     warm_start=start)

    median = fit(labels[median_idx], None)
    z = median.decision(ds.features)
    distinct = {labels[median_idx].tobytes(): median}
    fits = []
    for y in labels:
        if y.tobytes() not in distinct:
            start = median.coefficients()
            if 0 < y.sum() < y.size:
                start[-1] -= (z[y == 0].max() + z[y == 1].min()) / 2
            distinct[y.tobytes()] = fit(y, start)
        fits.append(distinct[y.tobytes()])
    return fits, list(distinct.values())


class FixedLogits:
    """A base that returns the same logits whatever the features."""

    def __init__(self, logits):
        self.logits = np.asarray(logits, dtype=np.float64)

    def decision(self, features):
        return self.logits


class TestFitQuantileModel:
    def test_anchor_boundaries_nonincreasing_in_tau(self):
        x = np.array([[-2.0], [-1.0], [1.0], [2.0]])
        ds = Dataset(x, (x[:, 0] > 0).astype(int), 2)
        base = LinearClassifier(np.array([1.0]), 0.0)  # graded, well-calibrated
        model = fit_quantile_model(ds, base, grid=SMALL_GRID)
        task = model.tasks[0]
        bounds = [-b / w for w, b in task.anchor_coefficients if abs(w) > 1e-12]
        assert len(bounds) >= 5
        assert all(b2 <= b1 + 1e-9 for b1, b2 in zip(bounds, bounds[1:]))

    def test_constant_positive_base_gives_degenerate_anchors(self):
        # fit_quantile_model returns an all-degenerate model rather than
        # raise: c03 fits one-class instances and c08 a zero base, and both
        # read such models. Rejecting them is fit_diagnostics' job (below).
        x = np.linspace(-1, 1, 20)[:, None]
        ds = Dataset(x, (x[:, 0] > 0).astype(int), 2)
        base = LinearClassifier(np.zeros(1), 30.0)  # probability ~ 1 everywhere
        model = fit_quantile_model(ds, base, grid=SMALL_GRID)
        task = model.tasks[0]
        assert task.fit_record["degenerate_anchors"] == SMALL_GRID.anchors.size
        # a degenerate fit is a constant classifier: no weight, positive bias
        np.testing.assert_array_equal(task.anchor_coefficients, [[0.0, 1.0]] * 25)
        rep = represent(model, x)
        assert np.all(rep.values[:, 1, :] > 0)
        assert np.ptp(rep.values[:, 1, :]) == 0.0
        with pytest.raises(FitError, match="every anchor fit is degenerate") as exc:
            fit_diagnostics(model)
        assert exc.value.class_id == 1

    def test_zero_norm_anchor_raises_fit_error(self):
        # a base that ignores x splits each point's two copies, so at the
        # middle taus the balanced logistic optimum is the zero vector, which
        # has no direction to store
        x = np.array([[-1.0], [1.0], [-1.0], [1.0]])
        ds = Dataset(x, np.array([0, 0, 1, 1]), 2)
        with pytest.raises(FitError, match="all-zero classifier") as exc:
            fit_quantile_model(ds, FixedLogits([-1.0, -1.0, 1.0, 1.0]), grid=SMALL_GRID)
        assert exc.value.class_id == 1
        # the first tau whose pseudo-labels split the copies: 1 - tau < sigmoid(1)
        assert exc.value.tau == SMALL_GRID.anchors[SMALL_GRID.anchors > 1 - _sigmoid(1.0)][0]

    def test_anchor_rows_are_the_replayed_fits_at_unit_norm(self):
        # each stored row is its tau's fit scaled by its norm, bit for bit,
        # so it keeps the fit's decision signs; every tau here shares the
        # median's labels, so the sweep and the replay make the same one fit
        ds = separable_1d(seed=3)
        base = fit_base_classifiers(ds)[0]
        model = fit_quantile_model(ds, base, grid=SMALL_GRID)
        fits, distinct = replay_sweep(ds, base, SMALL_GRID)
        assert len(distinct) == 1
        raw = np.stack([c.coefficients() for c in fits])
        np.testing.assert_array_equal(model.tasks[0].anchor_coefficients,
                                      [c / np.linalg.norm(c) for c in raw])
        x = np.column_stack([ds.features, np.ones(ds.n)])
        np.testing.assert_array_equal(np.sign(x @ raw.T),
                                      np.sign(x @ model.tasks[0].anchor_coefficients.T))

    def test_fit_diagnostics_counts(self):
        # anchors are counted one by one, Newton steps once per distinct fit
        ds = gen_latent_binary(LatentModelSpec([6.0, -3.0]), 300, seed=2)
        bases = fit_base_classifiers(ds)
        model = fit_quantile_model(ds, bases, grid=SMALL_GRID)
        diag = fit_diagnostics(model)
        fits, distinct = replay_sweep(ds, bases[0], SMALL_GRID)
        assert 1 < len(distinct) < len(fits)
        assert diag == {
            "nonconverged_anchors": [sum(not c.converged for c in fits)],
            "degenerate_anchors": [sum(c.degenerate for c in fits)],
            "anchor_iterations": [sum(c.iterations for c in distinct)],
            "base_converged": [True],
            "base_iterations": [bases[0].iterations],
        }
        assert diag["anchor_iterations"][0] > 0 and diag["base_iterations"][0] > 0
        # a base read from a file was not fitted here: no base diagnostics
        loaded = [LinearClassifier.from_json_dict(b.to_json_dict()) for b in bases]
        diag = fit_diagnostics(fit_quantile_model(ds, loaded, grid=SMALL_GRID))
        assert (diag["base_converged"], diag["base_iterations"]) == ([None], [None])

    def test_oracle_base_has_no_fit_record(self):
        # any object with decision can be the base; an oracle was never fitted
        spec = LatentModelSpec(np.array([1.0]))
        ds = gen_latent_binary(spec, 200, seed=1)
        diag = fit_diagnostics(fit_quantile_model(ds, LatentOracle(spec), grid=SMALL_GRID))
        assert (diag["base_converged"], diag["base_iterations"]) == ([None], [None])
        assert diag["anchor_iterations"][0] > 0

    def test_fit_diagnostics_needs_the_bases(self, tmp_path):
        # the fit record is taken while the bases are swept; a model read
        # from a file was not fitted there and has none, so its fit cannot
        # be checked
        base = LinearClassifier(np.ones(1), 0.0)
        model = fit_quantile_model(separable_1d(), base, grid=SMALL_GRID)
        assert fit_diagnostics(model)["base_converged"] == [True]
        save_model(model, tmp_path)
        with pytest.raises(ValidationError, match="no fit record"):
            fit_diagnostics(load_model(tmp_path / "model.json"))

    def test_deterministic_given_seeds(self):
        ds = separable_1d(seed=3)
        base = fit_base_classifiers(ds, FitConfig(l2_reg=0.5))[0]
        m1 = fit_quantile_model(ds, base, grid=SMALL_GRID, fit_config=FitConfig(seed=9))
        m2 = fit_quantile_model(ds, base, grid=SMALL_GRID, fit_config=FitConfig(seed=9))
        np.testing.assert_array_equal(m1.tasks[0].dense_coefficients,
                                      m2.tasks[0].dense_coefficients)

    def test_weight_two_row_equals_duplicated_row(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=(60, 2))
        y = (x[:, 0] - 0.5 * x[:, 1] + rng.normal(0, 0.5, 60) > 0).astype(int)
        w = np.ones(60)
        w[:6] = 2.0
        weighted = Dataset(x, y, 2, weights=w)
        duplicated = Dataset(np.vstack([x, x[:6]]), np.concatenate([y, y[:6]]), 2)
        fc = FitConfig(l2_reg=0.1, max_iter=5000, tol=1e-12)
        a, b = (fit_quantile_model(ds, fit_base_classifiers(ds, fc), grid=SMALL_GRID,
                                   fit_config=fc).tasks[0].anchor_coefficients
                for ds in (weighted, duplicated))
        np.testing.assert_allclose(a, b, atol=1e-8)

    def test_anchor_coefficients_unit_norm(self):
        ds = separable_1d(seed=4)
        base = fit_base_classifiers(ds, FitConfig(l2_reg=0.5))[0]
        model = fit_quantile_model(ds, base, grid=SMALL_GRID)
        co = model.tasks[0].anchor_coefficients
        np.testing.assert_allclose(np.linalg.norm(co, axis=1), 1.0, atol=1e-12)

    def test_dense_matches_anchors_at_anchor_taus(self):
        ds = separable_1d(seed=5)
        base = fit_base_classifiers(ds, FitConfig(l2_reg=0.5))[0]
        model = fit_quantile_model(ds, base, grid=SMALL_GRID)
        task = model.tasks[0]
        from quantrep import interpolate_coefficients
        at_anchors = interpolate_coefficients(model.grid.anchors,
                                              task.anchor_coefficients,
                                              model.grid.anchors)
        assert np.abs(at_anchors - task.anchor_coefficients).max() < 1e-9

    def test_median_anchor_agrees_with_base(self):
        ds = separable_1d(seed=6)
        base = fit_base_classifiers(ds, FitConfig())[0]
        model = fit_quantile_model(ds, base, grid=SMALL_GRID)
        assert model.tasks[0].median_agreement >= 0.99

    def test_wrong_base_count_rejected(self):
        ds = separable_1d(seed=7)
        base = fit_base_classifiers(ds, FitConfig())[0]
        with pytest.raises(ValidationError):
            fit_quantile_model(ds, [base, base, base], grid=SMALL_GRID)

    def test_two_bases_for_binary_data_rejected(self):
        # binary data has one task; class 0 is its mirror, not a second fit
        ds = separable_1d(seed=7)
        bases = [LinearClassifier(np.array([-1.0]), 0.0),
                 LinearClassifier(np.array([1.0]), 0.0)]
        with pytest.raises(ValidationError, match="1 base classifier"):
            fit_quantile_model(ds, bases, grid=SMALL_GRID)

    def test_binary_fit_needs_a_symmetric_dense_grid(self):
        # the class-0 mirror reads tau as 1 - tau: on [0.05, 0.9] it would
        # put class 0's profile at the wrong quantiles
        grid = QuantileGrid(np.linspace(0.05, 0.9, 10), np.linspace(0.05, 0.9, 40))
        ds = separable_1d(seed=7)
        with pytest.raises(ValidationError, match="symmetric"):
            fit_quantile_model(ds, LinearClassifier(np.array([1.0]), 0.0), grid=grid)
        rng = np.random.default_rng(7)
        three = Dataset(rng.normal(size=(90, 2)), np.repeat(np.arange(3), 30), 3)
        model = fit_quantile_model(three, fit_base_classifiers(three), grid=grid)
        assert [t.class_id for t in model.tasks] == [0, 1, 2]

    def test_binary_model_with_two_tasks_rejected(self):
        anchors = np.zeros((SMALL_GRID.anchors.size, 2))
        with pytest.raises(ValidationError, match="stores the tasks"):
            QuantileModel(SMALL_GRID, [QuantileTask(0, anchors),
                                       QuantileTask(1, anchors)], 2)

    def test_class_count_below_two_or_past_the_tasks_rejected(self):
        tasks = [QuantileTask(1, np.zeros((SMALL_GRID.anchors.size, 2)))]
        with pytest.raises(ValidationError, match="at least 2 classes"):
            QuantileModel(SMALL_GRID, tasks, 1)
        # counted before any list of 10**20 class ids is built
        with pytest.raises(ValidationError, match="stores the tasks"):
            QuantileModel(SMALL_GRID, tasks, 10**20)

    @pytest.mark.parametrize("shapes", [[(24, 3)], [(26, 3)], [(25, 1)], [(25,)], [()],
                                        [(25, 3, 1)], [(25, 3), (25, 3), (25, 4)]],
                             ids=["rows-short", "rows-long", "no-weights", "vector",
                                  "scalar", "3-d", "widths-differ"])
    def test_anchor_matrix_of_another_shape_rejected(self, shapes):
        tasks = [QuantileTask(c if len(shapes) > 1 else 1, np.ones(shape))
                 for c, shape in enumerate(shapes)]
        with pytest.raises(ValidationError, match="anchor matrix"):
            QuantileModel(SMALL_GRID, tasks, 2 if len(shapes) == 1 else len(shapes))

    def test_model_builds_the_dense_field_from_the_anchors(self):
        # whoever builds the model, the dense field is the anchors' spline,
        # and the model's feature dimension is read off the anchor width
        rng = np.random.default_rng(26)
        anchors = [rng.normal(size=(SMALL_GRID.anchors.size, 4)).tolist() for _ in range(3)]
        model = QuantileModel(SMALL_GRID, [QuantileTask(c, a) for c, a in enumerate(anchors)], 3)
        assert model.feature_dim == 3
        for task, rows in zip(model.tasks, anchors):
            assert task.anchor_coefficients.dtype == np.float64
            np.testing.assert_array_equal(task.anchor_coefficients, rows)
            np.testing.assert_array_equal(
                task.dense_coefficients,
                quantile.interpolate_coefficients(SMALL_GRID.anchors, rows, SMALL_GRID.dense))

    def test_base_without_decision_rejected(self):
        # every base is read through its logits; probabilities alone do not do
        class ProbabilityOnly:
            def predict_proba(self, features):
                return np.full(features.shape[0], 0.5)

        ds = separable_1d(seed=7)
        for base in (ProbabilityOnly(), [ProbabilityOnly()]):
            with pytest.raises(ValidationError, match="decision"):
                fit_quantile_model(ds, base, grid=SMALL_GRID)


def three_blobs(n_per_class=200, seed=31):
    rng = np.random.default_rng(seed)
    centers = np.array([[0.0, 0.0], [1.5, 0.0], [0.0, 1.5]])
    feats = np.vstack([c + rng.normal(0, 0.8, (n_per_class, 2)) for c in centers])
    return Dataset(feats, np.repeat(np.arange(3), n_per_class), 3)


class TestAnchorSweep:
    """The stacked sweep of ``fit_quantile_model`` against standalone fits
    of the same pseudo-labels."""

    @pytest.mark.parametrize("make", [
        lambda: gen_latent_binary(
            LatentModelSpec([1.0, -0.7, 0.5, 0.3, -0.2, 0.8, -0.4, 0.1]), 600, seed=1),
        lambda: gen_two_moons(1000, seed=1)[0],
        three_blobs,
    ], ids=["latent-binary", "two-moons", "three-class"])
    def test_rows_agree_with_standalone_fits(self, make):
        # a fit from zero and the sweep's fit both stop at ||g|| <= 1e-8 W;
        # where few points carry one label the fit is near separable and
        # its Hessian small, so unit rows met to 5e-7 on latent-binary and
        # 3.5e-6 on the three classes; the bound is 1e-5
        ds = make()
        bases = fit_base_classifiers(ds)
        model = fit_quantile_model(ds, bases)
        worst = 0.0
        for base, task in zip(bases, model.tasks):
            probs = _sigmoid(base.decision(ds.features))
            for tau, row in zip(model.grid.anchors, task.anchor_coefficients):
                y = quantile.modified_labels(probs, tau)
                coef = fit_weighted_logistic(ds.features, y,
                                             quantile.class_balance_weights(y)).coefficients()
                worst = max(worst, np.abs(row - coef / np.linalg.norm(coef)).max())
        assert worst <= 1e-5

    def test_equal_label_sets_give_bit_identical_rows(self):
        ds = gen_gaussian_pair([[0.0, 0.0], [3.0, 3.0]], [[0.8, 0.8], [0.8, 0.8]], 200,
                               seed=4)
        base = fit_base_classifiers(ds)[0]
        model = fit_quantile_model(ds, base)
        probs = _sigmoid(base.decision(ds.features))
        counts = [quantile.modified_labels(probs, tau).sum() for tau in model.grid.anchors]
        rows = model.tasks[0].anchor_coefficients
        shared = [i for i in range(1, len(counts)) if counts[i] == counts[i - 1]]
        assert shared and len(set(counts)) > 2
        for i in shared:
            np.testing.assert_array_equal(rows[i], rows[i - 1])

    def test_sweep_holds_a_few_blocks(self):
        # at 8 000 rows one (n_anchor, n) float64 stack is 6 blocks, and a
        # Newton round holds about a dozen stacks; in groups of
        # _block_rows(n) anchors the sweep peaked at 15 blocks
        ds = gen_latent_binary(LatentModelSpec([1.0, -0.5]), 8000, seed=3)
        base = fit_base_classifiers(ds)[0]
        assert ds.n * QuantileGrid().anchors.size * 8 > 6 * quantile._BLOCK_BYTES
        tracemalloc.start()
        try:
            fit_quantile_model(ds, base)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 20 * quantile._BLOCK_BYTES


class TestRepresent:
    def test_binary_shape_with_default_grid(self):
        ds = separable_1d(n=60, seed=8)
        base = fit_base_classifiers(ds, FitConfig())[0]
        model = fit_quantile_model(ds, base)
        rep = represent(model, ds.features)
        assert rep.values.shape == (ds.n, 2, 1000)
        assert np.all(np.isfinite(rep.values))

    def test_binary_mirror_is_negated_tau_reflection(self):
        ds = separable_1d(n=80, seed=9)
        base = fit_base_classifiers(ds, FitConfig(l2_reg=0.5))[0]
        model = fit_quantile_model(ds, base, grid=SMALL_GRID)
        rep = represent(model, ds.features[:5])
        np.testing.assert_array_equal(rep.values[:, 0, :],
                                      -rep.values[:, 1, ::-1])

    def test_deep_point_positive_from_small_tau(self):
        ds = separable_1d(seed=10)
        base = fit_base_classifiers(ds, FitConfig(l2_reg=0.5))[0]
        model = fit_quantile_model(ds, base, grid=SMALL_GRID)
        prof = represent(model, np.array([[1.95]])).values[0, 1]
        assert (prof >= 0).mean() > 0.9
        shallow = represent(model, np.array([[-1.95]])).values[0, 1]
        assert (shallow >= 0).mean() < 0.1

    def test_multiclass_shape(self):
        rng = np.random.default_rng(11)
        centers = np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0]])
        feats = np.vstack([c + rng.normal(0, 0.4, (40, 2)) for c in centers])
        labels = np.repeat(np.arange(3), 40)
        ds = Dataset(feats, labels, 3)
        bases = fit_base_classifiers(ds, FitConfig(l2_reg=0.5))
        model = fit_quantile_model(ds, bases, grid=SMALL_GRID)
        rep = represent(model, feats)
        assert rep.values.shape == (120, 3, 200)
        assert len(model.tasks) == 3

    def test_dimension_mismatch(self):
        ds = separable_1d(n=50, seed=12)
        base = fit_base_classifiers(ds, FitConfig())[0]
        model = fit_quantile_model(ds, base, grid=SMALL_GRID)
        with pytest.raises(ValidationError):
            represent(model, np.zeros((3, 2)))


def linear_1d_model(anchor_coefficients):
    """Single-task binary model on one feature whose class-1 logit at x is
    w(tau) * x + b(tau), with (w, b) the spline, on 50 dense taus, of the
    rows of ``anchor_coefficients`` at 10 anchor taus."""
    grid = QuantileGrid(np.linspace(0.01, 0.99, 10), np.linspace(0.01, 0.99, 50))
    return QuantileModel(grid, [QuantileTask(1, anchor_coefficients)], 2)


def random_field_model(class_count, n_dense=200, d=2, seed=0):
    """Model whose anchors are random rows, so that its dense field is far
    from monotone: one task for binary, one per class otherwise."""
    rng = np.random.default_rng(seed)
    grid = QuantileGrid(np.linspace(0.01, 0.99, 10), np.linspace(0.01, 0.99, n_dense))
    ids = [1] if class_count == 2 else range(class_count)
    tasks = [QuantileTask(c, rng.normal(size=(10, d + 1))) for c in ids]
    return QuantileModel(grid, tasks, class_count)


class TestMonotonicity:
    def test_increasing_profile_zero(self):
        # the logit at x = 1 increases in tau; so does the class-0 mirror
        model = linear_1d_model(np.column_stack([np.linspace(-1, 1, 10), np.zeros(10)]))
        assert monotonicity_violation_rate(model, np.ones((1, 1))).aggregate == 0.0

    def test_decreasing_profile_one(self):
        model = linear_1d_model(np.column_stack([np.linspace(1, -1, 10), np.zeros(10)]))
        assert monotonicity_violation_rate(model, np.ones((1, 1))).aggregate == 1.0

    def test_separable_end_to_end_below_one_percent(self):
        ds = separable_1d(n=300, seed=13)
        base = fit_base_classifiers(ds, FitConfig())[0]
        model = fit_quantile_model(ds, base)
        report = monotonicity_violation_rate(model, ds.features)
        assert report.aggregate < 0.01

    def test_weight_two_matches_duplicated_rows(self):
        model = random_field_model(2)
        x = np.random.default_rng(21).normal(size=(30, 2))
        w = np.where(np.arange(30) < 11, 2.0, 1.0)
        weighted = monotonicity_violation_rate(model, x, w)
        duplicated = monotonicity_violation_rate(model, np.vstack([x, x[:11]]))
        assert weighted.aggregate > 0
        assert weighted.aggregate == duplicated.aggregate

    def test_median_agreement_weight_two_matches_duplicated_rows(self):
        class Bump:
            """Base whose median pseudo-labels I[|x| > 1] no line separates."""

            def decision(self, features):
                return 3.0 * (features[:, 0] ** 2 - 1.0)

        x = np.random.default_rng(22).uniform(-2, 2, 200)[:, None]
        y = (np.abs(x[:, 0]) > 1).astype(int)
        heavy = x[:, 0] < 0
        weighted = fit_quantile_model(
            Dataset(x, y, 2, weights=np.where(heavy, 2.0, 1.0)), Bump(),
            grid=SMALL_GRID)
        duplicated = fit_quantile_model(
            Dataset(np.vstack([x, x[heavy]]), np.concatenate([y, y[heavy]]), 2),
            Bump(), grid=SMALL_GRID)
        agreement = weighted.tasks[0].median_agreement
        assert 0.5 < agreement < 1.0
        assert agreement == pytest.approx(duplicated.tasks[0].median_agreement,
                                          abs=1e-12)


class TestRowBlocks:
    """The reductions over tau, evaluated block by block, equal the same
    reductions of the full ``represent`` tensor bit for bit."""

    @pytest.mark.parametrize("class_count", [2, 3])
    @pytest.mark.parametrize("rows", [1, 7, 60])
    def test_blocks_match_full_tensor(self, monkeypatch, class_count, rows):
        model = random_field_model(class_count, seed=class_count)
        x = np.random.default_rng(23).normal(size=(53, 2))
        v = represent(model, x).values
        drops = v[:, :, 1:] < v[:, :, :-1] - quantile._MONO_TOL
        monkeypatch.setattr(quantile, "_BLOCK_BYTES",
                            rows * 8 * class_count * model.grid.n_dense)
        # each block holds its rows' logits; a one-row block's product may
        # round apart in the last bits (BLAS takes its matrix-vector path)
        np.testing.assert_allclose(np.concatenate(list(quantile._row_blocks(model, x))), v,
                                   rtol=0, atol=1e-13)
        report = monotonicity_violation_rate(model, x)
        assert report.aggregate == float(drops.mean())
        np.testing.assert_array_equal(model_class_probabilities(model, x),
                                      np.mean(v >= 0, axis=2))

    def test_monotonicity_pass_never_holds_the_full_tensor(self):
        model = random_field_model(2, n_dense=1000)
        x = np.random.default_rng(24).normal(size=(2000, 2))
        full_bytes = 2000 * 2 * 1000 * 8
        tracemalloc.start()
        try:
            monotonicity_violation_rate(model, x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < full_bytes


class TestCrossCorrelation:
    def test_duplicated_feature_column(self):
        rng = np.random.default_rng(14)
        col = rng.normal(size=100)
        feats = np.column_stack([col, col, rng.normal(size=100)])
        corr = raw_feature_correlation(feats)
        assert corr[0, 1] == pytest.approx(1.0, abs=1e-12)

    def test_symmetry_and_unit_diagonal(self):
        rng = np.random.default_rng(15)
        corr = raw_feature_correlation(rng.normal(size=(80, 4)))
        np.testing.assert_allclose(corr, corr.T, atol=1e-12)
        np.testing.assert_allclose(np.diag(corr), 1.0, atol=1e-12)

    def test_matches_pairwise_oracle(self):
        rng = np.random.default_rng(16)
        feats = rng.normal(size=(60, 3))
        corr = raw_feature_correlation(feats)
        for i in range(3):
            for j in range(3):
                assert corr[i, j] == pytest.approx(
                    pearson_pair(feats[:, i], feats[:, j]), abs=1e-12)

    def test_zero_variance_flagged_nan(self):
        feats = np.column_stack([np.ones(50), np.arange(50.0)])
        corr = raw_feature_correlation(feats)
        assert np.isnan(corr[0, 0]) and np.isnan(corr[0, 1])
        assert corr[1, 1] == 1.0

    def test_sign_agreement_with_raw_on_strong_entries(self):
        # two strongly correlated features plus pure noise: the coefficient
        # trajectories must agree in sign wherever raw correlation is strong
        rng = np.random.default_rng(17)
        u = rng.normal(size=300)
        feats = np.column_stack([u, u + 0.05 * rng.normal(size=300),
                                 rng.normal(size=300)])
        labels = (u + 0.3 * rng.normal(size=300) > 0).astype(int)
        ds = Dataset(feats, labels, 2)
        base = fit_base_classifiers(ds, FitConfig(l2_reg=0.5))[0]
        model = fit_quantile_model(ds, base, grid=SMALL_GRID,
                                   fit_config=FitConfig(l2_reg=0.5))
        raw = raw_feature_correlation(feats)
        quant = coefficient_cross_correlation(model)
        strong = (np.abs(raw) > 0.8) & ~np.eye(3, dtype=bool)
        assert strong.any()
        assert np.all(np.sign(quant[strong]) == np.sign(raw[strong]))


class TestSerialization:
    def test_round_trip(self, tmp_path):
        ds = separable_1d(n=80, seed=18)
        base = fit_base_classifiers(ds, FitConfig(l2_reg=0.5))[0]
        model = fit_quantile_model(ds, base, grid=SMALL_GRID)
        path = save_model(model, tmp_path)
        back = load_model(path)
        np.testing.assert_array_equal(back.grid.anchors, model.grid.anchors)
        np.testing.assert_array_equal(back.grid.dense, model.grid.dense)
        np.testing.assert_array_equal(back.tasks[0].dense_coefficients,
                                      model.tasks[0].dense_coefficients)
        np.testing.assert_array_equal(back.tasks[0].anchor_coefficients,
                                      model.tasks[0].anchor_coefficients)
        with open(path) as fh:
            stored = json.load(fh)
        # schema 2: a task is its anchor rows; the width gives feature_dim
        assert stored["schema_version"] == 2 and "feature_dim" not in stored
        assert set(stored["tasks"][0]) == {"class_id", "median_agreement",
                                           "anchor_coefficients"}
        assert stored["tasks"][0]["anchor_coefficients"] == \
            model.tasks[0].anchor_coefficients.tolist()
        assert back.tasks[0].fit_record is None
        rep_a = represent(model, ds.features[:7])
        rep_b = represent(back, ds.features[:7])
        np.testing.assert_array_equal(rep_a.values, rep_b.values)

    @pytest.mark.parametrize("field,value", [("class_count", 3),
                                             ("class_id", 0)])
    def test_load_rejects_another_task_layout(self, tmp_path, field, value):
        ds = separable_1d(n=50, seed=19)
        model = fit_quantile_model(ds, fit_base_classifiers(ds)[0], grid=SMALL_GRID)
        path = save_model(model, tmp_path)
        with open(path) as fh:
            obj = json.load(fh)
        if field == "class_count":
            obj["class_count"] = value
        else:
            obj["tasks"][0]["class_id"] = value
        with open(path, "w") as fh:
            json.dump(obj, fh)
        with pytest.raises(ValidationError, match="stores the tasks"):
            load_model(path)

    def test_sidecar_is_little_endian_float64(self, tmp_path):
        ds = separable_1d(n=50, seed=19)
        base = fit_base_classifiers(ds, FitConfig())[0]
        model = fit_quantile_model(ds, base, grid=SMALL_GRID)
        save_model(model, tmp_path)
        raw = (tmp_path / "model_dense.bin").read_bytes()
        arr = np.frombuffer(raw, dtype="<f8").reshape(1, 200, 2)
        np.testing.assert_array_equal(arr[0], model.tasks[0].dense_coefficients)
