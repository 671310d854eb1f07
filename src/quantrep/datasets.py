"""Dataset containers, file I/O, and synthetic generators.

Datasets are CSV files with the header ``f0,...,f{d-1},label[,weight]``;
a file with any other header is rejected.

All generators are pure functions of (parameters, seed). The latent-score
generator draws its features uniformly on [-3, 3]^d.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ParseError, ValidationError

# Features are serialized with 17 significant digits so that a float64
# save/load round trip is bit exact.
_FLOAT_FMT = "%.17g"

# Posteriors live in the open interval (0,1); saturated normal CDF values
# are nudged inside.
_P_LO = 1e-300
_P_HI = 1.0 - 1e-16


@dataclass
class Dataset:
    """Feature matrix with integer class labels, at least one row and one
    feature column: the rule for every file read and every generator.

    ``weights`` are optional per-sample positive reals.
    """

    features: np.ndarray
    labels: np.ndarray
    num_classes: int
    weights: np.ndarray | None = None

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        if self.features.ndim != 2:
            raise ValidationError("features must be a 2-d matrix")
        n, d = self.features.shape
        if n == 0 or d == 0:
            raise ValidationError("a dataset needs at least one row and one feature "
                                  f"column, got {n} x {d}")
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.labels.shape != (n,):
            raise ValidationError("labels length must match feature rows")
        if not np.all(np.isfinite(self.features)):
            raise ValidationError("features contain non-finite values")
        if self.num_classes < 2:
            raise ValidationError("num_classes must be at least 2")
        if self.labels.min() < 0 or self.labels.max() >= self.num_classes:
            raise ValidationError(
                f"labels must lie in [0, {self.num_classes})"
            )
        if self.weights is not None:
            self.weights = np.asarray(self.weights, dtype=np.float64)
            if self.weights.shape != self.labels.shape:
                raise ValidationError("weights length must match labels")
            if not np.all((self.weights > 0) & np.isfinite(self.weights)):
                raise ValidationError("weights must be positive and finite")

    @property
    def n(self):
        return self.features.shape[0]

    @property
    def d(self):
        return self.features.shape[1]

    @property
    def k(self):
        return self.num_classes


@dataclass
class LatentModelSpec:
    """Linear latent-score model z = g(x) + eps(x), y = I[z >= 0].

    ``g_coefficients`` is the d-vector of g's slopes, ``g_intercept`` its
    offset. ``noise_kind`` selects homoskedastic Gaussian noise with scale
    ``noise_scale`` or heteroskedastic Gaussian noise with scale
    a + b*||x|| where ``noise_scale`` = (a, b).
    """

    g_coefficients: np.ndarray
    g_intercept: float = 0.0
    noise_kind: str = "homoskedastic-gaussian"
    noise_scale: float | tuple = 1.0

    def __post_init__(self):
        self.g_coefficients = np.asarray(self.g_coefficients, dtype=np.float64)
        # a NaN in g would label every point 0
        if not (np.all(np.isfinite(self.g_coefficients)) and np.isfinite(self.g_intercept)):
            raise ValidationError("g coefficients and g_intercept must be finite")
        if self.noise_kind not in ("homoskedastic-gaussian", "heteroskedastic-gaussian"):
            raise ConfigError(f"unsupported noise_kind: {self.noise_kind!r}")
        if self.noise_kind == "homoskedastic-gaussian":
            if not np.isscalar(self.noise_scale) or not 0 < self.noise_scale < np.inf:
                raise ValidationError("homoskedastic noise_scale must be a positive "
                                      "finite scalar")
        else:
            if np.shape(self.noise_scale) != (2,):
                raise ValidationError("heteroskedastic noise_scale must be a pair (a, b)")
            a, b = self.noise_scale
            if not (0 < a < np.inf and 0 <= b < np.inf):
                raise ValidationError("heteroskedastic scale needs finite a > 0, b >= 0")

    def latent_mean(self, features):
        features = np.asarray(features, dtype=np.float64)
        return features @ self.g_coefficients + self.g_intercept

    def noise_sigma(self, features):
        features = np.asarray(features, dtype=np.float64)
        if self.noise_kind == "homoskedastic-gaussian":
            return np.full(features.shape[0], float(self.noise_scale))
        a, b = self.noise_scale
        return a + b * np.linalg.norm(features, axis=1)

    def posterior(self, features):
        """Analytic P(g(x) + eps(x) >= 0) for Gaussian noise."""
        from scipy.special import ndtr

        p = ndtr(self.latent_mean(features) / self.noise_sigma(features))
        return np.clip(p, _P_LO, _P_HI)


class LatentOracle:
    """Base classifier that knows the generating latent model exactly."""

    def __init__(self, spec: LatentModelSpec):
        self.spec = spec

    def predict_proba(self, features):
        return self.spec.posterior(features)


def save_dataset(dataset: Dataset, path):
    cols = [f"f{j}" for j in range(dataset.d)] + ["label"]
    if dataset.weights is not None:
        cols.append("weight")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(cols) + "\n")
        for i in range(dataset.n):
            row = [_FLOAT_FMT % v for v in dataset.features[i]]
            row.append(str(int(dataset.labels[i])))
            if dataset.weights is not None:
                row.append(_FLOAT_FMT % dataset.weights[i])
            fh.write(",".join(row) + "\n")


def load_dataset(path):
    """Load a dataset CSV file; the class count is max(label)+1, at least 2."""
    features, labels, weights = _load_csv(path)
    num_classes = max(int(labels.max(initial=1)) + 1, 2)
    return Dataset(features, labels, num_classes, weights=weights)


def _load_csv(path):
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        if not header:
            raise ParseError("empty file", line=1)
        cols = header.split(",")
        d = next((j for j, c in enumerate(cols) if c != f"f{j}"), len(cols))
        weighted = cols[d:] == ["label", "weight"]
        if d == 0 or not (weighted or cols[d:] == ["label"]):
            raise ParseError(f"bad header {header!r}, expected "
                             "f0,...,f{d-1},label[,weight]", line=1)

        feats, labels, weights = [], [], []
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != len(cols):
                raise ParseError(f"expected {len(cols)} fields, got {len(parts)}", line=lineno)
            try:
                feats.append([float(v) for v in parts[:d]])
                labels.append(int(parts[d]))
                if weighted:
                    weights.append(float(parts[d + 1]))
            except ValueError as exc:
                raise ParseError(str(exc), line=lineno) from exc
    features = np.asarray(feats, dtype=np.float64).reshape(len(labels), d)
    return (
        features,
        np.asarray(labels, dtype=np.int64),
        np.asarray(weights) if weighted else None,
    )


def _check_seed(seed):
    """Reject a seed ``np.random.default_rng`` would refuse: a negative one."""
    if seed < 0:
        raise ValidationError(f"seed must be nonnegative, got {seed}")


def gen_two_moons(n_per_class=200, noise=0.1, ood_n=100, ood_center=(5.0, 5.0), seed=0):
    """Two interleaved half-circles (in-distribution, labels 0/1) plus a
    separate out-of-distribution cluster.

    Returns ``(id_dataset, ood_dataset)``. With noise 0 the ID points lie
    exactly on the two unit arcs.
    """
    _check_seed(seed)
    if n_per_class < 2:
        raise ValidationError("n_per_class must be at least 2")
    if ood_n < 0:
        raise ValidationError("ood_n must be nonnegative")
    if noise < 0:
        raise ValidationError("noise must be nonnegative")
    rng = np.random.default_rng(seed)
    t0 = rng.uniform(0.0, np.pi, n_per_class)
    t1 = rng.uniform(0.0, np.pi, n_per_class)
    upper = np.column_stack([np.cos(t0), np.sin(t0)])
    lower = np.column_stack([1.0 - np.cos(t1), 0.5 - np.sin(t1)])
    feats = np.vstack([upper, lower])
    feats = feats + rng.normal(0.0, 1.0, feats.shape) * noise
    labels = np.concatenate([np.zeros(n_per_class, dtype=np.int64),
                             np.ones(n_per_class, dtype=np.int64)])
    id_ds = Dataset(feats, labels, 2)

    center = np.asarray(ood_center, dtype=np.float64)
    ood_feats = center + rng.normal(0.0, 1.0, (ood_n, 2)) * noise
    ood_ds = Dataset(ood_feats, np.zeros(ood_n, dtype=np.int64), 2)
    return id_ds, ood_ds


def gen_gaussian_pair(centers, stds, n_per_class=500, seed=0):
    """Two axis-aligned Gaussian clusters, one label per center."""
    _check_seed(seed)
    centers = np.asarray(centers, dtype=np.float64)
    stds = np.asarray(stds, dtype=np.float64)
    if centers.shape != (2, 2) or stds.shape != (2, 2):
        raise ValidationError("centers and stds must be 2x2")
    if np.any(stds <= 0):
        raise ValidationError("stds must be strictly positive")
    if n_per_class < 0:
        raise ValidationError("n_per_class must be nonnegative")
    rng = np.random.default_rng(seed)
    feats = np.vstack([
        centers[0] + rng.normal(0.0, 1.0, (n_per_class, 2)) * stds[0],
        centers[1] + rng.normal(0.0, 1.0, (n_per_class, 2)) * stds[1],
    ])
    labels = np.concatenate([np.zeros(n_per_class, dtype=np.int64),
                             np.ones(n_per_class, dtype=np.int64)])
    return Dataset(feats, labels, 2)


def gen_latent_binary(spec: LatentModelSpec, n, seed=0):
    """Draw (x, y) from the latent model z = g(x) + eps(x), y = I[z >= 0],
    with features drawn uniformly on [-3, 3]^d.

    The analytic posterior P(y=1|x) is ``spec.posterior(features)``;
    ``LatentOracle(spec)`` serves it as a base classifier.
    """
    _check_seed(seed)
    if n < 1:
        raise ValidationError("n must be at least 1")
    d = spec.g_coefficients.shape[0]
    rng = np.random.default_rng(seed)
    feats = rng.uniform(-3.0, 3.0, (n, d))
    eps = rng.normal(0.0, 1.0, n) * spec.noise_sigma(feats)
    z = spec.latent_mean(feats) + eps
    labels = (z >= 0).astype(np.int64)
    return Dataset(feats, labels, 2)
