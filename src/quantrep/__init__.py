"""Quantile representations for arbitrary classifiers.

Given any pretrained base classifier, thresholding its probabilities
yields pseudo-labels whose fitted classifiers realize the full spectrum of
simultaneous binary quantile regression solutions. The resulting per-sample
logit curves serve as representations for out-of-distribution detection,
calibration-error estimation, and distribution-shift matching.
"""

from .calibration import (
    IsotonicMap,
    MetricsReport,
    ReliabilityTable,
    corrupt_features,
    corruption_sweep,
    ece,
    isotonic_fit,
    model_class_probabilities,
    msp_confidence,
    platt_fit,
)
from .datasets import (
    Dataset,
    LatentModelSpec,
    LatentOracle,
    gen_gaussian_pair,
    gen_latent_binary,
    gen_two_moons,
    load_dataset,
    save_dataset,
)
from .errors import (
    FitError,
    ParseError,
    QuantrepError,
    ValidationError,
)
from .linear import (
    FitConfig,
    LinearClassifier,
    fit_sigmoid_mae,
    fit_weighted_logistic,
)
from .ood import (
    auroc,
    detection_accuracy,
    lof_scores,
    ood_metrics,
    random_label_quantile_model,
    tnr_at_tpr,
)
from .quantile import (
    MonotonicityReport,
    QuantileGrid,
    QuantileModel,
    QuantileRepresentation,
    binary_check_loss,
    check_loss,
    class_balance_weights,
    coefficient_cross_correlation,
    duality_residual,
    fit_base_classifiers,
    fit_diagnostics,
    fit_quantile_model,
    interpolate_coefficients,
    load_model,
    metric_factor,
    modified_labels,
    monotonicity_violation_rate,
    raw_feature_correlation,
    represent,
    save_model,
    simultaneous_loss,
)
from .shift import (
    Transform,
    TransformEstimate,
    estimate_transform,
    matching_objective,
)

__version__ = "0.1.0"
