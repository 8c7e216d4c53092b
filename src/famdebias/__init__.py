"""Post-ranking familiarity debiasing toolkit.

Estimates the conditional mean of a rating-prediction score given per-user
familiarity features (empirical bucket table or small regressor), divides it
out before final ranking, and ships a seeded closed-loop simulator plus an
offline experiment harness to measure what the correction does to watch-time
and exposure-diversity metrics.
"""

from .bucketizer import AdjustmentTable, BucketEdges, fit_edges, fit_table, lookup_many
from .core import FeatureSchema, InteractionLog, read_jsonl, validate_log, write_jsonl
from .debias import DebiasConfig, debias_log, debias_scores, residual_correlation
from .estimator import RegressorModel, TrainConfig, forward, gradient_check, mse_loss, train_xy
from .simulator import InflationSpec, SessionConfig, SessionState, Universe, run_arm

__version__ = "0.1.0"

__all__ = [
    "AdjustmentTable",
    "BucketEdges",
    "DebiasConfig",
    "FeatureSchema",
    "InflationSpec",
    "InteractionLog",
    "RegressorModel",
    "SessionConfig",
    "SessionState",
    "TrainConfig",
    "Universe",
    "debias_log",
    "debias_scores",
    "fit_edges",
    "fit_table",
    "forward",
    "gradient_check",
    "lookup_many",
    "mse_loss",
    "read_jsonl",
    "residual_correlation",
    "run_arm",
    "train_xy",
    "validate_log",
    "write_jsonl",
]
