"""Metric-guided prototype learning.

Derives misclassification-cost metrics from class taxonomies, arranges
learnable prototypes so their distances track those costs (scale-free
distortion regularization), trains small embedding models jointly with the
prototypes, and runs cost-aware inference and evaluation.

The exported names and the submodules are imported on first access, so that
`import protometric.cli` loads no numpy and `--threads` can still pin the
BLAS thread pools.
"""

import importlib
import sys
import types

__version__ = "0.1.0"

_EXPORTS = {
    "data": "DataError Dataset gen_hierarchical_gaussians load_csv split",
    "distortion": "DegeneratePrototypesError DistortionReport PrototypeSet TripletBatch "
                  "disto_loss distortion distortion_report fit_prototypes l2_scale "
                  "optimal_scale_l1 rank_loss sample_triplets scale_free_distortion",
    "evaluation": "EvalReport aggregate_reports evaluate evaluate_checkpoint",
    "geometry": "DistanceSpec",
    "inference": "Prediction PrototypeIndex build_index predict predict_any_node "
                 "predict_max_prob predict_min_expected_cost",
    "model": "Checkpoint EmbeddingModel LinearHead LossBreakdown TrainConfig TrainHistory "
             "TrainResult data_loss finite_difference_check forward init_embedding_model "
             "leaf_prototype_rows load_checkpoint posterior save_checkpoint "
             "soft_label_targets total_loss train",
    "optim": "Adam OptimizerSpec Sgd TrainingDivergedError make_optimizer",
    "taxonomy": "FiniteMetric MetricViolation Taxonomy TaxonomyError TaxonomyNode "
                "cost_matrix metric_to_csv parse_taxonomy validate_metric",
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names.split()}
_SUBMODULES = (*_EXPORTS, "cli", "formats")
__all__ = sorted(_HOME)


class _Package(types.ModuleType):
    """Importing a submodule binds it here; an export of the same name wins."""

    def __setattr__(self, name, value):
        if not (name in _HOME and isinstance(value, types.ModuleType)):
            super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package


def __getattr__(name):
    if name in _HOME:
        value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    elif name in _SUBMODULES:
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value
