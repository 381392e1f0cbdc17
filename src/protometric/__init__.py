"""Metric-guided prototype learning.

Derives misclassification-cost metrics from class taxonomies, arranges
learnable prototypes so their distances track those costs (scale-free
distortion regularization), trains small embedding models jointly with the
prototypes, and runs cost-aware inference and evaluation.
"""

from .data import DataError, Dataset, gen_hierarchical_gaussians, load_csv, split
from .distortion import (DegeneratePrototypesError, DistortionReport, PrototypeSet,
                         TripletBatch, disto_loss, distortion, distortion_report,
                         l2_scale, optimal_scale_l1, rank_loss, sample_triplets,
                         scale_free_distortion)
from .evaluation import EvalReport, PairDelta, compare, evaluate
from .geometry import (DistanceSpec, NonDifferentiableError, distance,
                       distance_gradient, pairwise_distances)
from .inference import (Prediction, PrototypeIndex, build_index, expected_costs,
                        predict, predict_any_node, predict_max_prob,
                        predict_min_expected_cost)
from .model import (Checkpoint, EmbeddingModel, LinearHead, LossBreakdown,
                    TrainConfig, TrainHistory, TrainingDivergedError, TrainResult,
                    data_loss, finite_difference_check, forward,
                    init_embedding_model, leaf_prototype_rows, load_checkpoint,
                    posterior, save_checkpoint, soft_label_targets, total_loss,
                    train)
from .optim import Adam, OptimizerSpec, Sgd, make_optimizer
from .taxonomy import (FiniteMetric, MetricViolation, Taxonomy, TaxonomyError,
                       TaxonomyNode, cost_matrix, metric_to_csv, parse_taxonomy,
                       validate_metric)

__version__ = "0.1.0"
