"""Error rate, average cost and the confusion table of predictions or of a checkpoint."""

from __future__ import annotations

from dataclasses import dataclass, replace
from operator import itemgetter

import numpy as np

# predict_blocks and the stand-ins are read through their home modules at call
# time, so that instrumentation rebinding them there sees every call.
from . import inference, model
from .data import Dataset
from .distortion import DistortionReport, distortion_report
from .formats import csv_text
from .taxonomy import FiniteMetric


@dataclass(frozen=True)
class EvalReport:
    er: float
    ac: float
    l_er: float | None
    r_er: float | None
    n: int
    class_names: tuple[str, ...]
    confusion: np.ndarray  # (K, K) counts, [true, predicted]
    distortion: DistortionReport | None = None

    def to_dict(self) -> dict:
        return {
            "er": self.er, "ac": self.ac, "l_er": self.l_er, "r_er": self.r_er,
            "n": self.n,
            "distortion": None if self.distortion is None else self.distortion.to_dict(),
        }

    def confusion_to_csv(self) -> str:
        names = self.class_names
        return csv_text(["true\\predicted", *names],
                        ([name, *row] for name, row in zip(names, self.confusion.tolist())))


def evaluate(predictions, labels, metric: FiniteMetric, leaf_mask=None) -> EvalReport:
    """Score predicted class indices against true leaf indices.

    Both sequences index into `metric.class_names`. When `leaf_mask` marks
    which classes are leaves (any-node schemes), L-ER counts every
    internal-node prediction as an error and R-ER restricts the error rate
    to leaf-predicted samples. The report carries no distortion; callers
    that have prototypes attach one.
    """
    y = np.asarray(predictions, dtype=np.intp)
    z = np.asarray(labels, dtype=np.intp)
    if y.shape != z.shape or y.ndim != 1:
        raise ValueError("predictions and labels must be 1-D and equally long")
    if y.size == 0:
        raise ValueError("nothing to evaluate")
    K = metric.size
    if y.min() < 0 or y.max() >= K or z.min() < 0 or z.max() >= K:
        raise ValueError("class index out of range for the metric")

    n = y.size
    er = float(np.mean(y != z))
    ac = float(np.mean(metric.costs[y, z]))
    confusion = np.zeros((K, K), dtype=np.int64)
    np.add.at(confusion, (z, y), 1)

    l_er = r_er = None
    if leaf_mask is not None:
        leaf_mask = np.asarray(leaf_mask, dtype=bool)
        if leaf_mask.shape != (K,):
            raise ValueError("leaf_mask must flag each metric class")
        if not leaf_mask[z].all():
            raise ValueError("labels must be leaf classes")
        is_leaf_pred = leaf_mask[y]
        l_er = float(np.mean(~is_leaf_pred | (y != z)))
        r_er = (float(np.mean(y[is_leaf_pred] != z[is_leaf_pred]))
                if is_leaf_pred.any() else None)

    return EvalReport(er=er, ac=ac, l_er=l_er, r_er=r_er, n=n,
                      class_names=metric.class_names, confusion=confusion)


def evaluate_checkpoint(ckpt: model.Checkpoint, dataset: Dataset, scheme: str) -> EvalReport:
    """Score a checkpoint's `scheme` predictions on a labelled dataset (any-node
    maps the leaf labels to node ids), keeping only the predictions of each
    row block, and attach the leaves-only distortion report of its leaf
    prototypes: for a head without prototypes, the class means of the
    embedded dataset, or the training means if a class is absent."""
    tax = ckpt.taxonomy
    metric, blocks = inference.predict_blocks(ckpt, dataset.features, scheme)
    preds = np.concatenate(list(map(itemgetter(0), blocks)))  # drops each P and EC at once
    labels, leaf_mask, leaf_metric = dataset.labels, None, metric
    if scheme == "any-node":
        leaf_ids = np.array(tax.leaf_ids, dtype=np.intp)
        labels = leaf_ids[labels]
        leaf_mask = np.array([tax.is_leaf(i) for i in range(tax.n_nodes)])
        # the leaf block of the all-nodes matrix is the leaves-only one, bit for bit
        leaf_metric = FiniteMetric(tax.leaf_names, metric.costs[np.ix_(leaf_ids, leaf_ids)])
    report = evaluate(preds, labels, metric, leaf_mask)
    if ckpt.head is None:
        pi = ckpt.prototypes
        leaf_pi = pi.subset(model.leaf_prototype_rows(tax, pi.class_map))
    elif np.unique(dataset.labels).size < len(tax.leaf_ids):
        leaf_pi = ckpt.prototypes  # a class is absent: keep the training means
    else:
        leaf_pi = model.class_mean_prototypes(ckpt.model, dataset, tax)
    return replace(report, distortion=distortion_report(leaf_pi, leaf_metric, ckpt.distance))


def aggregate_reports(per_seed: list[dict], how: str) -> dict:
    """Median or mean over seeds of the `EvalReport.to_dict()` figures and SFD."""
    average = {"median": np.median, "mean": np.mean}.get(how)
    if average is None:
        raise ValueError(f"unknown aggregation '{how}'")
    values = {key: [r[key] for r in per_seed if r[key] is not None]
              for key in ("er", "ac", "l_er", "r_er")}
    values["scale_free_distortion"] = [r["distortion"]["scale_free_distortion"]
                                       for r in per_seed if r["distortion"]]
    return {key: float(average(v)) if v else None for key, v in values.items()}
