"""Error rate, average cost, distortion diagnostics, confusion analysis."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distortion import DistortionReport, PrototypeSet, distortion_report
from .formats import Record, csv_text, json_text
from .geometry import DistanceSpec
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

    def to_json(self) -> str:
        return json_text(self.to_dict())

    def confusion_to_csv(self) -> str:
        names = self.class_names
        return csv_text(["true\\predicted", *names],
                        ([name, *row] for name, row in zip(names, self.confusion.tolist())))


def evaluate(predictions, labels, metric: FiniteMetric,
             pi: PrototypeSet | None = None, spec: DistanceSpec | None = None,
             leaf_mask=None) -> EvalReport:
    """Score predicted class indices against true leaf indices.

    Both sequences index into `metric.class_names`. When `leaf_mask` marks
    which classes are leaves (any-node schemes), L-ER counts every
    internal-node prediction as an error and R-ER restricts the error rate
    to leaf-predicted samples. A distortion report is attached when
    prototypes and a distance spec are supplied (prototype count must match
    the metric).
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

    report = None
    if pi is not None and spec is not None:
        report = distortion_report(pi, metric, spec)
    return EvalReport(er=er, ac=ac, l_er=l_er, r_er=r_er, n=n,
                      class_names=metric.class_names, confusion=confusion,
                      distortion=report)


@dataclass(frozen=True)
class PairDelta(Record):
    class_a: str
    class_b: str
    count_a: int     # confusions (either direction) in the first report
    count_b: int     # same pair in the second report
    rel_change: float  # (count_b - count_a) / count_a; inf for new confusions
    cost: float


def compare(report_a: EvalReport, report_b: EvalReport,
            metric: FiniteMetric) -> list[PairDelta]:
    """Per-pair confusion changes between two systems, best improvements first."""
    if report_a.class_names != report_b.class_names:
        raise ValueError("reports cover different class sets")
    if metric.class_names != report_a.class_names:
        raise ValueError("metric does not match the reports' class set")
    K = len(report_a.class_names)
    deltas = []
    for i in range(K):
        for j in range(i + 1, K):
            ca = int(report_a.confusion[i, j] + report_a.confusion[j, i])
            cb = int(report_b.confusion[i, j] + report_b.confusion[j, i])
            if ca > 0:
                rel = (cb - ca) / ca
            else:
                rel = 0.0 if cb == 0 else math.inf
            deltas.append(PairDelta(report_a.class_names[i], report_a.class_names[j],
                                    ca, cb, rel, float(metric.costs[i, j])))
    deltas.sort(key=lambda d: (d.rel_change, d.class_a, d.class_b))
    return deltas
