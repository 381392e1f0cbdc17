"""Cost-aware prediction schemes over trained prototypes or a linear head.

`predict_blocks` classifies a feature batch from a checkpoint one row
block at a time: the leaf posterior (`model.leaf_posterior`: softmin of
prototype distances, or softmax of the head logits), then the scheme's
decision over the cost matrix; `predict` joins the blocks. The
single-sample `predict_*` functions run the same decision code on one
embedding.

Nearest-prototype lookup is an exact scan, ties broken towards the lowest
prototype index. All supported distance kinds are strictly increasing in
the Euclidean norm, so the Euclidean nearest prototype is the nearest under
every kind.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# leaf_posterior, posterior and cost_matrix are looked up through their home
# modules at call time, so that instrumentation rebinding them there sees
# every call.
from . import geometry, model, taxonomy
from .distortion import PrototypeSet
from .geometry import DistanceSpec
from .taxonomy import FiniteMetric, Taxonomy

SCHEMES = ("max-prob", "min-ec", "any-node")


def _embedding(e, m: int, what: str, against: str) -> np.ndarray:
    """`e` as a float vector, which must have shape (m,) and be finite."""
    e = np.asarray(e, dtype=np.float64)
    if e.shape != (m,):
        raise ValueError(f"{what} dimension {e.shape} does not match {against} "
                         f"dimension ({m},)")
    if not np.all(np.isfinite(e)):
        raise ValueError(f"{what} coordinates must be finite")
    return e


class PrototypeIndex:
    """Exact nearest-neighbour lookup over a snapshot of prototype rows.

    Immutable after construction; rebuild after prototype updates. Queries
    return the lowest index among exactly tied candidates.
    """

    def __init__(self, coords: np.ndarray):
        coords = np.array(coords, dtype=np.float64)
        if coords.ndim != 2 or coords.shape[0] < 1:
            raise ValueError("index needs a non-empty (K, m) coordinate matrix")
        if not np.all(np.isfinite(coords)):
            raise ValueError("prototype coordinates must be finite")
        self.coords = coords

    def query(self, x) -> tuple[int, float]:
        """(index, Euclidean distance) of the exact nearest prototype."""
        x = _embedding(x, self.coords.shape[1], "query", "index")
        sq = geometry.pairwise_sqnorms(x[None, :], self.coords)[0]
        idx = int(np.argmin(sq))  # argmin takes the first (lowest) index on ties
        return idx, float(np.sqrt(sq[idx]))

    def query_exhaustive(self, x) -> tuple[int, float]:
        """Linear-scan reference with the same tie rule."""
        x = _embedding(x, self.coords.shape[1], "query", "index")
        diffs = self.coords - x
        sq = np.einsum("ij,ij->i", diffs, diffs)
        idx = int(np.argmin(sq))  # argmin takes the first (lowest) index on ties
        return idx, float(np.sqrt(sq[idx]))


def build_index(pi: PrototypeSet) -> PrototypeIndex:
    return PrototypeIndex(pi.coords)


def _any_node_costs(metric_all: FiniteMetric, tax: Taxonomy) -> np.ndarray:
    """All-nodes cost rows restricted to the leaf columns, in leaf order.

    The all-nodes matrix is in document order, so its columns are node ids.
    """
    return metric_all.costs[:, list(tax.leaf_ids)]


def _decide(P: np.ndarray, costs: np.ndarray | None, scheme: str):
    """(candidate indices, EC table) of a scheme over posterior rows P.

    max-prob takes the posterior argmax and builds no table (EC is None);
    the other schemes take the argmin of EC[i, k] = sum_l P[i, l] *
    costs[k, l]. Ties go to the lowest index.
    """
    if scheme == "max-prob":
        return np.argmax(P, axis=1), None
    ec = P @ costs.T
    return np.argmin(ec, axis=1), ec


def predict_blocks(ckpt: model.Checkpoint, X, scheme: str):
    """(metric, blocks): the scheme's cost matrix and an iterator over
    consecutive row blocks of X, each a (preds, P, EC) triple as `predict`
    returns for the whole batch.

    The blocks are those of `model.leaf_posterior`, so the memory beyond
    the cost matrix is that of one block whatever n is; a block's EC table
    is |candidates| / K times its P. P and preds of the prototype head do
    not depend on the split. EC and a linear head's logits come from BLAS
    products, which could round a row differently in another block. Each
    EC entry sums K nonnegative products, so any two roundings agree within
    relative K eps, and so do the decisions unless the two best candidates
    are that close.
    """
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme '{scheme}'")
    tax = ckpt.taxonomy
    if scheme == "any-node":
        metric = taxonomy.cost_matrix(tax, "all-nodes")
        costs = _any_node_costs(metric, tax)
    else:
        metric = taxonomy.cost_matrix(tax, "leaves-only")
        costs = metric.costs
    rows = model.leaf_prototype_rows(tax, ckpt.prototypes.class_map)
    posteriors = model.leaf_posterior(ckpt.model, X, ckpt.prototypes.coords[rows],
                                      ckpt.distance, ckpt.head)

    def decide(P):
        preds, ec = _decide(P, costs, scheme)
        return preds, P, ec

    # unlike a loop, map holds no block while the next one is computed
    return metric, map(decide, posteriors)


def predict(ckpt: model.Checkpoint, X, scheme: str):
    """Batch prediction from a checkpoint: (preds, metric, P, EC).

    `preds` index `metric.class_names`: the leaves-only cost matrix for
    max-prob and min-ec, the all-nodes one for any-node. `P` is the (n, K)
    leaf posterior in taxonomy leaf order and `EC` the (n, |candidates|)
    expected-cost table, None for max-prob. The rows are those of
    `predict_blocks`, concatenated.
    """
    metric, blocks = predict_blocks(ckpt, X, scheme)
    preds, P, ec = zip(*blocks)
    return (np.concatenate(preds), metric, np.concatenate(P),
            None if ec[0] is None else np.concatenate(ec))


def top3(P: np.ndarray) -> np.ndarray:
    """(n, min(3, K)) column indices of each row's three largest entries,
    largest first, the lowest index first among equals: the first three
    columns of np.argsort(-P, axis=1, kind="stable") for P above -inf and
    free of NaN, from three argmax passes over one copy of P instead of a
    sort."""
    Q = np.array(P, dtype=np.float64)
    rows = np.arange(Q.shape[0])
    top = np.empty((Q.shape[0], min(3, Q.shape[1])), dtype=np.intp)
    for c in range(top.shape[1]):
        top[:, c] = np.argmax(Q, axis=1)
        Q[rows, top[:, c]] = -np.inf
    return top


@dataclass(frozen=True)
class Prediction:
    node_id: int              # taxonomy node id of the predicted class
    index: int                # position in the scheme's candidate order
    scheme: str               # "max-prob" | "min-expected-cost" | "any-node"
    posterior: np.ndarray     # over leaf classes
    expected_costs: np.ndarray | None = None  # over the candidate set


def _predict_one(e, pi: PrototypeSet, spec: DistanceSpec,
                 costs: np.ndarray | None, scheme: str):
    """(index, posterior, EC) of one embedding through the batch code."""
    e = _embedding(e, pi.dim, "embedding", "prototype")
    P = model.posterior(e[None, :], pi.coords, spec)
    preds, ec = _decide(P, costs, scheme)
    return int(preds[0]), P[0], None if ec is None else ec[0]


def predict_max_prob(e, index: PrototypeIndex, pi: PrototypeSet,
                     spec: DistanceSpec) -> Prediction:
    """Class of the nearest prototype == argmax of the posterior.

    The posterior ranks the prototypes as a `PrototypeIndex` over `pi`
    does, so the argmax is read off the posterior; `index` is not consulted.
    """
    idx, post, _ = _predict_one(e, pi, spec, None, "max-prob")
    return Prediction(node_id=pi.class_map[idx], index=idx, scheme="max-prob",
                      posterior=post)


def predict_min_expected_cost(e, pi: PrototypeSet, spec: DistanceSpec,
                              metric: FiniteMetric) -> Prediction:
    """Leaf minimizing the expected cost under the posterior (ties: lowest index)."""
    if metric.size != pi.size:
        raise ValueError("leaf metric size does not match prototype count")
    idx, post, ec = _predict_one(e, pi, spec, metric.costs, "min-ec")
    return Prediction(node_id=pi.class_map[idx], index=idx,
                      scheme="min-expected-cost", posterior=post,
                      expected_costs=ec)


def predict_any_node(e, pi: PrototypeSet, spec: DistanceSpec,
                     metric_all: FiniteMetric, tax: Taxonomy) -> Prediction:
    """Node (leaf or internal) minimizing the expected cost.

    `pi` holds the leaf prototypes in taxonomy leaf order; `metric_all` is
    the all-nodes cost matrix of `tax`. Internal nodes win when the leaf
    posterior is dispersed below them.
    """
    if metric_all.class_names != tax.names:
        raise ValueError("all-nodes metric does not match the taxonomy")
    if pi.size != len(tax.leaf_ids):
        raise ValueError("prototype set must cover exactly the taxonomy leaves")
    idx, post, ec = _predict_one(e, pi, spec, _any_node_costs(metric_all, tax),
                                 "any-node")
    return Prediction(node_id=idx, index=idx, scheme="any-node",
                      posterior=post, expected_costs=ec)
