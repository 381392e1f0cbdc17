"""Prototypical classifier: embedding models, losses, baselines, training.

The embedding network and the class prototypes are trained jointly: the
data term pulls each sample embedding towards its class prototype and away
from the others, while an optional regularizer arranges the prototypes so
their pairwise distances track the misclassification costs. Gradients are
analytic throughout (reverse-mode by hand); `finite_difference_check`
provides the matching numerical oracle.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass, field, fields

import numpy as np

from . import geometry
from .data import Dataset
from .distortion import PrototypeSet, disto_loss, fit_prototypes, rank_loss, sample_triplets
from .formats import Record, csv_text, json_text, parse_json
from .geometry import (DistanceSpec, dist_from_sqnorm, grad_weight_from_sqnorm, pair_contract,
                       pairwise_sqnorms)
from .optim import OptimizerSpec, TrainingDivergedError, make_optimizer
from .taxonomy import FiniteMetric, Taxonomy, cost_matrix

ARCHITECTURES = ("identity", "linear", "mlp")
ACTIVATIONS = ("relu", "tanh")
REGULARIZERS = ("disto", "disto-fixed-scale", "rank", "none")
HEADS = ("prototypes", "cross-entropy", "soft-labels")
SCHEDULES = ("joint", "fixed-proto")

CHECKPOINT_VERSION = 1
BLOCK_ROWS = 4096  # most feature rows one forward pass holds


# ---------------------------------------------------------------------------
# Embedding model
# ---------------------------------------------------------------------------

@dataclass
class EmbeddingModel(Record):
    """Parameterized map from raw features to the embedding space.

    Parameters live in one flat float64 vector; layers are views into it.
    `identity` requires input_dim == output_dim and has no parameters.
    """

    kind: str
    input_dim: int
    output_dim: int
    hidden: tuple[int, ...] = ()
    activation: str = "relu"
    params: np.ndarray = field(default_factory=lambda: np.zeros(0))

    def layer_dims(self) -> list[tuple[int, int]]:
        if self.kind == "identity":
            return []
        if self.kind == "linear":
            return [(self.input_dim, self.output_dim)]
        dims = [self.input_dim, *self.hidden, self.output_dim]
        return list(zip(dims[:-1], dims[1:]))

    def param_count(self) -> int:
        return sum(din * dout + dout for din, dout in self.layer_dims())


def _check_widths(hidden) -> None:
    for width in hidden:
        if width < 1:
            raise ValueError(f"hidden layer width {width} must be >= 1")


def _validate_model(model: EmbeddingModel) -> None:
    if model.kind not in ARCHITECTURES:
        raise ValueError(f"unknown architecture '{model.kind}'")
    if model.activation not in ACTIVATIONS:
        raise ValueError(f"unknown activation '{model.activation}'")
    if model.kind == "identity" and model.input_dim != model.output_dim:
        raise ValueError("identity architecture requires input_dim == output_dim")
    _check_widths(model.hidden)
    if model.params.shape != (model.param_count(),):
        raise ValueError(
            f"parameter vector has size {model.params.size}, architecture "
            f"needs {model.param_count()}"
        )
    if not np.all(np.isfinite(model.params)):
        raise ValueError("model parameters must be finite")


def init_embedding_model(kind: str, input_dim: int, output_dim: int,
                         hidden: tuple[int, ...] = (), activation: str = "relu",
                         rng: np.random.Generator | None = None) -> EmbeddingModel:
    """Fresh model with N(0, 1/fan_in) weights and zero biases."""
    model = EmbeddingModel(kind, input_dim, output_dim, tuple(hidden), activation)
    if rng is None:
        rng = np.random.default_rng(0)
    chunks = [np.zeros(0)]  # a model of no layers has no parameters
    for din, dout in model.layer_dims():
        chunks.append(rng.standard_normal((dout, din)).ravel() / np.sqrt(din))
        chunks.append(np.zeros(dout))
    model.params = np.concatenate(chunks)
    _validate_model(model)
    return model


def _unpack(model: EmbeddingModel | LinearHead):
    """Per-layer (W, b) views into the flat parameter vector."""
    layers = []
    offset = 0
    for din, dout in model.layer_dims():
        W = model.params[offset:offset + din * dout].reshape(dout, din)
        offset += din * dout
        b = model.params[offset:offset + dout]
        offset += dout
        layers.append((W, b))
    return layers


def _activate(name: str, h: np.ndarray) -> np.ndarray:
    return np.maximum(h, 0.0) if name == "relu" else np.tanh(h)


def forward(model: EmbeddingModel, x) -> np.ndarray:
    """Embed one feature vector (m_in,) or a batch (n, m_in), filled from the
    blocks of `_forward_blocks`, so that one block's activations are alive
    at a time."""
    x = np.asarray(x, dtype=np.float64)
    single = x.ndim == 1
    X = x[None, :] if single else x
    blocks = _forward_blocks(model, X)  # checks the width first
    E = np.empty((X.shape[0], model.output_dim))
    start = 0
    for Eb in blocks:
        E[start:start + Eb.shape[0]] = Eb
        start += Eb.shape[0]
        del Eb  # copied: it need not live while the next block runs
    return E[0] if single else E


def _forward_blocks(model: EmbeddingModel, X: np.ndarray):
    """The embeddings of the feature rows X (n, m_in), as an iterator over
    the fewest near-equal blocks of at most BLOCK_ROWS rows, each checked
    finite (one empty block when n == 0): the one loop over feature rows.

    No block is a short tail, which BLAS could round through another kernel
    than the long blocks, so the rows equal those of one unblocked pass.
    The input width is checked before any block runs.
    """
    if X.ndim != 2 or X.shape[1] != model.input_dim:
        raise ValueError(f"expected input dimension {model.input_dim}, got {X.shape}")

    def blocks():
        for Xb in _row_blocks(X, BLOCK_ROWS):
            E = _forward_cache(model, Xb)[0]  # the layer cache dies here, not at the yield
            if not np.all(np.isfinite(E)):
                raise FloatingPointError("non-finite activation output")
            yield E
            del E  # a block the caller has let go of dies before the next one runs
    return blocks()


def _forward_cache(model: EmbeddingModel | LinearHead, X: np.ndarray):
    """Outputs for the rows of X, and each layer's (input, pre-activation)
    pair; every layer but the last is activated."""
    layers = _unpack(model)
    cache = []
    H = X
    for i, (W, b) in enumerate(layers):
        Z = H @ W.T + b
        cache.append((H, Z))
        H = _activate(model.activation, Z) if i < len(layers) - 1 else Z
    return H, cache


def _backward(model: EmbeddingModel | LinearHead, cache, dE: np.ndarray):
    """Gradients of a scalar loss wrt the flat parameters and wrt the input
    rows, given dloss/dE for the outputs."""
    layers = _unpack(model)
    grads = [np.zeros(0)]  # each layer inserts its pair: [W0, b0, W1, b1, ...]
    dH = dE
    for i in reversed(range(len(layers))):
        (H_in, Z), (W, _) = cache[i], layers[i]
        if i == len(layers) - 1:
            dZ = dH
        elif model.activation == "relu":
            dZ = dH * (Z > 0)
        else:
            dZ = dH * (1.0 - np.tanh(Z) ** 2)
        grads[1:1] = [(dZ.T @ H_in).ravel(), dZ.sum(axis=0)]
        dH = dZ @ W
    return np.concatenate(grads), dH


# ---------------------------------------------------------------------------
# Losses
# ---------------------------------------------------------------------------

def _log_sum_exp(logits: np.ndarray):
    """Row-wise max-shifted log-sum-exp of (n, k) logits.

    Returns (lse, ex, total): the (n, 1) log-sum-exp, exp(logits - row max)
    and its (n, 1) row sums, so that ex / total is the softmax.
    """
    shift = logits.max(axis=1, keepdims=True)
    ex = np.exp(logits - shift)
    total = ex.sum(axis=1, keepdims=True)
    return shift + np.log(total), ex, total


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax of (n, k) logits, max-shifted for stability."""
    _, p, total = _log_sum_exp(logits)
    p /= total
    return p


def _softmax_xent(logits: np.ndarray, T: np.ndarray):
    """Mean cross-entropy of (n, k) logits against target rows T, and its
    gradient (softmax - T) / n: the loss of every head."""
    n = logits.shape[0]
    logp = logits - _log_sum_exp(logits)[0]
    return float(-np.sum(T * logp) / n), (np.exp(logp) - T) / n


def _one_hot(z: np.ndarray, k: int) -> np.ndarray:
    """(n, k) one-hot rows of the class indices z, without a k x k identity."""
    T = np.zeros((z.shape[0], k))
    T[np.arange(z.shape[0]), z] = 1.0
    return T


def posterior(e, proto_coords: np.ndarray, spec: DistanceSpec) -> np.ndarray:
    """Softmin of distances to the leaf prototypes, max-shifted for stability.

    Accepts a single embedding (m,) or a batch (n, m); probabilities sum to 1
    and stay finite for distances up to at least 1e6. The distances take the
    row-independent cross term, so a row computed alone equals the same row
    in a batch.
    """
    e = np.asarray(e, dtype=np.float64)
    single = e.ndim == 1
    E = e[None, :] if single else e
    p = softmax(-dist_from_sqnorm(spec, pairwise_sqnorms(E, proto_coords, row_independent=True)))
    return p[0] if single else p


def data_loss(X, z, model: EmbeddingModel, pi: PrototypeSet, spec: DistanceSpec,
              leaf_rows: np.ndarray | None = None):
    """Mean negative log-posterior of the true classes, with gradients.

    Returns (value, dmodel_params, dproto_coords). `leaf_rows` selects the
    leaf prototypes (row order must match the label indexing) when the set
    also carries internal-node prototypes.
    """
    X = np.asarray(X, dtype=np.float64)
    z = np.asarray(z, dtype=np.intp)
    if X.ndim != 2 or X.shape[0] == 0:
        raise ValueError("empty batch")
    P_full = pi.coords
    rows = np.arange(pi.size) if leaf_rows is None else np.asarray(leaf_rows, dtype=np.intp)
    P = P_full[rows]

    E, cache = _forward_cache(model, X)
    sq = pairwise_sqnorms(E, P)
    value, dlogits = _softmax_xent(-dist_from_sqnorm(spec, sq), _one_hot(z, P.shape[0]))
    C = -dlogits * grad_weight_from_sqnorm(spec, sq)
    dE = pair_contract(C, E, P)
    dP = pair_contract(C.T, P, E)
    dcoords = np.zeros_like(P_full)
    dcoords[rows] = dP
    dmodel, _ = _backward(model, cache, dE)
    return value, dmodel, dcoords


def soft_label_targets(metric: FiniteMetric, z: int, beta: float) -> np.ndarray:
    """Softmin-of-costs target vector for true class z (sharpness beta)."""
    if not beta > 0:
        raise ValueError("beta must be positive")
    return softmax(-beta * metric.costs[None, :, z])[0]


@dataclass(frozen=True)
class TrainConfig(Record):
    """Hyper-parameters for one training run.

    `lam` is the regularization strength (serialized as "lambda"); `beta`
    is the soft-labels sharpness (targets use exp(-beta * cost), i.e. a
    temperature of 1/beta). Architecture fields describe the embedding
    model built by `train`.
    """

    lam: float = field(default=1.0, metadata={"key": "lambda"})
    regularizer: str = "disto"
    head: str = "prototypes"
    beta: float = 10.0
    distance: DistanceSpec = DistanceSpec()
    m: int = 64
    include_internal_prototypes: bool = False
    schedule: str = "joint"
    optimizer: OptimizerSpec = OptimizerSpec()
    epochs: int = 50
    batch_size: int = 32
    triplet_count: int = 10
    architecture: str = "mlp"
    hidden: tuple[int, ...] = (32, 32)
    activation: str = "relu"

    def __post_init__(self):
        if not 0 <= self.lam < np.inf:
            raise ValueError(f"lambda must be nonnegative and finite, got {self.lam}")
        if self.regularizer not in REGULARIZERS:
            raise ValueError(f"unknown regularizer '{self.regularizer}'")
        if self.head not in HEADS:
            raise ValueError(f"unknown head '{self.head}'")
        if self.schedule not in SCHEDULES:
            raise ValueError(f"unknown schedule '{self.schedule}'")
        if not 0 < self.beta < np.inf:
            raise ValueError(f"beta must be positive and finite, got {self.beta}")
        if self.epochs < 1 or self.batch_size < 1 or self.m < 1:
            raise ValueError("epochs, batch_size and m must be >= 1")
        if self.regularizer == "rank" and self.triplet_count < 1:
            raise ValueError("rank regularizer needs triplet_count >= 1")
        object.__setattr__(self, "hidden", tuple(int(h) for h in self.hidden))
        _check_widths(self.hidden)


@dataclass(frozen=True)
class LossBreakdown:
    l_data: float
    l_reg: float
    total: float
    s_star: float | None = None


def total_loss(X, z, model: EmbeddingModel, pi: PrototypeSet,
               metric_reg: FiniteMetric, config: TrainConfig,
               rng: np.random.Generator | None = None,
               leaf_rows: np.ndarray | None = None):
    """Data loss plus lam * regularizer, with gradients for model and prototypes.

    The regularizer only touches the prototypes; model gradients come from
    the data term alone. With lam == 0 (or regularizer "none") the
    regularizer is skipped entirely, so such runs are bit-identical to
    unregularized ones.
    """
    l_data, dmodel, dcoords = data_loss(X, z, model, pi, config.distance, leaf_rows)
    l_reg = 0.0
    s_star = None
    if config.lam > 0 and config.regularizer != "none":
        if config.regularizer != "rank":
            l_reg, s_star, greg = disto_loss(pi, metric_reg, config.distance,
                                             fixed_scale=config.regularizer == "disto-fixed-scale")
        elif rng is None:
            raise ValueError("rank regularizer needs an rng for triplet sampling")
        else:
            l_reg, greg = rank_loss(pi, metric_reg, config.distance,
                                    sample_triplets(pi.size, config.triplet_count, rng))
        dcoords = dcoords + config.lam * greg
    breakdown = LossBreakdown(l_data=l_data, l_reg=l_reg,
                              total=l_data + config.lam * l_reg, s_star=s_star)
    return breakdown, {"model": dmodel, "proto": dcoords}


# ---------------------------------------------------------------------------
# Baseline heads
# ---------------------------------------------------------------------------

@dataclass
class LinearHead(Record):
    """Linear map from the embedding space to class logits (zero-initialized):
    one unactivated layer of the network code."""

    n_classes: int
    input_dim: int
    params: np.ndarray = field(default_factory=lambda: np.zeros(0))

    def __post_init__(self):
        want = self.n_classes * self.input_dim + self.n_classes
        if self.params.size == 0:
            self.params = np.zeros(want)
        elif self.params.shape != (want,):
            raise ValueError("head parameter vector has the wrong size")

    def layer_dims(self) -> list[tuple[int, int]]:
        return [(self.input_dim, self.n_classes)]


def head_logits(head: LinearHead, E: np.ndarray) -> np.ndarray:
    return _forward_cache(head, E)[0]


def _head_loss(X, z, model: EmbeddingModel, head: LinearHead,
               target_table: np.ndarray | None = None):
    """Cross-entropy of the linear head; soft targets when a table is given."""
    X = np.asarray(X, dtype=np.float64)
    z = np.asarray(z, dtype=np.intp)
    E, cache = _forward_cache(model, X)
    logits, head_cache = _forward_cache(head, E)
    T = _one_hot(z, head.n_classes) if target_table is None else target_table[z]
    value, dlogits = _softmax_xent(logits, T)
    dhead, dE = _backward(head, head_cache, dlogits)
    dmodel, _ = _backward(model, cache, dE)
    return value, dmodel, dhead


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EpochRecord:
    epoch: int
    l_data: float
    l_reg: float
    total: float
    s_star: float | None
    train_er: float
    train_ac: float


@dataclass(frozen=True)
class TrainHistory:
    records: tuple[EpochRecord, ...]

    def to_csv(self) -> str:
        return csv_text([f.name for f in fields(EpochRecord)], map(astuple, self.records))


@dataclass
class TrainResult:
    model: EmbeddingModel
    prototypes: PrototypeSet
    history: TrainHistory
    head: LinearHead | None = None


def leaf_prototype_rows(tax: Taxonomy, class_map) -> np.ndarray:
    """Prototype rows whose node is a leaf (in class_map order)."""
    return np.array([i for i, nid in enumerate(class_map) if tax.is_leaf(nid)],
                    dtype=np.intp)


def class_mean_prototypes(model: EmbeddingModel, dataset: Dataset,
                          tax: Taxonomy) -> PrototypeSet:
    """Stand-in leaf prototypes for a head that has none, which the distortion
    diagnostics report on: the class means of the embedded samples (the zero
    vector for a class without samples).
    """
    E = forward(model, dataset.features)
    means = np.zeros((len(tax.leaf_ids), model.output_dim))
    for k in np.unique(dataset.labels):
        means[k] = E[dataset.labels == k].mean(axis=0)
    return PrototypeSet(means, tax.leaf_ids)


def leaf_posterior(model: EmbeddingModel, X, proto_leaf: np.ndarray | None,
                   spec: DistanceSpec, head: LinearHead | None = None):
    """The leaf posterior of feature rows, yielded as consecutive (b, K)
    blocks: the softmax of the head logits with a head, else the softmin of
    the distances to the leaf prototypes `proto_leaf` (taxonomy leaf order).

    Each block of `_forward_blocks` is cut into the fewest near-equal
    blocks of at most geometry.BUDGET // (8 K) rows, read at call time, so
    one (b, K) float array takes at most about BUDGET bytes, whatever n is.
    The prototype head's rows do not depend on the split: every other
    caller of `pairwise_sqnorms` takes its cross term from a GEMM, but
    `posterior` asks for the row-independent einsum, and the row-wise
    softmax reads each row alone. A head's logits come from a BLAS product,
    which could round a row differently in another block.
    One empty block when n == 0.
    """
    K = head.n_classes if head is not None else proto_leaf.shape[0]
    rows = max(1, geometry.BUDGET // (8 * K))
    for E in _forward_blocks(model, np.asarray(X, dtype=np.float64)):
        for Eb in _row_blocks(E, rows):
            yield (softmax(head_logits(head, Eb)) if head is not None
                   else posterior(Eb, proto_leaf, spec))


def _row_blocks(X: np.ndarray, most: int) -> list[np.ndarray]:
    """The fewest near-equal row blocks of X with at most `most` rows each
    (one empty block when X has no rows)."""
    return np.array_split(X, max(1, -(-X.shape[0] // most)))


def train(dataset: Dataset, tax: Taxonomy, metric: FiniteMetric,
          config: TrainConfig, rng: np.random.Generator) -> TrainResult:
    """Minibatch training of the embedding model and classifier.

    `metric` must be the leaves-only cost matrix of `tax` (used for the
    train-AC log, for soft-label targets, and as the regularizer metric
    when internal-node prototypes are off). Deterministic for a fixed rng
    state and single-threaded execution. The fixed-proto schedule first
    fits the prototypes to the regularizer alone, by `fit_prototypes` at its
    own defaults rather than `config.optimizer`, and then freezes them.
    """
    if dataset.class_names != tax.leaf_names:
        raise ValueError("dataset classes do not match taxonomy leaves")
    if metric.class_names != tax.leaf_names:
        raise ValueError("metric classes do not match taxonomy leaves")
    K = len(tax.leaf_ids)
    X_all = dataset.features
    z_all = dataset.labels
    N = X_all.shape[0]

    model = init_embedding_model(config.architecture, X_all.shape[1], config.m,
                                 config.hidden, config.activation, rng)
    params: dict[str, np.ndarray] = {"model": model.params}
    proto = head = None
    if config.head == "prototypes":
        metric_reg, class_map = metric, tax.leaf_ids
        if config.include_internal_prototypes:
            metric_reg, class_map = cost_matrix(tax, "all-nodes"), tuple(range(tax.n_nodes))
        proto = rng.standard_normal((len(class_map), config.m))
        leaf_rows = leaf_prototype_rows(tax, class_map)
        if config.schedule == "joint":
            params["proto"] = proto
        elif config.lam > 0 and config.regularizer != "none":
            proto = fit_prototypes(metric_reg, config.distance, config.regularizer, rng, proto,
                                   triplets=config.triplet_count)

        def step(Xb, zb):
            pi = PrototypeSet(proto, class_map, config.include_internal_prototypes)
            return total_loss(Xb, zb, model, pi, metric_reg, config, rng, leaf_rows)
    else:
        head = LinearHead(K, config.m)
        params["head"] = head.params
        target_table = None if config.head == "cross-entropy" else np.stack(
            [soft_label_targets(metric, zk, config.beta) for zk in range(K)])

        def step(Xb, zb):
            value, dmodel, dhead = _head_loss(Xb, zb, model, head, target_table)
            return LossBreakdown(value, 0.0, value, None), {"model": dmodel, "head": dhead}
    opt = make_optimizer(config.optimizer)

    records = []
    for epoch in range(1, config.epochs + 1):
        perm = rng.permutation(N)
        steps = []
        for start in range(0, N, config.batch_size):
            idx = perm[start:start + config.batch_size]
            breakdown, grads = step(X_all[idx], z_all[idx])
            if not np.isfinite(breakdown.total):
                raise TrainingDivergedError(
                    f"non-finite loss at epoch {epoch} (lr={config.optimizer.lr})")
            opt.step(params, grads)
            for p in params.values():
                if not np.all(np.isfinite(p)):
                    raise TrainingDivergedError(
                        f"non-finite parameters at epoch {epoch} (lr={config.optimizer.lr})")
            steps.append(breakdown)

        l_data = sum(b.l_data for b in steps) / len(steps)
        l_reg = sum(b.l_reg for b in steps) / len(steps)
        s_stars = [b.s_star for b in steps if b.s_star is not None]
        s_star = sum(s_stars) / len(s_stars) if s_stars else None
        proto_leaf = proto[leaf_rows] if proto is not None else None
        preds = np.concatenate([np.argmax(P, axis=1)  # ties go to the lowest index
                                for P in leaf_posterior(model, X_all, proto_leaf,
                                                        config.distance, head)])
        er = float(np.mean(preds != z_all))
        ac = float(np.mean(metric.costs[preds, z_all]))
        records.append(EpochRecord(epoch=epoch, l_data=l_data, l_reg=l_reg,
                                   total=l_data + config.lam * l_reg,
                                   s_star=s_star, train_er=er, train_ac=ac))

    if head is None:
        prototypes = PrototypeSet(proto, class_map, config.include_internal_prototypes)
    else:
        prototypes = class_mean_prototypes(model, dataset, tax)
    return TrainResult(model=model, prototypes=prototypes,
                       history=TrainHistory(tuple(records)), head=head)


# ---------------------------------------------------------------------------
# Gradient checking
# ---------------------------------------------------------------------------

def finite_difference_check(evaluator, params: np.ndarray, h: float = 1e-5) -> float:
    """Max relative error between analytic and central-difference gradients.

    `evaluator(params) -> (value, grad)` must be pure in `params`. Steps are
    h * max(1, |p_i|) per coordinate; errors are normalized by
    max(1, |fd_i|, |analytic_i|).
    """
    params = np.asarray(params, dtype=np.float64)
    _, grad = evaluator(params)
    grad = np.asarray(grad, dtype=np.float64)
    fd = np.zeros_like(params)
    for i in range(params.size):
        step = h * max(1.0, abs(params[i]))
        up = params.copy()
        up[i] += step
        down = params.copy()
        down[i] -= step
        fd[i] = (evaluator(up)[0] - evaluator(down)[0]) / (2.0 * step)
    denom = np.maximum(1.0, np.maximum(np.abs(fd), np.abs(grad)))
    return float(np.max(np.abs(fd - grad) / denom))


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------

@dataclass
class Checkpoint(Record):
    model: EmbeddingModel
    prototypes: PrototypeSet
    distance: DistanceSpec
    taxonomy: Taxonomy
    head: LinearHead | None = None


def save_checkpoint(path, ckpt: Checkpoint) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json_text({"format_version": CHECKPOINT_VERSION, **ckpt.to_dict()}))


def load_checkpoint(path) -> Checkpoint:
    with open(path, "r", encoding="utf-8") as fh:
        payload = parse_json(fh.read())
    version = payload.pop("format_version", None) if isinstance(payload, dict) else None
    if type(version) is not int or version != CHECKPOINT_VERSION:
        raise ValueError(f"unsupported checkpoint version {version!r}")
    ckpt = Checkpoint.from_dict(payload)
    _validate_checkpoint(ckpt)
    return ckpt


def _validate_checkpoint(ckpt: Checkpoint) -> None:
    """Cross-check the parts of a loaded checkpoint against each other.

    Posterior columns follow the taxonomy's leaf order, so the leaf entries
    of the class map must be exactly the taxonomy leaves, in that order.
    """
    _validate_model(ckpt.model)
    tax, pi, m = ckpt.taxonomy, ckpt.prototypes, ckpt.model.output_dim
    bad = [nid for nid in pi.class_map if not 0 <= nid < tax.n_nodes]
    if bad:
        raise ValueError(f"prototype class_map id {bad[0]} is not a node of the "
                         f"checkpoint taxonomy ({tax.n_nodes} nodes)")
    if tuple(nid for nid in pi.class_map if tax.is_leaf(nid)) != tax.leaf_ids:
        raise ValueError("prototype class_map leaves must be the taxonomy leaves "
                         "in document order")
    if pi.dim != m:
        raise ValueError(f"prototype dimension {pi.dim} does not match the model "
                         f"output dimension {m}")
    head = ckpt.head
    if head is not None and (head.n_classes, head.input_dim) != (len(tax.leaf_ids), m):
        raise ValueError(f"head maps {head.input_dim} -> {head.n_classes} classes, "
                         f"checkpoint needs {m} -> {len(tax.leaf_ids)}")
