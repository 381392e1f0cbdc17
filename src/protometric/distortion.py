"""Distortion measures and prototype regularizers.

The distortion of a prototype arrangement against a finite cost metric D is
the mean relative deviation |d(pi_k, pi_l) - D[k,l]| / D[k,l] over ordered
class pairs. Its scale-free variant minimizes that quantity over a global
multiplicative factor s applied to all prototype distances; the minimizing s
for the L1 form has an exact sorting-based solution, and for the squared
(smooth surrogate) form a closed form. Both regularizers below return
analytic gradients with respect to the prototype coordinates.

The scale multiplies distances, not coordinates. For the Euclidean and
squared kinds the two views coincide (the norms are homogeneous); for the
Huber kind they differ and the distance-scaled form is the one implemented
everywhere.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from . import geometry
from .formats import Record
from .geometry import (EUCLIDEAN, DistanceSpec, dist_from_sqnorm, grad_weight_from_sqnorm,
                       pair_contract)
from .optim import OptimizerSpec, TrainingDivergedError, make_optimizer
from .taxonomy import FiniteMetric


class DegeneratePrototypesError(ArithmeticError):
    """All prototypes coincide: no scale can be fitted."""


@dataclass(frozen=True)
class PrototypeSet(Record):
    """Learnable class representatives, one row per covered taxonomy node."""

    coords: np.ndarray            # (K', m) float64
    class_map: tuple[int, ...]    # prototype row -> taxonomy node id
    includes_internal: bool = False

    def __post_init__(self):
        coords = np.array(self.coords, dtype=np.float64)
        if coords.ndim != 2 or coords.shape[0] < 2:
            raise ValueError("prototype set needs a (K, m) matrix with K >= 2")
        if not np.all(np.isfinite(coords)):
            raise ValueError("prototype coordinates must be finite")
        class_map = tuple(int(i) for i in self.class_map)
        if len(class_map) != coords.shape[0]:
            raise ValueError("class_map length must match prototype count")
        if len(set(class_map)) != len(class_map):
            raise ValueError("class_map must be a bijection onto the covered nodes")
        coords.setflags(write=False)
        object.__setattr__(self, "coords", coords)
        object.__setattr__(self, "class_map", class_map)

    @property
    def size(self) -> int:
        return self.coords.shape[0]

    @property
    def dim(self) -> int:
        return self.coords.shape[1]

    def with_coords(self, coords: np.ndarray) -> "PrototypeSet":
        return PrototypeSet(coords, self.class_map, self.includes_internal)

    def subset(self, rows) -> "PrototypeSet":
        rows = list(rows)
        return PrototypeSet(self.coords[rows],
                            tuple(self.class_map[r] for r in rows),
                            includes_internal=False)


@dataclass(frozen=True)
class DistortionReport(Record):
    distortion: float
    scale_free_distortion: float
    s_star_l1: float
    s_star_l2: float
    pair_count: int  # ordered pairs K(K-1)


@dataclass(frozen=True)
class TripletBatch:
    """Ordered distinct class triples (k, l, m) for the rank regularizer."""

    triplets: np.ndarray  # (S, 3) int

    def __post_init__(self):
        t = np.array(self.triplets, dtype=np.intp)
        if t.ndim != 2 or t.shape[1] != 3:
            raise ValueError("triplets must be an (S, 3) array")
        if t.shape[0] == 0:
            raise ValueError("empty triplet batch")
        if (t[:, 0] == t[:, 1]).any() or (t[:, 1] == t[:, 2]).any() or (t[:, 0] == t[:, 2]).any():
            raise ValueError("triples must have pairwise-distinct members")
        t.setflags(write=False)
        object.__setattr__(self, "triplets", t)

    @property
    def size(self) -> int:
        return self.triplets.shape[0]


@functools.lru_cache(maxsize=8)
def _upper_pairs(K: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The read-only indices of the K x K strict upper triangle, built once
    per K: rows iu, columns ju, and the flat indices iu*K + ju and ju*K + iu
    of each pair and its mirror, for one-dimensional `take` gathers and
    writes, which cost a fraction of the 2-D fancy ones."""
    iu, ju = np.triu_indices(K, k=1)
    upper, lower = iu * K + ju, ju * K + iu
    for index in (iu, ju, upper, lower):
        index.setflags(write=False)
    return iu, ju, upper, lower


def _pair_costs(metric: FiniteMetric, upper: np.ndarray) -> np.ndarray:
    """The costs of the unordered pairs, each of which must be positive."""
    costs = metric.costs.take(upper)
    if np.any(costs <= 0):
        raise ValueError("cost matrix has a zero or negative off-diagonal entry")
    return costs


def _pair_data(pi: PrototypeSet, metric: FiniteMetric, spec: DistanceSpec):
    """Unordered-pair distances and costs, plus the index arrays."""
    K = pi.size
    if metric.size != K:
        raise ValueError(f"prototype count {K} does not match metric size {metric.size}")
    iu, ju, upper, _ = _upper_pairs(K)
    costs = _pair_costs(metric, upper)
    sq = geometry.pairwise_sqnorms(pi.coords, pi.coords).take(upper)
    d = dist_from_sqnorm(spec, sq)
    return d, sq, costs, iu, ju


def _mean_relative_deviation(d: np.ndarray, costs: np.ndarray, s: float = 1.0) -> float:
    """Mean of |s*d - D| / D; over unordered pairs it equals the ordered-pair mean."""
    return float(np.mean(np.abs(s * d - costs) / costs))


def distortion(pi: PrototypeSet, metric: FiniteMetric, spec: DistanceSpec) -> float:
    """Mean over ordered pairs of |d(pi_k, pi_l) - D[k,l]| / D[k,l].

    Fits no scale, so unlike s* it is defined on coincident prototypes.
    """
    d, _, costs, _, _ = _pair_data(pi, metric, spec)
    return _mean_relative_deviation(d, costs)


def _l1_scale(alpha: np.ndarray) -> float:
    """Exact minimizer of f(s) = sum_i |s * alpha_i - 1| over s > 0.

    Sort the ratios ascending (stable, so equal values keep pair order) and
    take s = 1 / alpha_i at the smallest index where the cumulative sum
    reaches half the total; that index is where the subgradient crosses 0.
    """
    if not np.all(np.isfinite(alpha)):
        raise ValueError("non-finite distance/cost ratio")
    order = np.argsort(alpha, kind="stable")
    a = alpha[order]
    total = float(a.sum())
    if total <= 0.0:
        raise DegeneratePrototypesError("degenerate prototypes: all pairwise distances are 0")
    cum = np.cumsum(a)
    i = int(np.argmax(cum >= total - cum))
    return float(1.0 / a[i])


def optimal_scale_l1(pi: PrototypeSet, metric: FiniteMetric, spec: DistanceSpec) -> float:
    """Global minimizer s* of the scaled L1 distortion sum."""
    return distortion_report(pi, metric, spec).s_star_l1


def scale_free_distortion(pi: PrototypeSet, metric: FiniteMetric, spec: DistanceSpec) -> float:
    """Distortion with every pairwise distance multiplied by the optimal s*."""
    return distortion_report(pi, metric, spec).scale_free_distortion


def l2_scale(distances: np.ndarray, costs: np.ndarray) -> float:
    """Closed-form minimizer of sum ((s*d - D) / D)^2 over s."""
    distances = np.asarray(distances, dtype=np.float64)
    costs = np.asarray(costs, dtype=np.float64)
    denom = float(np.sum((distances / costs) ** 2))
    if denom <= 0.0:
        raise DegeneratePrototypesError("degenerate prototypes: all pairwise distances are 0")
    return float(np.sum(distances / costs) / denom)


def _pair_matrix(w: np.ndarray, out: np.ndarray) -> np.ndarray:
    """`out`, a zero-diagonal K x K matrix, with the pair weights w (in triu
    order) written at each pair and its mirror."""
    _, _, upper, lower = _upper_pairs(out.shape[0])
    flat = out.reshape(-1)
    flat[upper] = flat[lower] = w
    return out


def _pair_gradient(coords: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Row k is the sum over the unordered pairs {k, l} of w_kl (pi_k - pi_l):
    the pair weights go into a symmetric K x K matrix for pair_contract."""
    W = _pair_matrix(w, np.zeros((coords.shape[0],) * 2))
    return pair_contract(W, coords, coords)


def _disto_terms(metric: FiniteMetric, spec: DistanceSpec, fixed_scale: bool = False):
    """`disto_loss` bound to the metric: coords -> (value, s_star, grads).

    The work that does not depend on the coordinates is done here, once:
    the pair indices, the gathered costs and their positivity check, the
    normalizer and one K x K weight buffer, whose diagonal stays 0 and whose
    pairs every call overwrites. A prototype-only fit calls the result at
    every step; `coords` must have metric.size rows.
    """
    K = metric.size
    _, _, upper, _ = _upper_pairs(K)
    costs = _pair_costs(metric, upper)
    norm = 2.0 / (K * (K - 1))
    W = np.zeros((K, K))

    def terms(coords: np.ndarray):
        sq = geometry.pairwise_sqnorms(coords, coords).take(upper)
        d = dist_from_sqnorm(spec, sq)
        s = 1.0 if fixed_scale else l2_scale(d, costs)
        resid = (s * d - costs) / costs
        value = float(norm * np.sum(resid * resid))

        dvalue_dd = norm * 2.0 * resid * s / costs
        w = dvalue_dd * grad_weight_from_sqnorm(spec, sq)
        return value, float(s), pair_contract(_pair_matrix(w, W), coords, coords)

    return terms


def disto_loss(pi: PrototypeSet, metric: FiniteMetric, spec: DistanceSpec,
               fixed_scale: bool = False):
    """Smooth distortion surrogate with its optimal scale and gradients.

    Returns (value, s_star, grads). The scale is fitted in closed form
    (or pinned to 1 when fixed_scale) and treated as a constant in the
    gradient: the value of the inner minimum is differentiable wherever the
    minimizer is unique, so the partial derivative at s* is the gradient of
    the minimized objective (envelope property).

    This is the per-call form of the term `_disto_terms` binds once for a
    prototype-only fit; both give the same bits.
    """
    if metric.size != pi.size:
        raise ValueError(f"prototype count {pi.size} does not match metric size {metric.size}")
    return _disto_terms(metric, spec, fixed_scale)(pi.coords)


def sample_triplets(K: int, S: int, rng: np.random.Generator,
                    exhaustive: bool = False) -> TripletBatch:
    """S ordered distinct triples drawn uniformly with replacement.

    With exhaustive=True, returns all K(K-1)(K-2) ordered triples in
    lexicographic order and ignores S.
    """
    if K < 3:
        raise ValueError("triplet sampling needs at least 3 classes")
    if exhaustive:
        trips = np.array(list(itertools.permutations(range(K), 3)), dtype=np.intp)
        return TripletBatch(trips)
    if S < 1:
        raise ValueError("triplet count must be >= 1")
    k = rng.integers(0, K, size=S)
    l = (k + 1 + rng.integers(0, K - 1, size=S)) % K
    lo = np.minimum(k, l)
    hi = np.maximum(k, l)
    m = rng.integers(0, K - 2, size=S)
    m = m + (m >= lo)
    m = m + (m >= hi)
    return TripletBatch(np.stack([k, l, m], axis=1))


def _sigmoid(t: np.ndarray) -> np.ndarray:
    out = np.empty_like(t)
    pos = t >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-t[pos]))
    e = np.exp(t[~pos])
    out[~pos] = e / (1.0 + e)
    return out


def _softplus(t: np.ndarray) -> np.ndarray:
    # log(1 + exp(t)) without overflow
    return np.maximum(t, 0.0) + np.log1p(np.exp(-np.abs(t)))


def rank_loss(pi: PrototypeSet, metric: FiniteMetric, spec: DistanceSpec,
              batch: TripletBatch):
    """Pairwise-ranking regularizer over a triplet batch, with gradients.

    Per triple (k, l, m): the soft ranking R = sigmoid(d(pi_k, pi_l) -
    d(pi_k, pi_m)) is pushed towards the hard cost ranking Rbar, which is 1
    iff D[k,l] > D[k,m] and 0 otherwise (ties give Rbar = 0). Value is the
    mean binary cross-entropy; gradients are analytic.
    """
    if metric.size != pi.size:
        raise ValueError("prototype count does not match metric size")
    t = batch.triplets
    if t.max() >= pi.size:
        raise ValueError("triplet index out of range")
    P = pi.coords
    k, l, m = t[:, 0], t[:, 1], t[:, 2]

    diff_kl = P[k] - P[l]
    diff_km = P[k] - P[m]
    sq_kl = np.einsum("ij,ij->i", diff_kl, diff_kl)
    sq_km = np.einsum("ij,ij->i", diff_km, diff_km)
    gap = dist_from_sqnorm(spec, sq_kl) - dist_from_sqnorm(spec, sq_km)

    rbar = (metric.costs[k, l] > metric.costs[k, m]).astype(np.float64)
    # -[rbar*log(sig) + (1-rbar)*log(1-sig)] in softplus form
    per_triple = rbar * _softplus(-gap) + (1.0 - rbar) * _softplus(gap)
    value = float(per_triple.mean())

    dgap = (_sigmoid(gap) - rbar) / batch.size
    g_kl = (dgap * grad_weight_from_sqnorm(spec, sq_kl))[:, None] * diff_kl
    g_km = (dgap * grad_weight_from_sqnorm(spec, sq_km))[:, None] * diff_km
    # a scatter: S sampled triplets touch far fewer pairs than a dense K x K
    # pair_contract would sweep
    grads = np.zeros_like(P)
    np.add.at(grads, k, g_kl - g_km)
    np.add.at(grads, l, -g_kl)
    np.add.at(grads, m, g_km)
    return value, grads


def regularizer_loss(kind: str, pi: PrototypeSet, metric: FiniteMetric,
                     spec: DistanceSpec, rng: np.random.Generator | None = None,
                     triplet_count: int = 10, exhaustive: bool = False):
    """Value, fitted scale (None for "rank") and gradients of one regularizer.

    `kind` is "disto", "disto-fixed-scale" or "rank"; "rank" draws its
    triplets from `rng` (all of them when exhaustive).
    """
    if kind == "rank":
        if rng is None:
            raise ValueError("rank regularizer needs an rng for triplet sampling")
        batch = sample_triplets(pi.size, triplet_count, rng, exhaustive=exhaustive)
        value, grads = rank_loss(pi, metric, spec, batch)
        return value, None, grads
    if kind not in ("disto", "disto-fixed-scale"):
        raise ValueError(f"unknown regularizer '{kind}'")
    return disto_loss(pi, metric, spec, fixed_scale=kind == "disto-fixed-scale")


def _regularizer_term(kind: str, start: PrototypeSet, metric: FiniteMetric,
                      spec: DistanceSpec, rng: np.random.Generator | None = None,
                      triplet_count: int = 10, exhaustive: bool = False):
    """`regularizer_loss` bound once for the coordinates of prototype sets
    shaped like `start`: coords -> (value, s, grads), the same bits.

    The disto kinds build no PrototypeSet per call and do their metric-only
    work here; "rank" wraps each call's coordinates in a set as before.
    """
    if start.size != metric.size:
        raise ValueError(f"prototype count {start.size} does not match metric size "
                         f"{metric.size}")
    if kind == "rank":
        return lambda coords: regularizer_loss(kind, start.with_coords(coords), metric, spec,
                                               rng, triplet_count, exhaustive)
    if kind not in ("disto", "disto-fixed-scale"):
        raise ValueError(f"unknown regularizer '{kind}'")
    return _disto_terms(metric, spec, fixed_scale=kind == "disto-fixed-scale")


def distortion_report(pi: PrototypeSet, metric: FiniteMetric,
                      spec: DistanceSpec) -> DistortionReport:
    """All distortion diagnostics from one pass over the prototype pairs."""
    d, _, costs, _, _ = _pair_data(pi, metric, spec)
    s1 = _l1_scale(d / costs)
    return DistortionReport(
        distortion=_mean_relative_deviation(d, costs),
        scale_free_distortion=_mean_relative_deviation(d, costs, s1),
        s_star_l1=s1,
        s_star_l2=l2_scale(d, costs),
        pair_count=2 * d.size,
    )


LM_MIN_DECREASE = 1e-5  # lm_refine stops once a step gains less than this share
LM_CG_TOL = 0.1  # lm_refine's CG stops once |residual| <= LM_CG_TOL * |g|


def _jtj_product(coords: np.ndarray, W: np.ndarray, V: np.ndarray) -> np.ndarray:
    """J^T J V for lm_refine's Jacobian, with W[k, l] = 1 / (d_kl D_kl)^2
    (0 on the diagonal and on coincident pairs): (J V)_kl is
    (c_k - c_l).(v_k - v_l) / (d D), read off one K x K product, and J^T
    sends the pair values back with the same weights."""
    P = coords @ V.T  # P[k, l] = c_k . v_l
    p = np.diag(P)
    M = p[:, None] + p[None, :] - P - P.T
    return pair_contract(W * M, coords, coords)


def _jtj_blocks(coords: np.ndarray, W: np.ndarray) -> np.ndarray:
    """The (K, m, m) diagonal blocks of J^T J: block k is
    sum_l W[k, l] (c_k - c_l)(c_k - c_l)^T, its sum_l W c_l c_l^T term
    from one GEMM."""
    K, m = coords.shape
    WC = W @ coords
    outer = coords[:, :, None] * coords[:, None, :]
    blocks = (W @ outer.reshape(K, m * m)).reshape(K, m, m)
    blocks += W.sum(axis=1)[:, None, None] * outer
    blocks -= coords[:, :, None] * WC[:, None, :] + WC[:, :, None] * coords[:, None, :]
    return blocks


def _project_off_rigid_motions(coords: np.ndarray, delta: np.ndarray) -> np.ndarray:
    """`delta` less its least-squares part along the translations and the
    rotations about the centroid of `coords`, which change no distance.

    With C the centred coords, S = C^T C = Q diag(s) Q^T and B = Q^T (C^T
    delta - delta^T C) Q, the rotation generator closest to delta is C A
    with A = Q (B_ij / (s_i + s_j)) Q^T; the planes with s_i + s_j at most
    2e-10 max(s) move no point and are left out.
    """
    delta = delta - delta.mean(axis=0)
    C = coords - coords.mean(axis=0)
    s, Q = np.linalg.eigh(C.T @ C)
    X = C.T @ delta
    B = Q.T @ (X - X.T) @ Q
    pair = s[:, None] + s[None, :]
    keep = pair > 2e-10 * s[-1]
    B = np.divide(B, pair, out=np.zeros_like(B), where=keep)
    return delta - C @ (Q @ B @ Q.T)


def _cg_step(coords: np.ndarray, W: np.ndarray, g: np.ndarray, lam: float,
             blocks: np.ndarray) -> np.ndarray:
    """Solve (J^T J + lam I) delta = -g by conjugate gradients until the
    residual falls to LM_CG_TOL |g|, or for at most K*m iterations.

    Each row of the residual is preconditioned by the inverse of its block
    of J^T J plus lam I, and plus 1e-12 of the block's trace, which keeps
    the inverse off an exact zero pivot where lam is lost to rounding.
    """
    m = g.shape[1]
    floor = lam + 1e-12 * np.trace(blocks, axis1=1, axis2=2)
    inv = np.linalg.inv(blocks + floor[:, None, None] * np.eye(m))

    def precondition(R):
        return np.einsum("kij,kj->ki", inv, R)

    delta = np.zeros_like(g)
    R = -g
    Z = precondition(R)
    P = Z
    rz = float(np.vdot(R, Z))
    stop = LM_CG_TOL * float(np.linalg.norm(g))
    for _ in range(g.size):
        AP = _jtj_product(coords, W, P) + lam * P
        alpha = rz / float(np.vdot(P, AP))
        delta = delta + alpha * P
        R = R - alpha * AP
        if float(np.linalg.norm(R)) <= stop:
            break
        Z = precondition(R)
        rz, rz_old = float(np.vdot(R, Z)), rz
        P = Z + (rz / rz_old) * P
    return delta


def lm_refine(pi: PrototypeSet, metric: FiniteMetric, iters: int = 200) -> PrototypeSet:
    """Levenberg-Marquardt polish of a Euclidean embedding fit.

    Minimizes the relative pair residuals (d - D/s)/D with the l2 scale s of
    the starting set folded into the targets; first-order steps stall in the
    flat valleys of exactly-embeddable metrics, LM does not.

    Each step solves (J^T J + lam I) delta = -g, g = J^T r, by conjugate
    gradients that never form J^T J (Steihaug 1983's truncated Newton step):
    with a = (c_k - c_l) / (d D) the row of pair (k, l), J^T J v takes two
    K x K products (`_jtj_product`), and the preconditioner is the m x m
    diagonal blocks of J^T J plus lam I (`_jtj_blocks`). CG stops once its
    residual is below LM_CG_TOL times |g|, or after K*m iterations. The
    step is then projected off the rigid motions (translations and
    rotations), which J^T J leaves undamped but for lam: otherwise rounding
    in g moves the result along them. Memory is O(K^2 + K m^2) and a CG
    iteration O(K^2 m). g is the pair gradient of the weights r / (d D), 0
    on a coincident pair, as is every J^T J weight there.

    The polish stops after `iters` steps, when g is 0 or no damping gives a
    descent, when the objective falls below 1e-30, or when an accepted step
    lowers it by less than LM_MIN_DECREASE times its value (the
    relative-decrease stop of Madsen, Nielsen & Tingleff 2004, sec. 3.2). On
    the 100-leaf tree at dim 4 the steps past that point lower the objective
    by under 1% and move the L1 scale-free distortion, which this polish
    does not minimize, by under 0.5% in either direction; on an exactly
    embeddable metric the quadratic convergence never trips the rule.
    """
    K = pi.size
    _, _, t, iu, ju = _pair_data(pi, metric, DistanceSpec())

    def loss(c):
        d = np.sqrt(geometry.pair_sqnorms(c, c, iu, ju))
        r = (d - target) / t
        return 0.5 * float(r @ r), r, d

    coords = pi.coords
    target = t / l2_scale(np.sqrt(geometry.pair_sqnorms(coords, coords, iu, ju)), t)
    val, r, d = loss(coords)
    lam = 1e-3
    stalled = False
    for _ in range(iters):
        dt = d * t
        w = np.divide(r, dt, out=np.zeros_like(r), where=d > 0)
        g = _pair_gradient(coords, w)
        if not g.any():
            break
        W = _pair_matrix(np.divide(1.0, dt * dt, out=np.zeros_like(dt), where=d > 0),
                         np.zeros((K, K)))
        blocks = _jtj_blocks(coords, W)
        accepted = False
        while lam <= 1e14:
            delta = _project_off_rigid_motions(coords, _cg_step(coords, W, g, lam, blocks))
            cand = coords + delta
            v2, r2, d2 = loss(cand)
            if v2 < val:
                stalled = val - v2 < LM_MIN_DECREASE * val
                coords, val, r, d = cand, v2, r2, d2
                lam = max(lam / 3.0, 1e-12)
                accepted = True
                break
            lam *= 3.0
        if not accepted or stalled or val < 1e-30:
            break
    return pi.with_coords(coords)


def fit_prototypes(metric: FiniteMetric, spec: DistanceSpec, regularizer: str,
                   rng: np.random.Generator, coords: np.ndarray, steps: int, lr: float,
                   triplets: int = 10) -> np.ndarray:
    """Fit prototypes to the cost metric alone; returns the (K, m) coordinates.

    Adam takes `steps` full-batch steps on the regularizer ("disto",
    "disto-fixed-scale" or "rank") from `coords`, which is left as it is,
    with its learning rate decayed linearly from `lr` towards 0 for a tight
    fit. "rank" draws `triplets` triples per step from `rng`, or takes all
    of them when K(K-1)(K-2) <= 2000. A Euclidean "disto" fit ends with the
    `lm_refine` polish. Raises TrainingDivergedError, naming the step, once
    a coordinate stops being finite.
    """
    start = PrototypeSet(coords, tuple(range(len(coords))))
    K = metric.size
    loss = _regularizer_term(regularizer, start, metric, spec, rng, triplets,
                             exhaustive=K * (K - 1) * (K - 2) <= 2000)
    coords = np.array(start.coords)
    opt = make_optimizer(OptimizerSpec(lr=lr))
    for step in range(steps):
        opt.lr = lr * (1.0 - step / steps)
        _, _, grads = loss(coords)
        opt.step({"proto": coords}, {"proto": grads})
        if not np.all(np.isfinite(coords)):
            raise TrainingDivergedError(f"non-finite prototypes at step {step + 1}")
    del loss  # frees the bound term's K x K buffer before the polish allocates its own
    if regularizer == "disto" and spec.kind == EUCLIDEAN:
        return lm_refine(start.with_coords(coords), metric).coords
    return coords
