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


def _indices(values, field: str) -> np.ndarray:
    """`values` as an intp array; a boolean or non-integer entry, which the
    cast would turn into an index silently, raises a ValueError naming `field`."""
    a = np.asarray(values)
    if a.size and (a.dtype.kind not in "iu" or not isinstance(values, np.ndarray) and {
            bool, np.bool_} & set(map(type, np.asarray(values, dtype=object).flat))):
        raise ValueError(f"{field} must be integers, not booleans or floats")
    return a.astype(np.intp)


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
        class_map = tuple(_indices(self.class_map, "class_map").tolist())
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
        t = _indices(self.triplets, "triplets")
        if t.ndim != 2 or t.shape[1] != 3:
            raise ValueError("triplets must be an (S, 3) array")
        if t.shape[0] == 0:
            raise ValueError("empty triplet batch")
        if (t < 0).any():
            raise ValueError("triplet indices must be >= 0")
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
    """Unordered-pair distances and costs, in triu order."""
    if metric.size != pi.size:
        raise ValueError(f"prototype count {pi.size} does not match metric size {metric.size}")
    _, _, upper, _ = _upper_pairs(pi.size)
    sq = geometry.pairwise_sqnorms(pi.coords, pi.coords).take(upper)
    return dist_from_sqnorm(spec, sq), _pair_costs(metric, upper)


def _mean_relative_deviation(d: np.ndarray, costs: np.ndarray, s: float = 1.0) -> float:
    """Mean of |s*d - D| / D; over unordered pairs it equals the ordered-pair mean."""
    return float(np.mean(np.abs(s * d - costs) / costs))


def distortion(pi: PrototypeSet, metric: FiniteMetric, spec: DistanceSpec) -> float:
    """Mean over ordered pairs of |d(pi_k, pi_l) - D[k,l]| / D[k,l].

    Fits no scale, so unlike s* it is defined on coincident prototypes.
    """
    d, costs = _pair_data(pi, metric, spec)
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


def disto_loss(pi: PrototypeSet, metric: FiniteMetric, spec: DistanceSpec,
               fixed_scale: bool = False):
    """Smooth distortion surrogate with its optimal scale and gradients.

    Returns (value, s_star, grads). The scale is fitted in closed form
    (or pinned to 1 when fixed_scale) and treated as a constant in the
    gradient: the value of the inner minimum is differentiable wherever the
    minimizer is unique, so the partial derivative at s* is the gradient of
    the minimized objective (envelope property).

    This is the per-call form of the term `_fit_terms` binds once for a
    prototype-only fit; both give the same bits.
    """
    if metric.size != pi.size:
        raise ValueError(f"prototype count {pi.size} does not match metric size {metric.size}")
    return _fit_terms("disto-fixed-scale" if fixed_scale else "disto", metric, spec)(pi.coords)


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


def _ranking(gap: np.ndarray, rbar: np.ndarray):
    """Per triple, the binary cross-entropy of the soft ranking sigmoid(gap)
    against the hard one rbar (0 or 1), in softplus form without overflow,
    and its derivative sigmoid(gap) - rbar in the gap, as -sigmoid(-gap) at
    rbar = 1, which keeps it relatively accurate where the ranking saturates."""
    e = np.exp(-np.abs(gap))
    log1p = np.log1p(e)
    value = rbar * (np.maximum(-gap, 0.0) + log1p) + (1.0 - rbar) * (np.maximum(gap, 0.0) + log1p)
    up, down = np.exp(np.minimum(gap, 0.0)) / (1.0 + e), np.exp(np.minimum(-gap, 0.0)) / (1.0 + e)
    return value, (1.0 - rbar) * up - rbar * down


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
    per_triple, dgap = _ranking(gap, rbar)
    dgap = dgap / batch.size
    g_kl = (dgap * grad_weight_from_sqnorm(spec, sq_kl))[:, None] * diff_kl
    g_km = (dgap * grad_weight_from_sqnorm(spec, sq_km))[:, None] * diff_km
    # a scatter: S sampled triplets touch far fewer pairs than a dense K x K
    # pair_contract would sweep
    grads = np.zeros_like(P)
    np.add.at(grads, k, g_kl - g_km)
    np.add.at(grads, l, -g_kl)
    np.add.at(grads, m, g_km)
    return float(per_triple.mean()), grads


def _fit_terms(kind: str, metric: FiniteMetric, spec: DistanceSpec,
               rng: np.random.Generator | None = None, triplets: int = 10):
    """The regularizer `kind` of a prototype-only fit bound to the metric:
    coords -> (value, s_star, grads), s_star None for "rank".

    A call takes one distance pass, turns the pair distances into a value
    and a derivative per unordered pair, and contracts those into the
    gradients through one K x K buffer bound here. The disto kinds give the
    bits of `disto_loss`. "rank" adds to `rank_loss` the mean over the self
    triples (k, l, k), the Rbar = 1 term at gap d_kl, without which a fit
    run to convergence puts sibling prototypes on one point. Its triples,
    all K(K-1)(K-2) bound here when there are at most 2000, else `triplets`
    drawn from `rng` per call, reach their pairs through one `np.bincount`.
    """
    K = metric.size
    _, _, upper, _ = _upper_pairs(K)
    P = upper.size
    if kind == "rank":
        if rng is None:
            raise ValueError("rank regularizer needs an rng for triplet sampling")
        slot = _pair_matrix(np.arange(P), np.zeros((K, K), np.intp)).reshape(-1)

        def bind(t):  # the self triples go last; their (k, k) takes slot P, at distance 0
            kl, km = t[:, 0] * K + t[:, 1], t[:, 0] * K + t[:, 2]
            ends = np.concatenate([slot.take(kl), np.arange(P), slot.take(km), np.full(P, P)])
            rbar = np.concatenate([metric.costs.take(kl) > metric.costs.take(km), np.ones(P)])
            return ends, rbar, np.repeat([1.0 / len(t), 1.0 / P], [len(t), P])

        exhaustive = K * (K - 1) * (K - 2) <= 2000
        bound = bind(sample_triplets(K, triplets, rng, True).triplets) if exhaustive else None

        def pair_terms(d):
            ends, rbar, share = bound or bind(sample_triplets(K, triplets, rng).triplets)
            ends_d = np.append(d, 0.0).take(ends)
            value, dgap = _ranking(ends_d[:rbar.size] - ends_d[rbar.size:], rbar)
            dgap *= share
            dvalue_dd = np.bincount(ends, np.concatenate([dgap, -dgap]), minlength=P + 1)
            return float(value @ share), None, dvalue_dd[:P]
    elif kind in ("disto", "disto-fixed-scale"):
        costs = _pair_costs(metric, upper)
        norm = 2.0 / (K * (K - 1))

        def pair_terms(d):
            s = 1.0 if kind == "disto-fixed-scale" else l2_scale(d, costs)
            resid = (s * d - costs) / costs
            return float(norm * np.sum(resid * resid)), float(s), norm * 2.0 * resid * s / costs
    else:
        raise ValueError(f"unknown regularizer '{kind}'")
    W = np.zeros((K, K))

    def terms(coords: np.ndarray):
        sq = geometry.pairwise_sqnorms(coords, coords).take(upper)
        value, s, dvalue_dd = pair_terms(dist_from_sqnorm(spec, sq))
        w = dvalue_dd * grad_weight_from_sqnorm(spec, sq)
        return value, s, pair_contract(_pair_matrix(w, W), coords, coords)

    return terms


def distortion_report(pi: PrototypeSet, metric: FiniteMetric,
                      spec: DistanceSpec) -> DistortionReport:
    """All distortion diagnostics from one pass over the prototype pairs."""
    d, costs = _pair_data(pi, metric, spec)
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


def _cg_step(coords: np.ndarray, W: np.ndarray, g: np.ndarray, lam: float) -> np.ndarray:
    """Solve (J^T J + lam I) delta = -g by conjugate gradients until the
    residual falls to LM_CG_TOL |g|, or for at most K*m iterations."""
    delta = np.zeros_like(g)
    R = -g
    P = R
    rr = float(np.vdot(R, R))
    stop = LM_CG_TOL * float(np.linalg.norm(g))
    for _ in range(g.size):
        AP = _jtj_product(coords, W, P) + lam * P
        alpha = rr / float(np.vdot(P, AP))
        delta = delta + alpha * P
        R = R - alpha * AP
        rr, rr_old = float(np.vdot(R, R)), rr
        if np.sqrt(rr) <= stop:
            break
        P = R + (rr / rr_old) * P
    return delta


def lm_refine(pi: PrototypeSet, metric: FiniteMetric, iters: int = 200) -> PrototypeSet:
    """Levenberg-Marquardt polish of a Euclidean embedding fit.

    Minimizes the relative pair residuals (d - D/s)/D with the l2 scale s of
    the starting set folded into the targets; first-order steps stall in the
    flat valleys of exactly-embeddable metrics, LM does not.

    Each step solves (J^T J + lam I) delta = -g, g = J^T r, by plain
    conjugate gradients (Hestenes & Stiefel 1952) that never form J^T J
    (Steihaug 1983's truncated Newton step): with a = (c_k - c_l) / (d D)
    the row of pair (k, l), J^T J v takes two K x K products
    (`_jtj_product`). CG stops once its residual is below LM_CG_TOL times
    |g|, or after K*m iterations. Its iterates stay in the Krylov space of
    g under J^T J, which lies in range(J^T) and so is orthogonal to every
    rigid motion (translation or rotation): J^T J leaves those undamped but
    for lam, and the step does not move along them. Memory is O(K^2 + K m)
    beside the objective's pair differences, which `pair_sqnorms` takes a
    block at a time, and a CG iteration costs O(K^2 m). g is the pair
    gradient of the weights r / (d D), 0 on a coincident pair, as is every
    J^T J weight there.

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
    if metric.size != K:
        raise ValueError(f"prototype count {K} does not match metric size {metric.size}")
    iu, ju, upper, _ = _upper_pairs(K)
    t = _pair_costs(metric, upper)

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
        accepted = False
        while lam <= 1e14:
            cand = coords + _cg_step(coords, W, g, lam)
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
                   rng: np.random.Generator, coords: np.ndarray, steps: int = 3000,
                   lr: float = 0.05, triplets: int = 10) -> np.ndarray:
    """Fit prototypes to the cost metric alone; returns the (K, m) coordinates.

    Adam takes `steps` full-batch steps on the regularizer ("disto",
    "disto-fixed-scale" or "rank") from `coords`, which is left as it is,
    with its learning rate decayed linearly from `lr` towards 0 for a tight
    fit, on the term `_fit_terms` binds to the metric once: "rank" takes all
    triples, or draws `triplets` of them per step from `rng`, and adds the
    self triples, which keep sibling prototypes apart. A Euclidean "disto"
    fit ends with the `lm_refine` polish. Raises TrainingDivergedError,
    naming the step, once a coordinate stops being finite, or when the last
    step leaves a distance that is not.

    The defaults are `embed`'s; the `fixed-proto` schedule's first stage
    runs with them.
    """
    start = PrototypeSet(coords, tuple(range(len(coords))))
    if start.size != metric.size:
        raise ValueError(f"prototype count {start.size} does not match metric size {metric.size}")
    loss = _fit_terms(regularizer, metric, spec, rng, triplets)
    coords = np.array(start.coords)
    opt = make_optimizer(OptimizerSpec(lr=lr))
    for step in range(steps):
        opt.lr = lr * (1.0 - step / steps)
        _, _, grads = loss(coords)
        opt.step({"proto": coords}, {"proto": grads})
        if not np.all(np.isfinite(coords)):
            raise TrainingDivergedError(f"non-finite prototypes at step {step + 1}")
    # the loop sees overflowing distances only through the next step's
    # gradient; the last step's are checked here, without evaluating the
    # loss, which for "rank" would draw from rng
    if not np.all(np.isfinite(geometry.pairwise_sqnorms(coords, coords))):
        raise TrainingDivergedError(f"non-finite prototype distances at step {steps}")
    del loss  # frees the bound term's K x K buffer before the polish allocates its own
    if regularizer == "disto" and spec.kind == EUCLIDEAN:
        return lm_refine(start.with_coords(coords), metric).coords
    return coords
