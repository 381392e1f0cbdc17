"""Distance functions on the embedding space, with analytic gradients.

Three kinds are supported: the Euclidean norm, its square, and a smoothed
("Huberized") Euclidean norm

    H(x) = delta * (sqrt(|x|^2 / delta^2 + 1) - 1)

which matches |x| - delta asymptotically and |x|^2 / (2 delta) near zero.
All three are strictly increasing functions of the Euclidean norm, which
downstream nearest-prototype search relies on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .formats import Record

EUCLIDEAN = "euclidean"
SQUARED_EUCLIDEAN = "squared-euclidean"
HUBER = "huber"
_KINDS = (EUCLIDEAN, SQUARED_EUCLIDEAN, HUBER)


class NonDifferentiableError(ArithmeticError):
    """Euclidean gradient requested at coincident points.

    Caller policy decides what to do; the trainer substitutes a zero vector
    (a valid subgradient at the kink).
    """


@dataclass(frozen=True)
class DistanceSpec(Record):
    kind: str = EUCLIDEAN
    delta: float = 0.1  # Huber parameter, embedding-space units

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown distance kind '{self.kind}'")
        if self.kind == HUBER and not self.delta > 0:
            raise ValueError("huber distance needs delta > 0")


def _check_pair(u: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if u.shape != v.shape or u.ndim != 1:
        raise ValueError(f"dimension mismatch: {u.shape} vs {v.shape}")
    return u, v


def dist_from_sqnorm(spec: DistanceSpec, sq):
    """Distance value(s) from squared Euclidean norm(s) of the difference.

    The Huber branch uses sq / (sqrt(sq + delta^2) + delta), algebraically
    identical to the defining formula but free of cancellation for sq ≪ delta^2.
    """
    sq = np.asarray(sq, dtype=np.float64)
    if spec.kind == EUCLIDEAN:
        return np.sqrt(sq)
    if spec.kind == SQUARED_EUCLIDEAN:
        return sq
    d2 = spec.delta * spec.delta
    return sq / (np.sqrt(sq + d2) + spec.delta)


def grad_weight_from_sqnorm(spec: DistanceSpec, sq):
    """w such that grad_u d(u, v) = w * (u - v), from squared norms.

    For the Euclidean kind the weight at sq == 0 is set to 0 (subgradient
    choice); the scalar `distance_gradient` below raises instead, so callers
    that need to detect the kink still can.
    """
    sq = np.asarray(sq, dtype=np.float64)
    if spec.kind == EUCLIDEAN:
        with np.errstate(divide="ignore"):
            w = 1.0 / np.sqrt(sq)
        return np.where(sq > 0, w, 0.0)
    if spec.kind == SQUARED_EUCLIDEAN:
        return np.full_like(sq, 2.0)
    return 1.0 / np.sqrt(sq + spec.delta * spec.delta)


def distance(spec: DistanceSpec, u, v) -> float:
    """d(u, v) for the given kind; 0 iff u == v, symmetric in (u, v)."""
    u, v = _check_pair(u, v)
    diff = u - v
    return float(dist_from_sqnorm(spec, diff @ diff))


def distance_gradient(spec: DistanceSpec, u, v) -> tuple[np.ndarray, np.ndarray]:
    """Analytic (grad_u, grad_v) of distance(spec, u, v); grad_v = -grad_u."""
    u, v = _check_pair(u, v)
    diff = u - v
    sq = diff @ diff
    if spec.kind == EUCLIDEAN and sq == 0.0:
        raise NonDifferentiableError("euclidean distance is non-differentiable at u == v")
    g = grad_weight_from_sqnorm(spec, sq) * diff
    return g, -g


def pairwise_sqnorms(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """(n, k) squared Euclidean norms between rows of X and rows of Y.

    Computed as explicit differences rather than the expanded dot-product
    identity: exact zeros for identical rows matter for tie handling.
    """
    X = np.asarray(X, dtype=np.float64)
    Y = np.asarray(Y, dtype=np.float64)
    if X.shape[1] != Y.shape[1]:
        raise ValueError(f"dimension mismatch: {X.shape[1]} vs {Y.shape[1]}")
    diff = X[:, None, :] - Y[None, :, :]
    return np.einsum("nkm,nkm->nk", diff, diff)


def pairwise_distances(spec: DistanceSpec, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """(n, k) matrix of d(X[i], Y[j])."""
    return dist_from_sqnorm(spec, pairwise_sqnorms(X, Y))
