"""Distance kinds on the embedding space, evaluated from squared norms.

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


@dataclass(frozen=True)
class DistanceSpec(Record):
    kind: str = EUCLIDEAN
    delta: float = 0.1  # Huber parameter, embedding-space units

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown distance kind '{self.kind}'")
        if self.kind == HUBER and not self.delta > 0:
            raise ValueError("huber distance needs delta > 0")


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

    For the Euclidean kind the weight at sq == 0 is set to 0, a valid
    subgradient at the kink.
    """
    sq = np.asarray(sq, dtype=np.float64)
    if spec.kind == EUCLIDEAN:
        with np.errstate(divide="ignore"):
            w = 1.0 / np.sqrt(sq)
        return np.where(sq > 0, w, 0.0)
    if spec.kind == SQUARED_EUCLIDEAN:
        return np.full_like(sq, 2.0)
    return 1.0 / np.sqrt(sq + spec.delta * spec.delta)


BUDGET = 1 << 20  # bytes of one block's difference temporary in pairwise_sqnorms


def pairwise_sqnorms(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """(n, k) squared Euclidean norms between rows of X and rows of Y.

    Computed as explicit differences rather than the expanded dot-product
    identity: exact zeros for identical rows matter for tie handling. The
    differences are taken a block of rows at a time, so the temporary stays
    near BUDGET bytes; each output row depends on its input row alone, so
    the result does not depend on the block size.
    """
    X = np.asarray(X, dtype=np.float64)
    Y = np.asarray(Y, dtype=np.float64)
    if X.shape[1] != Y.shape[1]:
        raise ValueError(f"dimension mismatch: {X.shape[1]} vs {Y.shape[1]}")
    (n, m), k = X.shape, Y.shape[0]
    out = np.empty((n, k))
    rows = max(1, BUDGET // max(1, 8 * k * m))
    for start in range(0, n, rows):
        diff = X[start:start + rows, None, :] - Y[None, :, :]
        out[start:start + rows] = np.einsum("nkm,nkm->nk", diff, diff)
    return out


def pair_contract(C: np.ndarray, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Row i is sum_j C[i, j] * (A[i] - B[j]): one row sum and one GEMM
    instead of a scatter over the (i, j) pairs.

    With C[i, j] = dL/dd(A[i], B[j]) times the grad_weight_from_sqnorm
    weight, this is the gradient of L with respect to A. The two terms
    cancel where A[i] is close to B[j], so an entry C[i, j] adds rounding of
    order eps * |C[i, j]| * |A[i]| instead of eps * |C[i, j]| * |A[i] - B[j]|:
    a zero weight is exact, a huge one is not.
    """
    return C.sum(axis=1)[:, None] * A - C @ B
