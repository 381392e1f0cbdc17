"""Distance kinds on the embedding space, evaluated from squared norms.

Three kinds are supported: the Euclidean norm, its square, and a smoothed
("Huberized") Euclidean norm

    H(x) = delta * (sqrt(|x|^2 / delta^2 + 1) - 1)

which matches |x| - delta asymptotically and |x|^2 / (2 delta) near zero.
All three are strictly increasing functions of the Euclidean norm, which
downstream nearest-prototype search relies on.

Squared norms come from one kernel, `pairwise_sqnorms`, for every pair of
two row sets: the dot-product expansion, whose cross term is a GEMM (the
posterior alone uses the row-independent einsum), with the entries that
expansion cannot get to relative accuracy TAU recomputed from explicit
differences by `pair_sqnorms`. Every entry is then within relative TAU of the
explicit-difference value, and each row minimum, its lowest-index argmin
and each exact zero equal it bit for bit. `pair_contract` turns per-pair
weights into row gradients.
"""

from __future__ import annotations

import numpy as np

from .formats import EUCLIDEAN, SQUARED_EUCLIDEAN, DistanceSpec


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


# bytes of one block: of pair differences in pair_sqnorms, and of (rows, K)
# floats in model.leaf_posterior
BUDGET = 1 << 20
TAU = 2.0 ** -40  # relative accuracy of every pairwise_sqnorms entry


def pairwise_sqnorms(X: np.ndarray, Y: np.ndarray, *, row_independent: bool = False) -> np.ndarray:
    """(n, k) squared Euclidean norms between rows of X and rows of Y.

    Computed by the expansion |x|^2 + |y|^2 - 2 x.y. The cross term is a
    GEMM, `X @ Y.T`, which may round a row differently beside other rows.
    With `row_independent` it comes from `einsum` instead, several times
    slower: each output row then depends on its input row alone, so a row
    computed alone equals the same row inside a batch. The posterior alone
    asks for that. The only temporaries beyond the (n, k) result are
    O(n + k) norms, an (n, k) mask and one `pair_sqnorms` block.

    The expansion cancels where x is close to y, so every entry it cannot
    vouch for is recomputed from explicit differences by `pair_sqnorms`:
    each entry near its row minimum, which keeps what nearest-prototype
    decisions and ties depend on equal to the explicit-difference kernel bit
    for bit (each row minimum, the lowest index attaining it, and the exact
    zero of coincident rows), and each entry small against the norms, which
    keeps every entry within relative TAU of that kernel.

    The bound. Let u = eps / 2 be the unit roundoff, s = |x|^2 + |y|^2 and
    t = |x - y|^2 <= 2 s. With gamma_j = j u / (1 - j u), the explicit
    differences round to within gamma_{m+2} t <= 2 gamma_{m+2} s of t (one
    subtraction, one square and m - 1 additions per term). The expansion
    rounds |x|^2, |y|^2 and x.y to within gamma_m of their absolute sums in
    any summation order, so on either path (Higham, Accuracy and Stability
    of Numerical Algorithms, sec. 3.1). That costs at most
    gamma_m (|x| + |y|)^2 <= 2 gamma_m s, and its two additions add
    u (|x|^2 + 2 |x.y|) + u t <= 4 u s more, to first order. So
    the two kernels differ by at most about E = (4m + 8) u s, within

        B = 2 (m + 4) (eps (|x|^2 + max_j |y_j|^2) + 2^-1073)

    per row, whose slack of 8 u s also covers the rounding of B and of the
    window test; the last term covers gradual underflow, where each of the
    at most 5m products loses up to 2^-1075 absolutely.

    The window. An entry is recomputed unless it is computed above
    max(row minimum + 2B, B / TAU); one mask pass, and B / TAU is exact, TAU
    being a power of two. The minimum: the entry attaining the
    explicit-difference row minimum o is computed at most B above o and the
    computed row minimum lies at most B below it, so every entry attaining
    o lies within 2B of the computed row minimum and is recomputed; every
    entry left out is computed more than B above o, so its explicit value
    exceeds o and can neither attain nor tie the minimum. The relative
    accuracy: an entry computed as c > B / TAU has an explicit value
    t >= c - E > B / TAU - E, so TAU t > B - TAU E >= E (B - E >= 8 u s
    exceeds TAU E for any m below 2^40), and |c - t| <= E < TAU t. A row
    holding a NaN is recomputed whole.

    TAU = 2^-40, about 9.1e-13, sets the trade. The window's second term is
    (m + 4) 2^-11 s, so only pairs closer than a few percent of the squared
    norms pay for a recompute, and none did on trained prototypes; the
    distances (relative TAU / 2) and every mean, scale and ratio built from
    them stay two orders inside the 1e-10 that the artifact sweep allows.
    """
    X = np.asarray(X, dtype=np.float64)
    Y = np.asarray(Y, dtype=np.float64)
    if X.shape[1] != Y.shape[1]:
        raise ValueError(f"dimension mismatch: {X.shape[1]} vs {Y.shape[1]}")
    (n, m), k = X.shape, Y.shape[0]
    if n == 0 or k == 0:
        return np.zeros((n, k))
    x2 = np.einsum("im,im->i", X, X)
    y2 = np.einsum("km,km->k", Y, Y)
    out = np.einsum("im,km->ik", X, Y) if row_independent else X @ Y.T
    out *= -2.0
    out += x2[:, None]
    out += y2
    bound = 2 * (m + 4) * (np.finfo(np.float64).eps * (x2 + y2.max()) + 2.0 ** -1073)
    window = np.maximum(out.min(axis=1) + 2 * bound, bound / TAU)
    i, j = np.nonzero(~(out > window[:, None]))  # NaN rows fail every test
    out[i, j] = pair_sqnorms(X, Y, i, j)
    return out


def pair_sqnorms(X: np.ndarray, Y: np.ndarray, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """|X[i[p]] - Y[j[p]]|^2 for each p, from explicit differences.

    The differences are taken about BUDGET bytes of pairs at a time; each
    entry depends on its own pair alone, so the result does not depend on
    the block size and is bit-equal to the same entry of an (n, k, m)
    difference tensor. The rows are gathered by `take`, which copies the
    same values as fancy indexing at a fraction of its cost for short rows.
    """
    X = np.asarray(X, dtype=np.float64)
    Y = np.asarray(Y, dtype=np.float64)
    out = np.empty(len(i))
    step = max(1, BUDGET // max(1, 8 * X.shape[1]))
    for start in range(0, len(i), step):
        diff = X.take(i[start:start + step], axis=0) - Y.take(j[start:start + step], axis=0)
        out[start:start + step] = np.einsum("pm,pm->p", diff, diff)
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
