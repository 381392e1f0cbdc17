"""Shared builders and independent oracles for the test suite."""

import numpy as np
import pytest

import protometric as pm
from protometric import geometry
from protometric.distortion import l2_scale, regularizer_loss
from protometric.geometry import EUCLIDEAN, DistanceSpec, dist_from_sqnorm, grad_weight_from_sqnorm

# Six nodes, three leaves; the toy hierarchy used across the suite.
TOY_EDGE_LIST = "a1\tA\na2\tA\nb1\tB\nA\troot\nB\troot\n"


@pytest.fixture
def toy_tax():
    return pm.parse_taxonomy(TOY_EDGE_LIST)


def random_tree_text(n_nodes: int, rng: np.random.Generator,
                     weighted: bool = False) -> str:
    """Edge-list text of a random rooted tree (node 0 is the root)."""
    assert n_nodes >= 2
    lines = []
    for i in range(1, n_nodes):
        parent = int(rng.integers(0, i))
        if weighted:
            w = float(rng.uniform(0.5, 2.0))
            lines.append(f"n{i}\tn{parent}\t{w!r}")
        else:
            lines.append(f"n{i}\tn{parent}")
    return "\n".join(lines) + "\n"


def random_taxonomy(n_nodes: int, rng: np.random.Generator,
                    weighted: bool = False) -> pm.Taxonomy:
    return pm.parse_taxonomy(random_tree_text(n_nodes, rng, weighted))


def random_taxonomy_with_leaves(n_leaves: int, rng: np.random.Generator) -> pm.Taxonomy:
    """Random tree with exactly n_leaves leaf nodes."""
    assert n_leaves >= 2
    n_internal = 1 + int(rng.integers(0, max(1, n_leaves // 2)))
    parents = [None] + [int(rng.integers(0, i)) for i in range(1, n_internal)]
    children = [0] * n_internal
    for p in parents[1:]:
        children[p] += 1
    lines = [f"I{i}\tI{parents[i]}" for i in range(1, n_internal)]
    hosts = [i for i in range(n_internal) if children[i] == 0]
    assert len(hosts) <= n_leaves
    for k in range(n_leaves):
        host = hosts[k] if k < len(hosts) else int(rng.integers(0, n_internal))
        lines.append(f"L{k}\tI{host}")
    return pm.parse_taxonomy("\n".join(lines) + "\n")


def random_leaf_metric(n_leaves: int, rng: np.random.Generator) -> pm.FiniteMetric:
    return pm.cost_matrix(random_taxonomy_with_leaves(n_leaves, rng))


def bfs_tree_distances(tax: pm.Taxonomy) -> np.ndarray:
    """All-pairs distances by breadth-first traversal of the tree adjacency.

    Independent of the ancestor-chain computation in cost_matrix.
    """
    n = tax.n_nodes
    adj = [[] for _ in range(n)]
    for node in tax.nodes:
        if node.parent is not None:
            adj[node.node_id].append((node.parent, node.weight))
            adj[node.parent].append((node.node_id, node.weight))
    D = np.full((n, n), np.inf)
    for src in range(n):
        D[src, src] = 0.0
        frontier = [src]
        while frontier:
            nxt = []
            for u in frontier:
                for v, w in adj[u]:
                    if np.isinf(D[src, v]):
                        D[src, v] = D[src, u] + w
                        nxt.append(v)
            frontier = nxt
    return D


def grid_search_scale(alpha: np.ndarray, n_points: int = 10_000):
    """(best_s, best_f) of f(s) = sum |s*alpha - 1| over a log-spaced grid."""
    positive = alpha[alpha > 0]
    lo = 1e-2 / alpha.max()
    hi = 1e2 / positive.min()
    grid = np.geomspace(lo, hi, n_points)
    f = np.abs(grid[:, None] * alpha[None, :] - 1.0).sum(axis=1)
    best = int(np.argmin(f))
    return float(grid[best]), float(f[best])


def scaled_l1_sum(alpha: np.ndarray, s: float) -> float:
    return float(np.abs(s * alpha - 1.0).sum())


def random_prototype_instance(K: int, m: int, rng: np.random.Generator):
    """(PrototypeSet, tree-derived FiniteMetric) with K classes in R^m."""
    metric = random_leaf_metric(K, rng)
    coords = rng.standard_normal((K, m))
    return pm.PrototypeSet(coords, tuple(range(K))), metric


# ---------------------------------------------------------------------------
# Scalar distance reference for the vectorised kernels in protometric.geometry
# ---------------------------------------------------------------------------

class NonDifferentiableError(ArithmeticError):
    """Euclidean gradient requested at coincident points.

    The vectorised kernels substitute a zero vector there (a valid
    subgradient at the kink); the scalar reference raises instead.
    """


def _check_pair(u: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if u.shape != v.shape or u.ndim != 1:
        raise ValueError(f"dimension mismatch: {u.shape} vs {v.shape}")
    return u, v


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


def pairwise_distances(spec: DistanceSpec, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """(n, k) matrix of d(X[i], Y[j]), from the explicit-difference oracle."""
    return dist_from_sqnorm(spec, one_shot_sqnorms(X, Y))


# ---------------------------------------------------------------------------
# The kernels that geometry.pair_contract and geometry.pairwise_sqnorms
# replaced, kept as their oracles
# ---------------------------------------------------------------------------

def one_shot_sqnorms(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """(n, k) squared norms from one (n, k, m) difference tensor: the
    explicit-difference kernel that pairwise_sqnorms matches at each row
    minimum and within relative TAU elsewhere, and pair_sqnorms matches
    everywhere."""
    diff = np.asarray(X, dtype=np.float64)[:, None, :] - np.asarray(Y, dtype=np.float64)[None]
    return np.einsum("nkm,nkm->nk", diff, diff)


def _pair_geometry(coords: np.ndarray):
    iu, ju = np.triu_indices(coords.shape[0], k=1)
    diff = coords[iu] - coords[ju]
    return iu, ju, diff, np.einsum("ij,ij->i", diff, diff)


def scatter_disto_loss(pi: pm.PrototypeSet, metric: pm.FiniteMetric, spec: DistanceSpec,
                       fixed_scale: bool = False):
    """(value, s, grads, w) of disto_loss, each pair's gradient w (pi_k - pi_l)
    scattered onto its two prototypes; w are the pair weights in triu order."""
    iu, ju, diff, sq = _pair_geometry(pi.coords)
    costs = metric.costs[iu, ju]
    d = dist_from_sqnorm(spec, sq)
    s = 1.0 if fixed_scale else l2_scale(d, costs)
    resid = (s * d - costs) / costs
    norm = 2.0 / (pi.size * (pi.size - 1))
    w = norm * 2.0 * resid * s / costs * grad_weight_from_sqnorm(spec, sq)
    grads = np.zeros_like(pi.coords)
    np.add.at(grads, iu, w[:, None] * diff)
    np.add.at(grads, ju, -w[:, None] * diff)
    return float(norm * np.sum(resid * resid)), s, grads, w


def triu_disto_loss(pi: pm.PrototypeSet, metric: pm.FiniteMetric, spec: DistanceSpec,
                    fixed_scale: bool = False):
    """disto_loss as it was before the metric-bound term, kept as its bit
    for bit oracle: 2-D gathers of the upper triangle on every call and a
    fresh K x K weight matrix filled by 2-D fancy writes."""
    K = pi.size
    iu, ju = np.triu_indices(K, k=1)
    costs = metric.costs[iu, ju]
    if np.any(costs <= 0):
        raise ValueError("cost matrix has a zero or negative off-diagonal entry")
    sq = geometry.pairwise_sqnorms(pi.coords, pi.coords)[iu, ju]
    d = dist_from_sqnorm(spec, sq)
    s = 1.0 if fixed_scale else l2_scale(d, costs)
    resid = (s * d - costs) / costs
    norm = 2.0 / (K * (K - 1))
    value = float(norm * np.sum(resid * resid))

    dvalue_dd = norm * 2.0 * resid * s / costs
    w = dvalue_dd * grad_weight_from_sqnorm(spec, sq)
    W = np.zeros((K, K))
    W[iu, ju] = W[ju, iu] = w
    return value, float(s), geometry.pair_contract(W, pi.coords, pi.coords)


def triu_regularizer_loss(kind, pi, metric, spec, rng=None, triplet_count=10,
                          exhaustive=False):
    """regularizer_loss with the disto kinds from `triu_disto_loss`."""
    if kind == "rank":
        return regularizer_loss(kind, pi, metric, spec, rng, triplet_count, exhaustive)
    return triu_disto_loss(pi, metric, spec, fixed_scale=kind == "disto-fixed-scale")


def scatter_lm_gradient(coords: np.ndarray, target: np.ndarray, costs: np.ndarray):
    """(g, w) of lm_refine at `coords`: g = J^T r scattered as +-a r per pair,
    a = unit_kl / D_kl, for pair targets and costs in triu order; w = r / (d D)
    are the pair weights (0 on a coincident pair, where a is 0)."""
    iu, ju, diff, sq = _pair_geometry(coords)
    d = np.sqrt(sq)
    r = (d - target) / costs
    a = diff / np.maximum(d[:, None], 1e-300) / costs[:, None]
    g = np.zeros_like(coords)
    np.add.at(g, iu, a * r[:, None])
    np.add.at(g, ju, -a * r[:, None])
    return g, r / np.maximum(d, 1e-300) / costs * (d > 0)
