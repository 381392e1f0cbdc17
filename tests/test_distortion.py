import contextlib
import importlib
import itertools
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize_scalar

import protometric as pm
from protometric import DegeneratePrototypesError, DistanceSpec, FiniteMetric, PrototypeSet
from protometric.distortion import (LM_MIN_DECREASE, _cg_step, _fit_terms, _jtj_product,
                                    _ranking, _upper_pairs, l2_scale, lm_refine)
from protometric.geometry import TAU, dist_from_sqnorm, grad_weight_from_sqnorm

from conftest import (grid_search_scale, one_shot_sqnorms, pairwise_distances,
                      random_leaf_metric, random_prototype_instance, scaled_l1_sum,
                      scatter_disto_loss, scatter_lm_gradient, scatter_rank_fit, self_rank_loss,
                      triu_disto_loss)

EUC = DistanceSpec("euclidean")


def uniform_metric(K):
    D = np.ones((K, K)) - np.eye(K)
    return FiniteMetric(tuple(f"c{i}" for i in range(K)), D)


def pair_ratios(pi, metric):
    iu, ju = np.triu_indices(pi.size, k=1)
    diff = pi.coords[iu] - pi.coords[ju]
    d = np.sqrt(np.einsum("ij,ij->i", diff, diff))
    return d / metric.costs[iu, ju], d, metric.costs[iu, ju]


class TestDistortion:
    def test_exact_isometry_is_zero(self):
        metric = FiniteMetric(("a", "b"), np.array([[0.0, 2.0], [2.0, 0.0]]))
        pi = PrototypeSet(np.array([[0.0, 0.0], [2.0, 0.0]]), (0, 1))
        assert pm.distortion(pi, metric, EUC) == 0.0

    def test_half_relative_gap(self):
        metric = FiniteMetric(("a", "b"), np.array([[0.0, 2.0], [2.0, 0.0]]))
        pi = PrototypeSet(np.array([[0.0, 0.0], [1.0, 0.0]]), (0, 1))
        assert pm.distortion(pi, metric, EUC) == pytest.approx(0.5)

    def test_matches_double_loop_oracle(self):
        rng = np.random.default_rng(0)
        pi, metric = random_prototype_instance(6, 3, rng)
        total = 0.0
        K = pi.size
        for k in range(K):          # ordered pairs, straight from the formula
            for l in range(K):
                if k == l:
                    continue
                d = float(np.linalg.norm(pi.coords[k] - pi.coords[l]))
                total += abs(d - metric.costs[k, l]) / metric.costs[k, l]
        oracle = total / (K * (K - 1))
        assert pm.distortion(pi, metric, EUC) == pytest.approx(oracle, rel=1e-12)

    def test_coincident_prototypes_fit_no_scale(self):
        metric = uniform_metric(3)
        pi = PrototypeSet(np.zeros((3, 2)), (0, 1, 2))
        assert pm.distortion(pi, metric, EUC) == 1.0
        with pytest.raises(DegeneratePrototypesError):
            pm.distortion_report(pi, metric, EUC)

    def test_zero_offdiagonal_cost_rejected(self):
        metric = FiniteMetric(("a", "b"), np.zeros((2, 2)))
        pi = PrototypeSet(np.eye(2), (0, 1))
        with pytest.raises(ValueError, match="off-diagonal"):
            pm.distortion(pi, metric, EUC)

    def test_dimension_mismatch(self):
        metric = uniform_metric(3)
        pi = PrototypeSet(np.eye(2), (0, 1))
        with pytest.raises(ValueError, match="match"):
            pm.distortion(pi, metric, EUC)


class TestOptimalScaleL1:
    def test_single_pair_is_inverse_ratio(self):
        metric = FiniteMetric(("a", "b"), np.array([[0.0, 2.0], [2.0, 0.0]]))
        pi = PrototypeSet(np.array([[0.0, 0.0], [0.5, 0.0]]), (0, 1))
        # alpha = 0.25, so s* = 4 and the scaled distortion vanishes
        assert pm.optimal_scale_l1(pi, metric, EUC) == pytest.approx(4.0)
        assert pm.scale_free_distortion(pi, metric, EUC) == pytest.approx(0.0, abs=1e-15)

    def test_ratio_multiset_1_1_2(self):
        # collinear prototypes at 0, 1, 2 against the uniform metric:
        # ratios {1, 1, 2}, cumulative rule picks the second, s* = 1
        pi = PrototypeSet(np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]]), (0, 1, 2))
        metric = uniform_metric(3)
        s = pm.optimal_scale_l1(pi, metric, EUC)
        assert s == pytest.approx(1.0)
        alpha, _, _ = pair_ratios(pi, metric)
        assert scaled_l1_sum(alpha, s) == pytest.approx(1.0)
        grid_s, grid_f = grid_search_scale(alpha)
        assert scaled_l1_sum(alpha, s) <= grid_f + 1e-9

    def test_beats_grid_search_on_random_instances(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            K = int(rng.integers(3, 10))
            pi, metric = random_prototype_instance(K, int(rng.integers(2, 6)), rng)
            alpha, _, _ = pair_ratios(pi, metric)
            s = pm.optimal_scale_l1(pi, metric, EUC)
            _, grid_f = grid_search_scale(alpha)
            assert scaled_l1_sum(alpha, s) <= grid_f + 1e-9

    def test_subgradient_certificate(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            pi, metric = random_prototype_instance(int(rng.integers(3, 9)), 3, rng)
            alpha, _, _ = pair_ratios(pi, metric)
            s = pm.optimal_scale_l1(pi, metric, EUC)
            scaled = s * alpha
            kink = np.abs(scaled - 1.0) <= 1e-12
            below = float(alpha[(scaled < 1.0) & ~kink].sum())
            above = float(alpha[(scaled > 1.0) & ~kink].sum())
            assert abs(above - below) <= alpha[kink].sum() + 1e-9

    def test_degenerate_prototypes(self):
        metric = uniform_metric(3)
        pi = PrototypeSet(np.zeros((3, 2)), (0, 1, 2))
        with pytest.raises(DegeneratePrototypesError):
            pm.optimal_scale_l1(pi, metric, EUC)


class TestScaleFreeDistortion:
    def test_two_prototypes_always_scalable(self):
        rng = np.random.default_rng(3)
        metric = FiniteMetric(("a", "b"), np.array([[0.0, 3.0], [3.0, 0.0]]))
        for _ in range(10):
            pi = PrototypeSet(rng.standard_normal((2, 4)), (0, 1))
            assert pm.scale_free_distortion(pi, metric, EUC) == pytest.approx(0.0, abs=1e-12)

    def test_ratio_multiset_value_one_third(self):
        pi = PrototypeSet(np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]]), (0, 1, 2))
        metric = uniform_metric(3)
        got = pm.scale_free_distortion(pi, metric, EUC)
        assert got == pytest.approx(1.0 / 3.0, rel=1e-12)
        # grid-search oracle over the scale confirms no better s exists
        alpha, _, _ = pair_ratios(pi, metric)
        _, grid_f = grid_search_scale(alpha)
        assert got * 6 / 2 <= grid_f + 1e-9  # 6 ordered pairs, each unordered twice

    def test_scaled_isometry_is_zero(self):
        rng = np.random.default_rng(4)
        coords = rng.standard_normal((5, 4))
        D = np.sqrt(((coords[:, None] - coords[None, :]) ** 2).sum(-1))
        metric = FiniteMetric(tuple("abcde"), D)
        pi = PrototypeSet(coords * 7.0, (0, 1, 2, 3, 4))
        assert pm.scale_free_distortion(pi, metric, EUC) == pytest.approx(0.0, abs=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10_000), st.sampled_from([0.01, 0.5, 1.0, 100.0]))
    def test_invariant_under_rescaling(self, seed, c):
        rng = np.random.default_rng(seed)
        pi, metric = random_prototype_instance(int(rng.integers(3, 8)), 3, rng)
        base = pm.scale_free_distortion(pi, metric, EUC)
        scaled = pm.scale_free_distortion(pi.with_coords(pi.coords * c), metric, EUC)
        assert abs(base - scaled) <= 1e-10

    def test_never_exceeds_plain_distortion(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            pi, metric = random_prototype_instance(int(rng.integers(3, 8)), 4, rng)
            assert (pm.scale_free_distortion(pi, metric, EUC)
                    <= pm.distortion(pi, metric, EUC) + 1e-12)


class TestDistoLoss:
    def test_closed_form_scale_on_ratio_pair(self):
        # ratios {1, 2}: s* = (1+2)/(1+4) = 0.6, and a 1-D numeric
        # minimizer of the inner problem lands on the same point
        d = np.array([1.0, 2.0])
        D = np.array([1.0, 1.0])
        assert l2_scale(d, D) == pytest.approx(0.6, rel=1e-12)
        res = minimize_scalar(lambda s: np.sum(((s * d - D) / D) ** 2),
                              bounds=(1e-3, 1e3), method="bounded",
                              options={"xatol": 1e-12})
        assert res.x == pytest.approx(0.6, rel=1e-6)

    def test_exact_isometry_is_minimum(self):
        rng = np.random.default_rng(6)
        coords = rng.standard_normal((4, 3))
        D = np.sqrt(((coords[:, None] - coords[None, :]) ** 2).sum(-1))
        metric = FiniteMetric(tuple("abcd"), D)
        pi = PrototypeSet(coords, (0, 1, 2, 3))
        value, s, grads = pm.disto_loss(pi, metric, EUC)
        assert value == pytest.approx(0.0, abs=1e-24)
        assert s == pytest.approx(1.0, rel=1e-12)
        np.testing.assert_allclose(grads, 0.0, atol=1e-12)

    def test_gradients_match_reminimized_objective(self):
        # finite differences re-solve the inner scale problem at every probe,
        # so agreement validates the envelope treatment of s*
        rng = np.random.default_rng(7)
        pi, metric = random_prototype_instance(5, 3, rng)

        def evaluate(flat):
            p = pi.with_coords(flat.reshape(5, 3))
            value, _, grads = pm.disto_loss(p, metric, EUC)
            return value, grads.ravel()

        err = pm.finite_difference_check(evaluate, pi.coords.ravel())
        assert err < 1e-4

    def test_fixed_scale_dominates_optimal(self):
        rng = np.random.default_rng(8)
        for _ in range(40):
            pi, metric = random_prototype_instance(int(rng.integers(3, 8)), 3, rng)
            free, _, _ = pm.disto_loss(pi, metric, EUC)
            pinned, s, _ = pm.disto_loss(pi, metric, EUC, fixed_scale=True)
            assert s == 1.0
            assert pinned >= free - 1e-15

    def test_l2_scale_degenerate(self):
        with pytest.raises(DegeneratePrototypesError):
            l2_scale(np.zeros(3), np.ones(3))


LAYOUTS = ("random", "coincident", "grid")


def layout_coords(rng, K, m, layout):
    """(K, m) prototypes: normal draws; normal draws with repeated rows; those
    rows each moved by about 1e-9 ("near"); or points of the grid
    {-1, 0, 1}^m, full of equal distances and exact zeros. Rows 0 and 1
    always differ, so the scale stays defined."""
    if layout == "grid":
        coords = rng.integers(-1, 2, (K, m)).astype(np.float64)
    else:
        coords = rng.standard_normal((K, m))
        if layout in ("coincident", "near"):
            coords[2:] = coords[rng.integers(0, K, K - 2)]
        if layout == "near":
            coords[2:] += 1e-9 * rng.standard_normal((K - 2, m))
    coords[1] = coords[0] + 1.0
    return coords


def assert_matches_scatter(got, want, coords, w, moved=0.0):
    """Within 1e-12 of the largest term the contraction sums: it adds K terms
    of up to |w| |coords| per row, which cancel to rounding wherever the
    gradient vanishes, so |want| alone does not bound the error there. Row k
    may move by `moved[k]` more, where the pair weights themselves moved."""
    terms = coords.shape[0] * np.abs(w).max() * np.abs(coords).max()
    allowed = 1e-12 * max(np.abs(want).max(), terms) + np.reshape(moved, (-1, 1))
    assert np.all(np.abs(got - want) <= allowed)


class TestPairKernelsAgainstScatter:
    """The K x K pair_contract gradients against the scatter they replaced."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(2, 40), st.integers(1, 8),
           st.sampled_from([EUC, DistanceSpec("squared-euclidean"),
                            DistanceSpec("huber", delta=0.5)]),
           st.sampled_from(LAYOUTS), st.booleans())
    @example(0, 2, 1, EUC, "grid", False)
    @example(1, 40, 1, EUC, "coincident", False)
    def test_disto_loss(self, seed, K, m, spec, layout, fixed_scale):
        rng = np.random.default_rng(seed)
        metric = random_leaf_metric(K, rng)
        pi = PrototypeSet(layout_coords(rng, K, m, layout), tuple(range(K)))
        value, s, grads = pm.disto_loss(pi, metric, spec, fixed_scale)
        want_value, want_s, want_grads, w = scatter_disto_loss(pi, metric, spec, fixed_scale)
        # Every squared norm is within relative TAU of explicit differences,
        # so every distance d is too: the square root halves the error and
        # the Huber form does not raise it. The scale sum(d/D) / sum((d/D)^2)
        # then moves by at most 3 TAU relative and each s*d by 4 TAU, so each
        # residual r = (s*d - D)/D moves by at most e = 4 TAU |r + 1|, and the
        # value norm * sum(r^2) by at most norm * sum(2 |r| e + e^2). Each
        # pair weight w = norm * 2 r s / D * g, g its grad_weight_from_sqnorm
        # factor (within TAU), moves by at most norm * 2 s / D * g * (e +
        # 4 TAU |r|), and row k of the gradient by the sum over its pairs of
        # that times |pi_k - pi_l|. Twice TAU covers the terms of higher order
        # and the rounding.
        tau = 2 * TAU
        iu, ju = np.triu_indices(K, k=1)
        costs = metric.costs[iu, ju]
        sq = one_shot_sqnorms(pi.coords, pi.coords)[iu, ju]
        r = (want_s * dist_from_sqnorm(spec, sq) - costs) / costs
        e = 4 * tau * np.abs(r + 1)
        norm = 2.0 / (K * (K - 1))
        assert abs(s - want_s) <= 3 * tau * want_s
        assert abs(value - want_value) <= norm * np.sum(2 * np.abs(r) * e + e * e)
        g = grad_weight_from_sqnorm(spec, sq)
        dw = norm * 2 * want_s / costs * g * (e + 4 * tau * np.abs(r))
        moved = np.zeros((K, K))
        moved[iu, ju] = moved[ju, iu] = dw * np.sqrt(sq)
        assert_matches_scatter(grads, want_grads, pi.coords, w, moved.sum(axis=1))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(3, 40), st.integers(1, 8),
           st.sampled_from([EUC, DistanceSpec("squared-euclidean"),
                            DistanceSpec("huber", delta=0.5)]),
           st.sampled_from(LAYOUTS + ("near",)), st.integers(1, 20))
    @example(0, 3, 1, EUC, "coincident", 1)
    @example(1, 13, 4, EUC, "near", 10)  # the most classes with every triple bound
    @example(2, 14, 3, DistanceSpec("huber", delta=0.5), "grid", 7)  # the fewest sampled
    def test_bound_rank_term(self, seed, K, m, spec, layout, triplets):
        rng = np.random.default_rng(seed)
        metric = random_leaf_metric(K, rng)
        pi = PrototypeSet(layout_coords(rng, K, m, layout), tuple(range(K)))
        rng_a, rng_b = np.random.default_rng(seed + 1), np.random.default_rng(seed + 1)
        exhaustive = K * (K - 1) * (K - 2) <= 2000
        term = _fit_terms("rank", metric, spec, rng_a, triplets)
        term(rng.standard_normal((K, m)))  # the reused weight buffer keeps nothing
        pm.sample_triplets(K, triplets, rng_b, exhaustive)  # the twins stay in step
        value, s, grads = term(pi.coords)
        batch = pm.sample_triplets(K, triplets, rng_b, exhaustive)
        want, want_grads, w, dvalue, dw = scatter_rank_fit(pi, metric, spec, batch)
        assert s is None
        assert rng_a.integers(0, 2**62) == rng_b.integers(0, 2**62)
        assert abs(value - want) <= 1e-12 * want + dvalue
        iu, ju = np.triu_indices(K, k=1)
        moved = np.zeros((K, K))
        moved[iu, ju] = moved[ju, iu] = dw * pairwise_distances(EUC, pi.coords, pi.coords)[iu, ju]
        assert_matches_scatter(grads, want_grads, pi.coords, w, moved.sum(axis=1))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(2, 40), st.integers(1, 6),
           st.sampled_from(LAYOUTS))
    @example(0, 3, 2, "coincident")
    def test_lm_refine_gradient(self, seed, K, m, layout):
        rng = np.random.default_rng(seed)
        metric = random_leaf_metric(K, rng)
        pi = PrototypeSet(layout_coords(rng, K, m, layout), tuple(range(K)))
        iu, ju = np.triu_indices(K, k=1)
        costs = metric.costs[iu, ju]
        target = costs / l2_scale(pairwise_distances(EUC, pi.coords, pi.coords)[iu, ju], costs)
        seen = []

        def spy(coords, *args):
            g = pair_gradient(coords, *args)
            seen.append((coords, g))
            return g

        module = importlib.import_module("protometric.distortion")  # pm.distortion is a function
        pair_gradient = module._pair_gradient
        with mock.patch.object(module, "_pair_gradient", spy):
            lm_refine(pi, metric, iters=3)
        assert seen
        for coords, g in seen:  # one g per accepted step
            want, w = scatter_lm_gradient(coords, target, costs)
            assert_matches_scatter(g, want, coords, w)


@pytest.mark.parametrize("K", [2, 3, 7, 100])
def test_upper_pairs_flat_indices(K):
    iu, ju, upper, lower = _upper_pairs(K)
    want_iu, want_ju = np.triu_indices(K, k=1)
    np.testing.assert_array_equal(iu, want_iu)
    np.testing.assert_array_equal(ju, want_ju)
    W = np.arange(K * K, dtype=np.float64).reshape(K, K)
    np.testing.assert_array_equal(W.take(upper), W[iu, ju])
    np.testing.assert_array_equal(W.take(lower), W[ju, iu])
    for index in (iu, ju, upper, lower):
        with pytest.raises(ValueError, match="read-only"):
            index[0] = 0


class TestBoundDistoTerm:
    """`disto_loss` and the term `_fit_terms` binds, bit for bit against
    the 2-D gathers and the fresh weight matrix they replaced."""

    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(2, 40), st.integers(1, 8),
           st.sampled_from([EUC, DistanceSpec("squared-euclidean"),
                            DistanceSpec("huber", delta=0.5)]),
           st.sampled_from(LAYOUTS + ("near",)), st.booleans())
    @example(0, 2, 1, EUC, "grid", False)
    @example(1, 40, 4, EUC, "near", False)
    @example(2, 30, 2, DistanceSpec("huber", delta=0.5), "near", True)
    def test_equals_triangle_oracle(self, seed, K, m, spec, layout, fixed_scale):
        rng = np.random.default_rng(seed)
        metric = random_leaf_metric(K, rng)
        pi = PrototypeSet(layout_coords(rng, K, m, layout), tuple(range(K)))
        want = triu_disto_loss(pi, metric, spec, fixed_scale)
        term = _fit_terms("disto-fixed-scale" if fixed_scale else "disto", metric, spec)
        term(rng.standard_normal((K, m)))  # the reused weight buffer keeps nothing
        for got in (pm.disto_loss(pi, metric, spec, fixed_scale), term(pi.coords)):
            assert got[:2] == want[:2]
            np.testing.assert_array_equal(got[2], want[2])

    def test_zero_cost_rejected_when_bound(self):
        costs = np.ones((3, 3)) - np.eye(3)
        costs[0, 2] = costs[2, 0] = 0.0
        metric = FiniteMetric(("a", "b", "c"), costs)
        coords = np.eye(3)
        for fit in (lambda: _fit_terms("disto", metric, EUC),
                    lambda: pm.disto_loss(PrototypeSet(coords, (0, 1, 2)), metric, EUC),
                    lambda: pm.fit_prototypes(metric, EUC, "disto", None, coords, 5, 0.05)):
            with pytest.raises(ValueError, match="zero or negative off-diagonal entry"):
                fit()


def embed_loop(metric, spec, regularizer, rng, coords, steps, lr, triplets=10):
    """`embed`'s fit as it was before `fit_prototypes`, kept as its oracle: a
    fresh PrototypeSet and a regularizer call at every step, the disto kinds
    in their 2-D gather form, "rank" as `rank_loss` of a fresh batch plus
    `self_rank_loss`."""
    K = metric.size
    class_map = tuple(range(K))
    exhaustive = K * (K - 1) * (K - 2) <= 2000
    opt = pm.make_optimizer(pm.OptimizerSpec(lr=lr))
    for step in range(steps):
        opt.lr = lr * (1.0 - step / steps)
        pi = PrototypeSet(coords, class_map)
        if regularizer == "rank":
            batch = pm.sample_triplets(K, triplets, rng, exhaustive)
            grads = pm.rank_loss(pi, metric, spec, batch)[1] + self_rank_loss(coords, spec)[1]
        else:
            grads = triu_disto_loss(pi, metric, spec, regularizer == "disto-fixed-scale")[2]
        opt.step({"proto": coords}, {"proto": grads})
        if not np.all(np.isfinite(coords)):
            raise pm.TrainingDivergedError(f"non-finite prototypes at step {step + 1}")
    pi = PrototypeSet(coords, class_map)
    if regularizer == "disto" and spec.kind == "euclidean":
        pi = lm_refine(pi, metric)
    return pi.coords


class TestFitPrototypes:
    # 15 nodes, 11 leaves: the leaves take every rank triple (990 <= 2000),
    # all nodes a sample of them
    TREE = pm.parse_taxonomy("".join(f"{p}{i}\t{p}\n" for p, n in (("A", 4), ("B", 4), ("C", 3))
                                     for i in range(n)) + "A\troot\nB\troot\nC\troot\n")

    @staticmethod
    def _start(seed, K, dim):
        """The rng and start of `embed --seed seed`: normals, then the rng."""
        rng = np.random.default_rng(seed)
        return rng, rng.standard_normal((K, dim))

    def _both(self, metric, spec, regularizer, seed, dim, steps=80, lr=0.05):
        rng, start = self._start(seed, metric.size, dim)
        got = pm.fit_prototypes(metric, spec, regularizer, rng, start, steps, lr, 7)
        rng, start_again = self._start(seed, metric.size, dim)
        np.testing.assert_array_equal(start, start_again)  # left as it was
        want = embed_loop(metric, spec, regularizer, rng, start_again, steps, lr, 7)
        return got, want

    @pytest.mark.parametrize("spec", [EUC, DistanceSpec("squared-euclidean"),
                                      DistanceSpec("huber", delta=0.3)])
    @pytest.mark.parametrize("nodes", ["leaves-only", "all-nodes"])
    @pytest.mark.parametrize("dim", [1, 2, 4])
    def test_disto_equals_embed_loop(self, spec, nodes, dim):
        metric = pm.cost_matrix(self.TREE, nodes)
        for seed in (0, 1):
            got, want = self._both(metric, spec, "disto", seed, dim)
            np.testing.assert_array_equal(got, want)

    def test_disto_fixed_scale_equals_embed_loop(self):
        metric = pm.cost_matrix(self.TREE)
        got, want = self._both(metric, EUC, "disto-fixed-scale", 3, 2)
        np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("nodes", ["leaves-only", "all-nodes"])  # exhaustive, sampled
    def test_rank_equals_embed_loop(self, nodes):
        metric = pm.cost_matrix(self.TREE, nodes)
        for seed in (0, 1):
            got, want = self._both(metric, EUC, "rank", seed, 2, steps=40)
            # the bound term sums the triples and the self triples in one
            # bincount and takes its distances from the expansion, so each
            # gradient moves by ulps of its largest entry; 40 Adam steps
            # carried that to 4.3e-16 of the largest coordinate
            assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    def test_rank_needs_an_rng(self):
        metric = pm.cost_matrix(self.TREE)
        coords = np.random.default_rng(0).standard_normal((metric.size, 2))
        for fit in (lambda: _fit_terms("rank", metric, EUC),
                    lambda: pm.fit_prototypes(metric, EUC, "rank", None, coords, 5, 0.05)):
            with pytest.raises(ValueError, match="rank regularizer needs an rng"):
                fit()

    def test_rank_keeps_siblings_apart(self):
        # no triple of distinct classes holds a sibling pair apart: without
        # the self triples the fit puts each pair of sibling leaves on one point
        tax = pm.parse_taxonomy("".join(f"{c}\t{p}\n" for p, kids in (
            ("root", "AB"), ("A", ("A1", "A2")), ("B", ("B1", "B2")), ("A1", "ab"),
            ("A2", "cd"), ("B1", "ef"), ("B2", "gh")) for c in kids))
        metric = pm.cost_matrix(tax)
        iu, ju = np.triu_indices(metric.size, k=1)
        sibling = metric.costs[iu, ju] == metric.costs[iu, ju].min()
        for seed in (0, 1):
            rng, start = self._start(seed, metric.size, 16)
            coords = pm.fit_prototypes(metric, EUC, "rank", rng, start, steps=1000)
            d = pairwise_distances(EUC, coords, coords)[iu, ju]
            assert d[sibling].min() > 0.25 * d[~sibling].min()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_names_the_step(self):
        metric = pm.cost_matrix(self.TREE)
        with pytest.raises(pm.TrainingDivergedError) as got:
            self._both(metric, EUC, "disto", 0, 2, steps=20, lr=1e300)
        rng, start = self._start(0, metric.size, 2)
        with pytest.raises(pm.TrainingDivergedError) as want:
            embed_loop(metric, EUC, "disto", rng, start, 20, 1e300)
        assert str(got.value) == str(want.value) == "non-finite prototypes at step 2"

    def test_rejects_a_start_of_the_wrong_size(self):
        metric = pm.cost_matrix(self.TREE)
        with pytest.raises(ValueError, match="does not match metric size"):
            pm.fit_prototypes(metric, EUC, "disto", None, np.ones((3, 2)), 5, 0.05)


class TestSampleTriplets:
    def test_exhaustive_k3(self):
        batch = pm.sample_triplets(3, 6, np.random.default_rng(0), exhaustive=True)
        assert batch.size == 6
        assert {tuple(t) for t in batch.triplets} == {
            (0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)}

    def test_deterministic_under_seed(self):
        a = pm.sample_triplets(8, 40, np.random.default_rng(123))
        b = pm.sample_triplets(8, 40, np.random.default_rng(123))
        np.testing.assert_array_equal(a.triplets, b.triplets)

    def test_members_distinct(self):
        batch = pm.sample_triplets(5, 500, np.random.default_rng(1))
        t = batch.triplets
        assert (t[:, 0] != t[:, 1]).all()
        assert (t[:, 1] != t[:, 2]).all()
        assert (t[:, 0] != t[:, 2]).all()

    def test_uniformity_chi_square(self):
        # frequencies over all K(K-1)(K-2) triples within 3 sigma of uniform
        K, S = 10, 100_000
        batch = pm.sample_triplets(K, S, np.random.default_rng(2))
        n_cells = K * (K - 1) * (K - 2)
        codes = (batch.triplets[:, 0] * K + batch.triplets[:, 1]) * K + batch.triplets[:, 2]
        counts = np.bincount(codes, minlength=K ** 3)
        occupied = counts[counts > 0]
        assert occupied.size == n_cells
        expected = S / n_cells
        sigma = np.sqrt(expected * (1 - 1 / n_cells))
        assert np.all(np.abs(occupied - expected) <= 3 * sigma + 1e-9) or (
            # allow a few 3-sigma cells, bound the chi-square statistic instead
            float(((counts[counts > 0] - expected) ** 2 / expected).sum())
            < n_cells + 5 * np.sqrt(2 * n_cells))

    def test_too_few_classes(self):
        with pytest.raises(ValueError):
            pm.sample_triplets(2, 5, np.random.default_rng(0))


class TestRankLoss:
    def test_equal_distances_give_log_two(self):
        # d(pi_k, pi_l) == d(pi_k, pi_m) -> soft ranking 0.5 -> loss ln 2
        coords = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        metric = uniform_metric(3)
        batch = pm.TripletBatch(np.array([[0, 1, 2]]))
        value, _ = pm.rank_loss(PrototypeSet(coords, (0, 1, 2)), metric, EUC, batch)
        assert value == pytest.approx(np.log(2.0), rel=1e-12)

    def test_saturated_correct_ordering(self):
        # margin +20 on a correctly ordered pair drives the loss below 1e-8
        coords = np.array([[0.0], [25.0], [1.0]])
        D = np.array([[0.0, 4.0, 1.0], [4.0, 0.0, 3.0], [1.0, 3.0, 0.0]])
        metric = FiniteMetric(("a", "b", "c"), D)
        batch = pm.TripletBatch(np.array([[0, 1, 2]]))  # D[0,1] > D[0,2], d gap +24
        value, _ = pm.rank_loss(PrototypeSet(coords, (0, 1, 2)), metric, EUC, batch)
        assert value < 1e-8

    def test_saturated_derivative_keeps_relative_accuracy(self):
        # at Rbar = 1 the derivative sigmoid(gap) - 1 is -e/(1 + e), e = exp(-gap);
        # taken as that difference it cancels, to exactly 0 from gap ~ 37 on
        gap = np.array([30.0, 36.0, 40.0, 100.0, 700.0])
        e = np.exp(-gap)
        _, dgap = _ranking(gap, np.ones(gap.size))
        np.testing.assert_allclose(dgap, -e / (1.0 + e), rtol=1e-15, atol=0)

    def test_tied_costs_count_as_not_greater(self):
        # D[k,l] == D[k,m] gives hard ranking 0, pushing d(k,l) below d(k,m)
        coords = np.array([[0.0], [2.0], [1.0]])
        metric = uniform_metric(3)
        batch = pm.TripletBatch(np.array([[0, 1, 2]]))
        value, _ = pm.rank_loss(PrototypeSet(coords, (0, 1, 2)), metric, EUC, batch)
        gap = 2.0 - 1.0
        expected = np.log1p(np.exp(gap))  # softplus(gap), the Rbar = 0 branch
        assert value == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("spec", [EUC, DistanceSpec("squared-euclidean"),
                                      DistanceSpec("huber", delta=0.3)])
    def test_self_triples(self, spec):
        # a fit's term: every triple of 6 classes, bound, so each call is the
        # same function, plus the triples (k, l, k): hard ranking 1 (D[k,l] >
        # D[k,k] = 0), gap d_kl
        rng = np.random.default_rng(11)
        pi, metric = random_prototype_instance(6, 3, rng)
        term = _fit_terms("rank", metric, spec, rng)
        d = pairwise_distances(spec, pi.coords, pi.coords)[~np.eye(6, dtype=bool)]
        batch = pm.sample_triplets(6, 1, rng, exhaustive=True)
        want = pm.rank_loss(pi, metric, spec, batch)[0] + np.mean(np.log1p(np.exp(-d)))
        assert term(pi.coords)[0] == pytest.approx(want, rel=1e-12)

        def evaluate(flat):
            value, _, grads = term(flat.reshape(6, 3))
            return value, grads.ravel()

        assert pm.finite_difference_check(evaluate, pi.coords.ravel()) < 1e-4

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(9)
        pi, metric = random_prototype_instance(6, 3, rng)
        batch = pm.sample_triplets(6, 25, rng)

        def evaluate(flat):
            p = pi.with_coords(flat.reshape(6, 3))
            value, grads = pm.rank_loss(p, metric, EUC, batch)
            return value, grads.ravel()

        assert pm.finite_difference_check(evaluate, pi.coords.ravel()) < 1e-4

    def test_hard_rankings_invariant_under_rescaling(self):
        rng = np.random.default_rng(10)
        pi, metric = random_prototype_instance(5, 3, rng)
        batch = pm.sample_triplets(5, 40, rng)
        t = batch.triplets

        def soft_rankings(p):
            d = pairwise_distances(EUC, p.coords, p.coords)
            return 1.0 / (1.0 + np.exp(-(d[t[:, 0], t[:, 1]] - d[t[:, 0], t[:, 2]])))

        base = soft_rankings(pi) > 0.5
        for c in (0.01, 3.0, 250.0):
            scaled = soft_rankings(pi.with_coords(pi.coords * c)) > 0.5
            np.testing.assert_array_equal(base, scaled)

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            pm.TripletBatch(np.zeros((0, 3), dtype=int))

    def test_negative_index_rejected(self):
        # -1 would read as class K-1: on 3 classes the same loss as (0, 1, 2)
        for row in ([0, 1, -1], [-3, 1, 2]):
            with pytest.raises(ValueError, match="triplet indices must be >= 0"):
                pm.TripletBatch(np.array([row]))

    def test_non_integer_index_rejected(self):
        # the cast to indices would read (0, 1.7, 2.9) and (True, False, 2) as
        # (0, 1, 2) and (1, 0, 2)
        for triplets in (np.array([[0.0, 1.7, 2.9]]), [[True, False, 2]], [[0, 1.0, 2]],
                         np.array([[True, False, True]])):
            with pytest.raises(ValueError, match="triplets must be integers"):
                pm.TripletBatch(triplets)
        for class_map in ((0, 1.5, 2.9), (True, 1, 2), np.array([0.0, 1.0, 2.0])):
            with pytest.raises(ValueError, match="class_map must be integers"):
                PrototypeSet(np.eye(3), class_map)
        assert pm.TripletBatch(np.array([[2, 0, 1]], np.int32)).triplets.tolist() == [[2, 0, 1]]
        assert PrototypeSet(np.eye(3), np.arange(3, dtype=np.uint8)).class_map == (0, 1, 2)


class TestPermutationEquivariance:
    def test_losses_permute_with_classes(self):
        rng = np.random.default_rng(11)
        K, m = 5, 3
        pi, metric = random_prototype_instance(K, m, rng)
        perm = rng.permutation(K)
        pi_p = PrototypeSet(pi.coords[perm], tuple(range(K)))
        metric_p = FiniteMetric(tuple(metric.class_names[i] for i in perm),
                                metric.costs[np.ix_(perm, perm)])

        v1, s1, g1 = pm.disto_loss(pi, metric, EUC)
        v2, s2, g2 = pm.disto_loss(pi_p, metric_p, EUC)
        assert v2 == pytest.approx(v1, rel=1e-12)
        assert s2 == pytest.approx(s1, rel=1e-12)
        np.testing.assert_allclose(g2, g1[perm], atol=1e-12)

        batch = pm.sample_triplets(K, 30, np.random.default_rng(3))
        inverse = np.argsort(perm)
        mapped = pm.TripletBatch(inverse[batch.triplets])
        r1, rg1 = pm.rank_loss(pi, metric, EUC, batch)
        r2, rg2 = pm.rank_loss(pi_p, metric_p, EUC, mapped)
        assert r2 == pytest.approx(r1, rel=1e-12)
        np.testing.assert_allclose(rg2, rg1[perm], atol=1e-12)


def test_distortion_report_fields():
    rng = np.random.default_rng(12)
    pi, metric = random_prototype_instance(5, 3, rng)
    report = pm.distortion_report(pi, metric, EUC)
    assert report.pair_count == 20
    assert report.scale_free_distortion <= report.distortion + 1e-12
    assert report.s_star_l1 > 0 and report.s_star_l2 > 0
    payload = report.to_dict()
    assert set(payload) == {"distortion", "scale_free_distortion", "s_star_l1",
                            "s_star_l2", "pair_count"}


def _gauge_basis(coords):
    """Orthonormal (K*m, r) basis of the rigid motions at `coords`: the m
    translations and m(m-1)/2 plane rotations, which change no distance."""
    K, m = coords.shape
    planes = list(itertools.combinations(range(m), 2))
    G = np.zeros((m + len(planes), K, m))
    G[np.arange(m), :, np.arange(m)] = 1.0
    for i, (a, b) in enumerate(planes, start=m):
        G[i, :, a], G[i, :, b] = -coords[:, b], coords[:, a]
    U, s, _ = np.linalg.svd(G.reshape(len(G), K * m).T, full_matrices=False)
    return U[:, s > 1e-10 * s[0]]


def dense_jacobian(coords, t):
    """The P x (K*m) Jacobian of the pair distances over the costs `t` (triu
    order), built pair by pair: row (k, l) is a = unit_kl / t_kl on block k
    and -a on block l, 0 on a coincident pair."""
    K, m = coords.shape
    iu, ju = np.triu_indices(K, k=1)
    diff = coords[iu] - coords[ju]
    d = np.sqrt(np.einsum("ij,ij->i", diff, diff))
    unit = diff / np.maximum(d[:, None], 1e-300)
    J = np.zeros((t.size, K * m))
    for p in range(t.size):
        J[p, iu[p] * m:(iu[p] + 1) * m] = unit[p] / t[p]
        J[p, ju[p] * m:(ju[p] + 1) * m] = -unit[p] / t[p]
    return J


def dense_lm_refine(coords, costs, iters=200, min_decrease=LM_MIN_DECREASE):
    """Reference LM polish: normal equations of the dense Jacobian solved
    exactly, each step projected off the rigid motions and stopped by the
    same rules as in `lm_refine`, with `min_decrease` in place of
    LM_MIN_DECREASE."""
    K, m = coords.shape
    iu, ju = np.triu_indices(K, k=1)
    t = costs[iu, ju]

    def distances(c):
        diff = c[iu] - c[ju]
        return np.sqrt(np.einsum("ij,ij->i", diff, diff))

    target = t / l2_scale(distances(coords), t)

    def loss(c):
        r = (distances(c) - target) / t
        return 0.5 * float(r @ r), r

    val, r = loss(coords)
    gauge = _gauge_basis(coords)
    lam = 1e-3
    stalled = False
    for _ in range(iters):
        J = dense_jacobian(coords, t)
        g = J.T @ r
        H = J.T @ J
        accepted = False
        while lam <= 1e14:
            try:
                delta = np.linalg.solve(H + lam * np.eye(K * m), -g)
            except np.linalg.LinAlgError:
                lam *= 3.0
                continue
            delta -= gauge @ (gauge.T @ delta)
            cand = coords + delta.reshape(K, m)
            v2, r2 = loss(cand)
            if v2 < val:
                stalled = val - v2 < min_decrease * val
                coords, val, r = cand, v2, r2
                gauge = _gauge_basis(coords)
                lam = max(lam / 3.0, 1e-12)
                accepted = True
                break
            lam *= 3.0
        if not accepted or stalled or val < 1e-30:
            break
    return coords


def jtj_weights(coords, t):
    """The K x K weights 1 / (d_kl t_kl)^2 of the matrix-free J^T J, 0 on the
    diagonal and on coincident pairs, as the pair weights of g are."""
    K = coords.shape[0]
    iu, ju = np.triu_indices(K, k=1)
    diff = coords[iu] - coords[ju]
    dt = np.sqrt(np.einsum("ij,ij->i", diff, diff)) * t
    W = np.zeros((K, K))
    W[iu, ju] = W[ju, iu] = np.divide(1.0, dt * dt, out=np.zeros_like(dt), where=dt > 0)
    return W


class TestMatrixFreeNormalEquations:
    """`lm_refine`'s J^T J products against the dense Jacobian, and its CG
    steps against the rigid-motion basis."""

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(2, 40), st.integers(1, 6),
           st.sampled_from(LAYOUTS))
    @example(0, 2, 1, "grid")
    @example(1, 40, 6, "coincident")
    def test_products_match_dense_jacobian(self, seed, K, m, layout):
        rng = np.random.default_rng(seed)
        coords = layout_coords(rng, K, m, layout)
        t = random_leaf_metric(K, rng).costs[np.triu_indices(K, k=1)]
        J = dense_jacobian(coords, t)
        H = J.T @ J
        W = jtj_weights(coords, t)
        V = rng.standard_normal((K, m))
        # each product sums K terms of up to max|W| |c|^2 |v| that cancel
        scale = K * W.max() * np.abs(coords).max() ** 2
        want = (H @ V.ravel()).reshape(K, m)
        got = _jtj_product(coords, W, V)
        assert np.all(np.abs(got - want) <= 1e-12 * max(np.abs(want).max(),
                                                         scale * np.abs(V).max()))

    @staticmethod
    def _gauge_coords(rng, layout):
        if layout == "flat":  # six points on a plane through R^4
            return rng.standard_normal((6, 2)) @ rng.standard_normal((2, 4)) + 1.0
        if layout == "wide":  # m >> K
            return rng.standard_normal((4, 12))
        K, m = int(rng.integers(2, 12)), int(rng.integers(1, 6))
        return layout_coords(rng, K, m, "random" if layout == "normal" else layout)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from(("normal", "coincident", "flat", "wide")),
           st.sampled_from((1e-12, 1e-3, 1e3)), st.sampled_from((0.1, 1e-12)))
    def test_cg_step_has_no_rigid_motion_part(self, seed, layout, lam, cg_tol):
        # g = J^T r lies in range(J^T), which is orthogonal to the rigid
        # motions, and so does every CG iterate; rounding alone leaves a part
        # along them, which undamped steps would let grow
        rng = np.random.default_rng(seed)
        coords = self._gauge_coords(rng, layout)
        K, m = coords.shape
        t = random_leaf_metric(K, rng).costs[np.triu_indices(K, k=1)]
        g = (dense_jacobian(coords, t).T @ rng.standard_normal(t.size)).reshape(K, m)
        module = importlib.import_module("protometric.distortion")
        with mock.patch.object(module, "LM_CG_TOL", cg_tol):
            delta = _cg_step(coords, jtj_weights(coords, t), g, lam)
        G = _gauge_basis(coords)
        assert np.abs(G @ (G.T @ delta.ravel())).max() <= 1e-10 * np.abs(delta).max()


class TestLmRefine:
    # the 27-leaf polish stops after one step; the tests that follow its
    # trajectory switch the relative stop off so they run all 200 steps, and
    # solve each step to the dense oracle's accuracy
    _MODULE = importlib.import_module("protometric.distortion")

    @classmethod
    def _tight_cg(cls):
        return mock.patch.object(cls._MODULE, "LM_CG_TOL", 1e-12)

    @classmethod
    @contextlib.contextmanager
    def _without_relative_stop(cls):
        with cls._tight_cg(), mock.patch.object(cls._MODULE, "LM_MIN_DECREASE", 0.0):
            yield

    @staticmethod
    def _adam_fit(metric, dim, steps=300, seed=0):
        """The Adam stage of `embed`, which the polish starts from."""
        rng = np.random.default_rng(seed)
        coords = rng.standard_normal((metric.size, dim))
        opt = pm.Adam(lr=0.05)
        for step in range(steps):
            opt.lr = 0.05 * (1.0 - step / steps)
            pi = PrototypeSet(coords, tuple(range(metric.size)))
            opt.step({"proto": coords}, {"proto": pm.disto_loss(pi, metric, EUC)[2]})
        return PrototypeSet(coords, tuple(range(metric.size)))

    @staticmethod
    def _tree27():
        lines = [f"{p}{i}\t{p or 'root'}" for p in ["", *"012"] for i in range(3)]
        lines += [f"{p}{i}{j}\t{p}{i}" for p in "012" for i in range(3) for j in range(3)]
        return pm.cost_matrix(pm.parse_taxonomy("\n".join(lines) + "\n"))

    @staticmethod
    def _objective(start, out, metric):
        """The polish's objective at `out`, with the targets scaled at `start`."""
        _, d, costs = pair_ratios(start, metric)
        target = costs / l2_scale(d, costs)
        r = (pair_ratios(out, metric)[1] - target) / costs
        return 0.5 * float(r @ r)

    def test_equals_dense_oracle_on_exactly_embeddable_tree(self):
        # the unit star on 4 leaves is a regular tetrahedron in R^3
        metric = pm.cost_matrix(pm.parse_taxonomy("a\tr\nb\tr\nc\tr\nd\tr\n"))
        pi = self._adam_fit(metric, 3)
        with self._tight_cg():
            out = lm_refine(pi, metric)
        np.testing.assert_array_equal(out.coords, dense_lm_refine(pi.coords, metric.costs))
        assert pm.scale_free_distortion(out, metric, EUC) < 1e-12
        assert self._objective(pi, out, metric) < 1e-30  # the relative stop never trips

    def test_stops_once_a_step_stops_paying(self):
        # 27 leaves do not embed in the plane; past the stop each step lowers
        # the objective by about 2e-6 of its value
        metric = self._tree27()
        pi = self._adam_fit(metric, 2)
        module = self._MODULE
        pair_gradient = module._pair_gradient

        def polish(min_decrease):
            steps = []

            def spy(*args):  # one g per step
                steps.append(None)
                return pair_gradient(*args)

            with mock.patch.object(module, "_pair_gradient", spy), \
                    mock.patch.object(module, "LM_MIN_DECREASE", min_decrease):
                out = lm_refine(pi, metric, iters=200)
            return len(steps), self._objective(pi, out, metric), \
                pm.scale_free_distortion(out, metric, EUC)

        steps, value, sfd = polish(LM_MIN_DECREASE)
        full_steps, full_value, full_sfd = polish(0.0)
        assert steps < 200 and full_steps == 200
        # measured: the objective 2.7e-3 above the 200-step value and the sfd
        # 2.4e-4 above it (on Adam seeds 0-4: at most 2.7e-3 and 1.2e-3 apart)
        assert full_value <= value <= full_value * (1 + 5e-3)
        assert sfd == pytest.approx(full_sfd, rel=5e-3)

    def test_agrees_with_dense_oracle_on_27_leaf_tree(self):
        metric = self._tree27()
        assert metric.size == 27
        pi = self._adam_fit(metric, 2)
        with self._without_relative_stop():
            got = lm_refine(pi, metric)
        want = pi.with_coords(dense_lm_refine(pi.coords, metric.costs, min_decrease=0.0))
        a, b = pm.distortion_report(got, metric, EUC), pm.distortion_report(want, metric, EUC)
        assert a.scale_free_distortion > 0.1  # not embeddable in the plane
        assert a.scale_free_distortion == pytest.approx(b.scale_free_distortion, rel=1e-8)
        assert a.distortion == pytest.approx(b.distortion, rel=1e-8)
        np.testing.assert_allclose(pair_ratios(got, metric)[1], pair_ratios(want, metric)[1],
                                   rtol=1e-6)

    def test_start_rounding_does_not_move_the_result(self):
        # H is singular along the rigid motions; steps with a part along
        # them let a 1e-15 change of the start move the coordinates by ~1e-4
        metric = self._tree27()
        pi = self._adam_fit(metric, 2)
        nudged = pi.with_coords(pi.coords * (1 + 1e-15))
        with self._without_relative_stop():
            np.testing.assert_allclose(lm_refine(nudged, metric).coords,
                                       lm_refine(pi, metric).coords, rtol=0, atol=1e-10)

    def test_65_leaves_at_dim_32_polish_in_small_memory(self):
        # 2080 unknowns, whose normal equations alone take 2080^2 * 8 bytes =
        # 33 MiB; the matrix-free steps hold a few K x K and K x m arrays,
        # and the objective's pair differences (P * m = K * m^2 entries here,
        # at most three such arrays at once). Measured peak: 1.3 MiB, against
        # a bound of 1.9 MiB
        K, m = 65, 32
        metric = uniform_metric(K)
        pi = PrototypeSet(np.random.default_rng(0).standard_normal((K, m)), tuple(range(K)))
        tracemalloc.start()
        try:
            out = lm_refine(pi, metric)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.all(np.isfinite(out.coords))
        assert self._objective(pi, out, metric) < self._objective(pi, pi, metric)
        P = K * (K - 1) // 2
        assert peak < 8 * (8 * K * K + 8 * K * m + 3 * P * m)
