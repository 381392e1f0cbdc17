import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import protometric as pm
from protometric import DistanceSpec, PrototypeSet, TrainConfig, TrainingDivergedError
from protometric import model as model_module
from protometric.model import (BLOCK_ROWS, _backward, _forward_cache, _head_loss, forward,
                               head_logits, leaf_posterior, softmax)

from conftest import linear_head_loss, random_prototype_instance

EUC = DistanceSpec("euclidean")


def tiny_mlp(rng, din=5, m=3, hidden=(8,)):
    return pm.init_embedding_model("mlp", din, m, hidden, "tanh", rng)


# every network path as (architecture, hidden, activation)
NETWORKS = [("identity", (), "relu"), ("linear", (), "relu"),
            ("mlp", (8,), "relu"), ("mlp", (8,), "tanh")]


def network_instance(rng, kind, hidden, activation, m=3, n=6):
    """A fresh model of one network path and a batch of n inputs of width 5
    (m for identity). ReLU pre-activations are asserted clear of the kink,
    where central differences do not match the gradient."""
    din = m if kind == "identity" else 5
    model = pm.init_embedding_model(kind, din, m, hidden, activation, rng)
    X = rng.standard_normal((n, din))
    if activation == "relu":
        _, cache = _forward_cache(model, X)
        assert all(np.abs(Z).min() > 1e-3 for _, Z in cache[:-1])
    return model, X


def with_params(model, flat):
    return dataclasses.replace(model, params=flat[:model.params.size])


class TestForward:
    def test_identity(self):
        model = pm.init_embedding_model("identity", 2, 2)
        np.testing.assert_array_equal(pm.forward(model, np.array([1.0, 2.0])), [1.0, 2.0])

    def test_identity_requires_matching_dims(self):
        with pytest.raises(ValueError):
            pm.init_embedding_model("identity", 2, 3)

    def test_zero_linear_is_zero_map(self):
        model = pm.init_embedding_model("linear", 3, 2, rng=np.random.default_rng(0))
        model.params[:] = 0.0
        np.testing.assert_array_equal(pm.forward(model, np.ones(3)), [0.0, 0.0])

    def test_mlp_matches_straight_line_recompute(self):
        rng = np.random.default_rng(1)
        model = pm.init_embedding_model("mlp", 4, 2, (5, 3), "relu", rng)
        x = rng.standard_normal(4)

        # independent recompute by slicing the flat parameter vector by hand
        p = model.params
        o = 0
        W1 = p[o:o + 5 * 4].reshape(5, 4); o += 20
        b1 = p[o:o + 5]; o += 5
        W2 = p[o:o + 3 * 5].reshape(3, 5); o += 15
        b2 = p[o:o + 3]; o += 3
        W3 = p[o:o + 2 * 3].reshape(2, 3); o += 6
        b3 = p[o:o + 2]; o += 2
        assert o == p.size
        h1 = np.maximum(W1 @ x + b1, 0.0)
        h2 = np.maximum(W2 @ h1 + b2, 0.0)
        expected = W3 @ h2 + b3
        np.testing.assert_allclose(pm.forward(model, x), expected, rtol=1e-12)

    def test_dimension_mismatch(self):
        model = pm.init_embedding_model("linear", 3, 2, rng=np.random.default_rng(0))
        with pytest.raises(ValueError, match="dimension"):
            pm.forward(model, np.ones(4))

    def test_batch_and_single_agree(self):
        rng = np.random.default_rng(2)
        model = tiny_mlp(rng)
        X = rng.standard_normal((4, 5))
        batch = pm.forward(model, X)
        for i in range(4):
            # batched and single-row matmuls may differ in the last ulp
            np.testing.assert_allclose(batch[i], pm.forward(model, X[i]),
                                       rtol=1e-12, atol=0)

    def test_blocks_match_one_pass(self, monkeypatch):
        # forward fills its result from blocks of at most BLOCK_ROWS rows,
        # none a short tail, and equals one unblocked pass bit for bit
        rng = np.random.default_rng(23)
        model = pm.init_embedding_model("mlp", 16, 64, (32, 32), "relu", rng)
        rows = []

        def spy(net, X):
            rows.append(X.shape[0])
            return _forward_cache(net, X)

        monkeypatch.setattr(model_module, "_forward_cache", spy)
        for n in (0, 1, BLOCK_ROWS + 1, 2 * BLOCK_ROWS + 1):
            X = rng.standard_normal((n, 16))
            rows.clear()
            E = forward(model, X)
            assert sum(rows) == n and max(rows) <= BLOCK_ROWS, rows
            assert len(rows) == max(1, -(-n // BLOCK_ROWS)), rows
            np.testing.assert_array_equal(E, _forward_cache(model, X)[0])
        x = rng.standard_normal(16)
        np.testing.assert_array_equal(forward(model, x), _forward_cache(model, x[None, :])[0][0])

    def test_input_gradient_matches_finite_differences(self):
        # the gradient wrt the input rows, which the linear head passes back
        rng = np.random.default_rng(3)
        model, X = network_instance(rng, "mlp", (8,), "tanh")
        G = rng.standard_normal((X.shape[0], model.output_dim))

        def evaluate(flat):
            E, cache = _forward_cache(model, flat.reshape(X.shape))
            return float(np.sum(G * E)), _backward(model, cache, G)[1].ravel()

        assert pm.finite_difference_check(evaluate, X.ravel()) < 1e-8


class TestPosterior:
    def test_equidistant_is_uniform(self):
        coords = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
        p = pm.posterior(np.zeros(2), coords, EUC)
        np.testing.assert_allclose(p, 0.25, rtol=1e-12)

    def test_two_class_log3_gap(self):
        # d1 = 0, d2 = ln 3 -> posterior (3/4, 1/4)
        coords = np.array([[0.0, 0.0], [np.log(3.0), 0.0]])
        p = pm.posterior(np.zeros(2), coords, EUC)
        np.testing.assert_allclose(p, [0.75, 0.25], rtol=1e-12)

    def test_huge_distance_gap_is_stable(self):
        coords = np.array([[0.0, 0.0], [1e5, 0.0]])
        p = pm.posterior(np.zeros(2), coords, EUC)
        assert np.all(np.isfinite(p))
        np.testing.assert_allclose(p, [1.0, 0.0], atol=1e-12)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 100_000))
    def test_sums_to_one_and_argmax_is_nearest(self, seed):
        rng = np.random.default_rng(seed)
        K, m = int(rng.integers(2, 10)), int(rng.integers(1, 6))
        coords = rng.standard_normal((K, m)) * rng.uniform(0.1, 100)
        e = rng.standard_normal(m)
        for spec in (EUC, DistanceSpec("squared-euclidean"), DistanceSpec("huber", 0.1)):
            p = pm.posterior(e, coords, spec)
            assert abs(p.sum() - 1.0) <= 1e-12
            nearest = int(np.argmin(np.linalg.norm(coords - e, axis=1)))
            assert int(np.argmax(p)) == nearest

    @pytest.mark.parametrize("layout", ["near", "midpoints"])
    def test_a_row_alone_is_the_same_row_in_a_batch(self, layout):
        # the layouts of the distance kernel's test; a GEMM cross term rounds
        # a row alone differently from the same row in a batch
        rng = np.random.default_rng(17)
        n, k, m = 60, 40, 64
        if layout == "near":  # normal draws shifted by 5, in pairs 1e-8 to 1e-2 apart
            coords = rng.standard_normal((k, m)) + 5.0
            dirs = rng.standard_normal((k // 2, m))
            dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
            coords[1::2] = coords[::2] + 10.0 ** rng.uniform(-8, -2, (k // 2, 1)) * dirs
            E = coords[rng.integers(0, k, n)] + 1e-3 * rng.standard_normal((n, m))
        else:  # ties in exact arithmetic
            coords = rng.standard_normal((k, m)) * 10.0 ** rng.uniform(-2, 2, (k, 1))
            E = (coords[rng.integers(0, k, n)] + coords[rng.integers(0, k, n)]) / 2
        for spec in (EUC, DistanceSpec("squared-euclidean"), DistanceSpec("huber", 0.1)):
            P = pm.posterior(E, coords, spec)
            for r in range(n):
                np.testing.assert_array_equal(pm.posterior(E[r], coords, spec), P[r])
                np.testing.assert_array_equal(pm.posterior(E[r:r + 1], coords, spec)[0], P[r])


class TestLeafPosterior:
    def test_blocks_match_one_block(self, monkeypatch):
        # the fewest near-equal blocks of at most BLOCK_ROWS rows: none is a
        # short tail, which BLAS could round through another kernel, so the
        # rows are bit-equal to one unblocked pass
        rng = np.random.default_rng(21)
        model = tiny_mlp(rng, din=5, m=3)
        coords = rng.standard_normal((4, 3))
        head = pm.LinearHead(4, 3, rng.standard_normal(16))
        rows = []
        blocks = model_module._forward_blocks

        def spy(net, X):
            for E in blocks(net, X):
                rows.append(E.shape[0])
                yield E

        monkeypatch.setattr(model_module, "_forward_blocks", spy)
        for n in (0, 1, BLOCK_ROWS, BLOCK_ROWS + 1, 6000, 2 * BLOCK_ROWS + 1):
            X = rng.standard_normal((n, 5))
            for h in (None, head):
                rows.clear()
                blocked = np.concatenate(list(leaf_posterior(model, X, coords, EUC, h)))
                assert sum(rows) == n and max(rows) <= BLOCK_ROWS, rows
                if n > BLOCK_ROWS:
                    assert min(rows) >= n // -(-n // BLOCK_ROWS), rows
                E, _ = _forward_cache(model, X)
                whole = (softmax(head_logits(h, E)) if h is not None
                         else pm.posterior(E, coords, EUC))
                np.testing.assert_array_equal(blocked, whole)

    def test_prototype_and_head_paths(self):
        rng = np.random.default_rng(22)
        model = tiny_mlp(rng, din=5, m=3)
        X = rng.standard_normal((9, 5))
        coords = rng.standard_normal((4, 3))
        head = pm.LinearHead(4, 3, rng.standard_normal(16))
        E = pm.forward(model, X)
        [P] = leaf_posterior(model, X, coords, EUC)
        np.testing.assert_array_equal(P, pm.posterior(E, coords, EUC))
        [P] = leaf_posterior(model, X, None, EUC, head)
        np.testing.assert_array_equal(P, softmax(head_logits(head, E)))


class TestDataLoss:
    def test_sample_on_prototype_far_from_rest(self):
        coords = np.array([[0.0, 0.0], [50.0, 0.0], [0.0, 50.0]])
        pi = PrototypeSet(coords, (0, 1, 2))
        model = pm.init_embedding_model("identity", 2, 2)
        value, _, _ = pm.data_loss(np.zeros((1, 2)), np.array([0]), model, pi, EUC)
        assert value == pytest.approx(np.log(1 + 2 * np.exp(-50.0)), abs=1e-12)
        assert value < 1e-12

    def test_equals_mean_negative_log_posterior(self):
        rng = np.random.default_rng(3)
        pi, _ = random_prototype_instance(5, 3, rng)
        model = tiny_mlp(rng, din=4, m=3)
        X = rng.standard_normal((8, 4))
        z = rng.integers(0, 5, 8)
        value, _, _ = pm.data_loss(X, z, model, pi, EUC)
        P = pm.posterior(pm.forward(model, X), pi.coords, EUC)
        expected = float(np.mean(-np.log(P[np.arange(8), z])))
        assert value == pytest.approx(expected, abs=1e-10)

    def test_gradients_match_finite_differences(self):
        for network in NETWORKS:
            rng = np.random.default_rng(4)
            pi, _ = random_prototype_instance(4, 3, rng)
            model, X = network_instance(rng, *network)
            z = rng.integers(0, 4, 6)
            n_model = model.params.size

            def evaluate(flat):
                p = pi.with_coords(flat[n_model:].reshape(4, 3))
                value, dm, dc = pm.data_loss(X, z, with_params(model, flat), p, EUC)
                return value, np.concatenate([dm, dc.ravel()])

            flat = np.concatenate([model.params, pi.coords.ravel()])
            assert pm.finite_difference_check(evaluate, flat) < 1e-4, network

    def test_empty_batch(self):
        rng = np.random.default_rng(5)
        pi, _ = random_prototype_instance(3, 2, rng)
        model = pm.init_embedding_model("identity", 2, 2)
        with pytest.raises(ValueError, match="empty"):
            pm.data_loss(np.zeros((0, 2)), np.zeros(0, dtype=int), model, pi, EUC)

    def test_translation_equivariance(self):
        # identity model, euclidean kind: shifting inputs and prototypes
        # together leaves the loss unchanged
        rng = np.random.default_rng(6)
        coords = rng.standard_normal((4, 3))
        pi = PrototypeSet(coords, (0, 1, 2, 3))
        model = pm.init_embedding_model("identity", 3, 3)
        X = rng.standard_normal((7, 3))
        z = rng.integers(0, 4, 7)
        t = rng.standard_normal(3)
        v1, _, _ = pm.data_loss(X, z, model, pi, EUC)
        v2, _, _ = pm.data_loss(X + t, z, model, pi.with_coords(coords + t), EUC)
        assert v2 == pytest.approx(v1, rel=1e-12)


class TestTotalLoss:
    def _instance(self, seed, lam, regularizer="disto", network=("mlp", (8,), "tanh")):
        rng = np.random.default_rng(seed)
        pi, metric = random_prototype_instance(4, 3, rng)
        model, X = network_instance(rng, *network)
        z = rng.integers(0, 4, 6)
        config = TrainConfig(lam=lam, regularizer=regularizer, m=3,
                             architecture="mlp", hidden=(8,), activation="tanh",
                             distance=EUC)
        return rng, pi, metric, model, X, z, config

    def test_lambda_zero_equals_data_loss(self):
        rng, pi, metric, model, X, z, config = self._instance(7, 0.0)
        breakdown, grads = pm.total_loss(X, z, model, pi, metric, config, rng)
        value, dm, dc = pm.data_loss(X, z, model, pi, EUC)
        assert breakdown.total == value
        assert breakdown.l_reg == 0.0 and breakdown.s_star is None
        np.testing.assert_array_equal(grads["model"], dm)
        np.testing.assert_array_equal(grads["proto"], dc)

    def test_isometric_prototypes_zero_regularizer(self):
        rng = np.random.default_rng(8)
        coords = rng.standard_normal((4, 3))
        D = np.sqrt(((coords[:, None] - coords[None, :]) ** 2).sum(-1))
        metric = pm.FiniteMetric(tuple("abcd"), D)
        pi = PrototypeSet(coords, (0, 1, 2, 3))
        model = pm.init_embedding_model("identity", 3, 3)
        X = rng.standard_normal((5, 3))
        z = rng.integers(0, 4, 5)
        config = TrainConfig(lam=1.0, regularizer="disto", m=3,
                             architecture="identity", hidden=(), distance=EUC)
        breakdown, _ = pm.total_loss(X, z, model, pi, metric, config)
        assert breakdown.l_reg == pytest.approx(0.0, abs=1e-24)
        assert breakdown.total == pytest.approx(breakdown.l_data, rel=1e-12)

    def test_breakdown_identity_holds(self):
        rng, pi, metric, model, X, z, config = self._instance(9, 2.0)
        breakdown, _ = pm.total_loss(X, z, model, pi, metric, config, rng)
        assert breakdown.total == pytest.approx(
            breakdown.l_data + 2.0 * breakdown.l_reg, abs=1e-12)

    def test_gradients_match_finite_differences(self):
        for network in NETWORKS:
            rng, pi, metric, model, X, z, config = self._instance(10, 2.0, network=network)
            n_model = model.params.size

            def evaluate(flat):
                p = pi.with_coords(flat[n_model:].reshape(4, 3))
                breakdown, grads = pm.total_loss(X, z, with_params(model, flat), p,
                                                 metric, config)
                return breakdown.total, np.concatenate([grads["model"],
                                                        grads["proto"].ravel()])

            flat = np.concatenate([model.params, pi.coords.ravel()])
            assert pm.finite_difference_check(evaluate, flat) < 1e-4, network

    def test_descent_direction(self):
        # a small enough gradient step never increases the loss
        for seed in range(5):
            rng, pi, metric, model, X, z, config = self._instance(seed, 1.0)
            breakdown, grads = pm.total_loss(X, z, model, pi, metric, config)
            lr = 1e-6
            model2 = pm.EmbeddingModel("mlp", 5, 3, (8,), "tanh",
                                       model.params - lr * grads["model"])
            pi2 = pi.with_coords(pi.coords - lr * grads["proto"])
            after, _ = pm.total_loss(X, z, model2, pi2, metric, config)
            assert after.total <= breakdown.total + 1e-15

    @pytest.mark.parametrize("regularizer", ["disto", "disto-fixed-scale", "rank"])
    def test_regularizer_is_the_direct_call(self, regularizer):
        _, pi, metric, model, X, z, config = self._instance(11, 2.0, regularizer)
        config = dataclasses.replace(config, triplet_count=7)
        rng_a, rng_b = np.random.default_rng(9), np.random.default_rng(9)
        breakdown, grads = pm.total_loss(X, z, model, pi, metric, config, rng_a)
        if regularizer == "rank":
            want, want_grads = pm.rank_loss(pi, metric, EUC, pm.sample_triplets(4, 7, rng_b))
            assert breakdown.s_star is None
        else:
            want, want_s, want_grads = pm.disto_loss(
                pi, metric, EUC, fixed_scale=regularizer == "disto-fixed-scale")
            assert breakdown.s_star == want_s
        assert breakdown.l_reg == want
        _, _, dc = pm.data_loss(X, z, model, pi, EUC)
        np.testing.assert_array_equal(grads["proto"], dc + 2.0 * want_grads)
        assert rng_a.integers(0, 2**62) == rng_b.integers(0, 2**62)

    def test_rank_needs_an_rng(self):
        _, pi, metric, model, X, z, config = self._instance(12, 1.0, "rank")
        with pytest.raises(ValueError, match="rng"):
            pm.total_loss(X, z, model, pi, metric, config)

    @pytest.mark.parametrize("lam, regularizer", [(0.0, "rank"), (1.0, "none")])
    def test_no_regularizer_term(self, lam, regularizer):
        # the term is skipped: rank draws no triplets, so it needs no rng
        _, pi, metric, model, X, z, config = self._instance(13, lam, regularizer)
        breakdown, grads = pm.total_loss(X, z, model, pi, metric, config)
        value, _, dc = pm.data_loss(X, z, model, pi, EUC)
        assert breakdown == pm.LossBreakdown(value, 0.0, value, None)
        np.testing.assert_array_equal(grads["proto"], dc)


class TestSoftLabelTargets:
    def test_sharp_limit_is_one_hot(self):
        rng = np.random.default_rng(11)
        _, metric = random_prototype_instance(5, 2, rng)
        t = pm.soft_label_targets(metric, 2, beta=1e6)
        expected = np.zeros(5)
        expected[2] = 1.0
        np.testing.assert_allclose(t, expected, atol=1e-12)

    def test_uniform_metric_symmetry(self):
        D = np.ones((4, 4)) - np.eye(4)
        metric = pm.FiniteMetric(tuple("abcd"), D)
        t = pm.soft_label_targets(metric, 1, beta=0.7)
        assert t[1] == max(t)
        others = np.delete(t, 1)
        np.testing.assert_allclose(others, others[0], rtol=1e-12)
        assert t.sum() == pytest.approx(1.0, abs=1e-12)

    def test_three_class_chain(self):
        D = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]])
        metric = pm.FiniteMetric(("a", "b", "c"), D)
        t = pm.soft_label_targets(metric, 0, beta=1.0)
        raw = np.array([1.0, np.exp(-1.0), np.exp(-2.0)])
        np.testing.assert_allclose(t, raw / raw.sum(), rtol=1e-12)

    def test_beta_validation(self):
        rng = np.random.default_rng(12)
        _, metric = random_prototype_instance(3, 2, rng)
        with pytest.raises(ValueError):
            pm.soft_label_targets(metric, 0, beta=0.0)


class TestFiniteDifferenceCheck:
    def test_quadratic_is_exact(self):
        A = np.diag([1.0, 2.0, 3.0])

        def evaluate(x):
            return 0.5 * float(x @ A @ x), A @ x

        assert pm.finite_difference_check(evaluate, np.array([0.3, -1.2, 2.0])) < 1e-10

    def test_corrupted_gradient_is_caught(self):
        def evaluate(x):
            return float(np.sum(x ** 2)), 2 * x + 0.1  # deliberate offset

        assert pm.finite_difference_check(evaluate, np.ones(3)) > 1e-2


class TestHeads:
    def test_zero_logits_reproduce_log_k(self):
        # zero-initialized head => uniform predictive distribution => log K
        rng = np.random.default_rng(13)
        K, m = 6, 4
        model = pm.init_embedding_model("identity", m, m)
        head = pm.LinearHead(K, m)
        X = rng.standard_normal((10, m))
        z = rng.integers(0, K, 10)
        value, _, _ = _head_loss(X, z, model, head)
        assert value == pytest.approx(np.log(K), rel=1e-12)

    def test_head_gradients_match_finite_differences(self):
        K, m = 4, 3
        for network in NETWORKS:
            rng = np.random.default_rng(14)
            model, X = network_instance(rng, *network, m=m)
            head = pm.LinearHead(K, m, rng.standard_normal(K * m + K) * 0.1)
            z = rng.integers(0, K, 6)
            n_model = model.params.size

            def evaluate(flat):
                hd = pm.LinearHead(K, m, flat[n_model:])
                value, dm, dh = _head_loss(X, z, with_params(model, flat), hd)
                return value, np.concatenate([dm, dh])

            flat = np.concatenate([model.params, head.params])
            assert pm.finite_difference_check(evaluate, flat) < 1e-4, network

    def test_soft_target_head_uses_table(self):
        rng = np.random.default_rng(15)
        _, metric = random_prototype_instance(3, 2, rng)
        table = np.stack([pm.soft_label_targets(metric, k, 10.0) for k in range(3)])
        model = pm.init_embedding_model("identity", 2, 2)
        head = pm.LinearHead(3, 2)
        X = rng.standard_normal((4, 2))
        z = rng.integers(0, 3, 4)
        value, _, _ = _head_loss(X, z, model, head, table)
        # zero logits: cross-entropy against any target sums to log K
        assert value == pytest.approx(np.log(3), rel=1e-12)

    def test_prototype_head_shares_the_linear_heads_loss(self):
        # squared Euclidean: -|e - p|^2 = 2p.e - |p|^2 - |e|^2, whose row shift
        # -|e|^2 cancels in the softmax and in dE (the rows of p - T sum to 0),
        # so prototypes P give the loss of the linear head W = 2P, b = -|P|^2
        K, m = 5, 3
        for seed in range(20):
            rng = np.random.default_rng(seed)
            model = tiny_mlp(rng, din=4, m=m)
            P = rng.standard_normal((K, m))
            X = rng.standard_normal((8, 4))
            z = rng.integers(0, K, 8)
            value, dmodel, _ = pm.data_loss(X, z, model, PrototypeSet(P, tuple(range(K))),
                                            DistanceSpec("squared-euclidean"))
            head = pm.LinearHead(K, m, np.concatenate([2 * P.ravel(), -np.sum(P ** 2, axis=1)]))
            head_value, head_dmodel, _ = _head_loss(X, z, model, head)
            assert head_value == pytest.approx(value, rel=1e-12), seed
            np.testing.assert_allclose(head_dmodel, dmodel, rtol=1e-12, err_msg=str(seed))

    @pytest.mark.parametrize("K", [2, 5])
    @pytest.mark.parametrize("network", NETWORKS)
    def test_head_is_the_linear_heads_algebra(self, network, K):
        # the head runs on the network's layer code and keeps the bits of
        # its own affine algebra, with hard targets and with a soft table
        rng = np.random.default_rng(16)
        model, X = network_instance(rng, *network)
        head = pm.LinearHead(K, 3, rng.standard_normal(K * 3 + K))
        z = rng.integers(0, K, X.shape[0])
        _, metric = random_prototype_instance(K, 2, rng)
        table = np.stack([pm.soft_label_targets(metric, k, 2.0) for k in range(K)])
        for target_table in (None, table):
            logits, value, dmodel, dhead = linear_head_loss(X, z, model, head, target_table)
            np.testing.assert_array_equal(head_logits(head, forward(model, X)), logits)
            got_value, got_dmodel, got_dhead = _head_loss(X, z, model, head, target_table)
            assert got_value == value
            np.testing.assert_array_equal(got_dmodel, dmodel)
            np.testing.assert_array_equal(got_dhead, dhead)


def blob_dataset(rng, n_per=30, gap=4.0):
    tax = pm.parse_taxonomy("a\troot\nb\troot\n")
    Xa = rng.normal([-gap / 2, 0.0], 0.5, (n_per, 2))
    Xb = rng.normal([gap / 2, 0.0], 0.5, (n_per, 2))
    ds = pm.Dataset(np.vstack([Xa, Xb]),
                    np.array([0] * n_per + [1] * n_per), tax.leaf_names)
    return tax, pm.cost_matrix(tax), ds


class TestTrain:
    def test_separable_blobs_reach_zero_error(self):
        rng = np.random.default_rng(0)
        tax, metric, ds = blob_dataset(rng)
        config = TrainConfig(m=2, architecture="linear", hidden=(), epochs=50,
                             batch_size=16, lam=1.0)
        result = pm.train(ds, tax, metric, config, np.random.default_rng(0))
        assert result.history.records[-1].train_er == 0.0
        assert result.history.records[-1].train_ac == 0.0

    def test_epoch_evaluation_memory_does_not_grow_with_the_rows(self):
        # the epoch's posterior runs on budget-sized row blocks: 4N rows peak
        # less than one (3N, K) float array above N rows
        lines = [f"g{i}\troot" for i in range(6)]
        lines += [f"l{i}\tg{i % 6}" for i in range(300)]
        tax = pm.parse_taxonomy("\n".join(lines) + "\n")
        metric = pm.cost_matrix(tax)
        K = len(tax.leaf_ids)
        config = TrainConfig(m=4, architecture="linear", hidden=(), epochs=1,
                             regularizer="none")
        rng = np.random.default_rng(5)
        N = 400
        peak = {}
        for n in (N, 4 * N):
            ds = pm.Dataset(rng.standard_normal((n, 2)), np.arange(n) % K, tax.leaf_names)
            tracemalloc.start()
            try:
                pm.train(ds, tax, metric, config, np.random.default_rng(0))
                peak[n] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak[4 * N] - peak[N] < 3 * N * K * 8, peak

    def test_lambda_zero_matches_regularizer_none_exactly(self):
        rng = np.random.default_rng(1)
        tax, metric, ds = blob_dataset(rng)
        tweak = lambda **kw: TrainConfig(m=2, architecture="mlp", hidden=(4,),
                                         epochs=5, batch_size=8, **kw)
        r1 = pm.train(ds, tax, metric, tweak(lam=0.0, regularizer="disto"),
                      np.random.default_rng(3))
        r2 = pm.train(ds, tax, metric, tweak(lam=1.0, regularizer="none"),
                      np.random.default_rng(3))
        assert r1.history == r2.history
        np.testing.assert_array_equal(r1.model.params, r2.model.params)
        np.testing.assert_array_equal(r1.prototypes.coords, r2.prototypes.coords)

    def test_bit_identical_for_fixed_seed(self):
        rng = np.random.default_rng(2)
        tax, metric, ds = blob_dataset(rng)
        config = TrainConfig(m=2, architecture="mlp", hidden=(4,), epochs=6,
                             batch_size=8, regularizer="rank", triplet_count=5)
        with pytest.raises(ValueError):
            # rank regularizer needs at least 3 classes to sample triples
            pm.train(ds, tax, metric, config, np.random.default_rng(0))

        config = TrainConfig(m=2, architecture="mlp", hidden=(4,), epochs=6,
                             batch_size=8, regularizer="disto")
        r1 = pm.train(ds, tax, metric, config, np.random.default_rng(7))
        r2 = pm.train(ds, tax, metric, config, np.random.default_rng(7))
        assert r1.history == r2.history
        np.testing.assert_array_equal(r1.model.params, r2.model.params)

    def test_history_identity_holds_per_epoch(self):
        rng = np.random.default_rng(3)
        tax, metric, ds = blob_dataset(rng)
        config = TrainConfig(m=2, architecture="linear", hidden=(), epochs=8,
                             batch_size=16, lam=2.5)
        result = pm.train(ds, tax, metric, config, np.random.default_rng(1))
        for rec in result.history.records:
            assert rec.total == pytest.approx(rec.l_data + 2.5 * rec.l_reg, abs=1e-12)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_aborts_with_diagnostic(self, toy_tax):
        ds = pm.gen_hierarchical_gaussians(toy_tax, per_class=10, dims=2,
                                           rng=np.random.default_rng(4))
        metric = pm.cost_matrix(toy_tax)
        # squared distances overflow after one step of lr 1e300; the
        # fixed-proto schedule's stage 1 fits at its own lr and does not
        # diverge, its first epoch does (stage 1's own divergence is
        # TestFitPrototypes.test_divergence_names_the_step)
        for schedule in ("joint", "fixed-proto"):
            for kind in ("adam", "sgd"):
                config = TrainConfig(m=2, architecture="mlp", hidden=(8,), epochs=20,
                                     batch_size=16, schedule=schedule,
                                     distance=DistanceSpec("squared-euclidean"),
                                     optimizer=pm.OptimizerSpec(kind, lr=1e300))
                with pytest.raises(TrainingDivergedError,
                                   match=r"non-finite loss at epoch 1 \(lr=1e\+300\)"):
                    pm.train(ds, toy_tax, metric, config, np.random.default_rng(0))

    def test_fixed_proto_schedule_freezes_prototypes(self):
        rng = np.random.default_rng(5)
        tax, metric, ds = blob_dataset(rng)
        config = TrainConfig(m=2, architecture="linear", hidden=(), epochs=4,
                             batch_size=16, schedule="fixed-proto")
        result = pm.train(ds, tax, metric, config, np.random.default_rng(2))
        # stage 1 fits the prototypes to the metric; with K = 2 a perfect
        # fit exists, so the frozen prototypes sit at relative distance ~2
        d = np.linalg.norm(result.prototypes.coords[0] - result.prototypes.coords[1])
        s = pm.scale_free_distortion(result.prototypes, metric, config.distance)
        assert s == pytest.approx(0.0, abs=1e-6)
        # l_reg stays constant across epochs since prototypes are frozen
        regs = [r.l_reg for r in result.history.records]
        assert max(regs) - min(regs) <= 1e-12

    def test_internal_prototypes_cover_all_nodes(self, toy_tax):
        rng = np.random.default_rng(6)
        metric = pm.cost_matrix(toy_tax)
        X = rng.standard_normal((30, 4))
        z = rng.integers(0, 3, 30)
        ds = pm.Dataset(X, z, toy_tax.leaf_names)
        config = TrainConfig(m=3, architecture="linear", hidden=(), epochs=3,
                             batch_size=10, include_internal_prototypes=True)
        result = pm.train(ds, toy_tax, metric, config, np.random.default_rng(0))
        assert result.prototypes.size == toy_tax.n_nodes
        assert result.prototypes.includes_internal

    def test_head_training_returns_class_mean_prototypes(self):
        rng = np.random.default_rng(7)
        tax, metric, ds = blob_dataset(rng)
        config = TrainConfig(m=2, architecture="linear", hidden=(), epochs=10,
                             batch_size=16, head="cross-entropy")
        result = pm.train(ds, tax, metric, config, np.random.default_rng(0))
        assert result.head is not None
        E = pm.forward(result.model, ds.features)
        for k in range(2):
            np.testing.assert_allclose(result.prototypes.coords[k],
                                       E[ds.labels == k].mean(axis=0), rtol=1e-10)

    def test_soft_labels_head_trains(self):
        rng = np.random.default_rng(8)
        tax, metric, ds = blob_dataset(rng)
        config = TrainConfig(m=2, architecture="linear", hidden=(), epochs=10,
                             batch_size=16, head="soft-labels", beta=10.0)
        result = pm.train(ds, tax, metric, config, np.random.default_rng(0))
        assert result.history.records[-1].train_er <= 0.1


class TestCheckpoint:
    def test_roundtrip(self, tmp_path, toy_tax):
        rng = np.random.default_rng(9)
        model = tiny_mlp(rng, din=4, m=3)
        pi = PrototypeSet(rng.standard_normal((3, 3)), toy_tax.leaf_ids)
        spec = DistanceSpec("huber", delta=0.25)
        path = tmp_path / "ckpt.json"
        pm.save_checkpoint(path, pm.Checkpoint(model, pi, spec, toy_tax))
        ckpt = pm.load_checkpoint(path)
        np.testing.assert_array_equal(ckpt.model.params, model.params)
        np.testing.assert_array_equal(ckpt.prototypes.coords, pi.coords)
        assert ckpt.prototypes.class_map == pi.class_map
        assert ckpt.distance == spec
        assert ckpt.taxonomy.names == toy_tax.names
        assert ckpt.head is None

    def test_head_roundtrip(self, tmp_path, toy_tax):
        rng = np.random.default_rng(10)
        model = pm.init_embedding_model("linear", 4, 3, rng=rng)
        pi = PrototypeSet(rng.standard_normal((3, 3)), toy_tax.leaf_ids)
        head = pm.LinearHead(3, 3, rng.standard_normal(12))
        path = tmp_path / "ckpt.json"
        pm.save_checkpoint(path, pm.Checkpoint(model, pi, DistanceSpec(), toy_tax, head))
        ckpt = pm.load_checkpoint(path)
        assert ckpt.head is not None
        np.testing.assert_array_equal(ckpt.head.params, head.params)

    def test_boolean_in_number_array_rejected(self):
        with pytest.raises(ValueError, match="boolean"):
            pm.LinearHead.from_dict({"n_classes": 1, "input_dim": 1,
                                     "params": [True, 0.5]})
        with pytest.raises(ValueError, match="boolean"):
            PrototypeSet.from_dict({"coords": [[0.5, 1.0], [0.0, False]],
                                    "class_map": [0, 1]})

    def test_version_check(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"format_version": 99}')
        with pytest.raises(ValueError, match="version"):
            pm.load_checkpoint(path)


def test_train_config_roundtrip():
    config = TrainConfig(lam=0.5, regularizer="rank", head="prototypes",
                         distance=DistanceSpec("huber", 0.2), m=8,
                         include_internal_prototypes=True, schedule="fixed-proto",
                         optimizer=pm.OptimizerSpec("sgd", lr=0.1, momentum=0.9),
                         epochs=7, batch_size=4, triplet_count=12,
                         architecture="mlp", hidden=(16, 8), activation="relu")
    assert TrainConfig.from_dict(config.to_dict()) == config
    assert config.to_dict()["lambda"] == 0.5
    with pytest.raises(ValueError, match="hidden"):
        TrainConfig.from_dict({"hidden": "32"})  # not silently (3, 2)
    with pytest.raises(ValueError, match="unknown regularizer"):
        TrainConfig.from_dict({"regularizer": "ranking"})  # total_loss takes it as checked


# a binary tree of 15 nodes, 8 leaves: stage 1 takes every rank triple on
# the leaves (336 <= 2000) and samples them from train's rng on all nodes
STAGE1_TREE = pm.parse_taxonomy(
    "A\troot\nB\troot\nA1\tA\nA2\tA\nB1\tB\nB2\tB\n"
    "a1x\tA1\na1y\tA1\na2x\tA2\na2y\tA2\nb1x\tB1\nb1y\tB1\nb2x\tB2\nb2y\tB2\n")


@pytest.mark.parametrize("regularizer", ["disto", "disto-fixed-scale", "rank"])
@pytest.mark.parametrize("internal", [False, True])
def test_stage1_is_fit_prototypes(regularizer, internal):
    tax = STAGE1_TREE
    metric = pm.cost_matrix(tax)
    ds = pm.gen_hierarchical_gaussians(tax, per_class=2, dims=3, rng=np.random.default_rng(7))
    config = TrainConfig(m=3, architecture="linear", hidden=(), epochs=1, batch_size=8,
                         regularizer=regularizer, include_internal_prototypes=internal,
                         schedule="fixed-proto", triplet_count=4,
                         optimizer=pm.OptimizerSpec("sgd", lr=0.5))  # stage 1 ignores it
    got = pm.train(ds, tax, metric, config, np.random.default_rng(1)).prototypes.coords
    # train's draws before stage 1: the model's weights, then the start
    rng = np.random.default_rng(1)
    pm.init_embedding_model("linear", 3, 3, rng=rng)
    metric_reg = pm.cost_matrix(tax, "all-nodes") if internal else metric
    start = rng.standard_normal((metric_reg.size, 3))
    want = pm.fit_prototypes(metric_reg, config.distance, regularizer, rng, start,
                             triplets=config.triplet_count)
    np.testing.assert_array_equal(got, want)
