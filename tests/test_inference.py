import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import protometric as pm
from protometric import DistanceSpec, PrototypeSet, geometry, inference
from protometric.inference import SCHEMES, _decide, top3

from conftest import distance, random_taxonomy_with_leaves

EUC = DistanceSpec("euclidean")


def brute_nearest(coords, x):
    sq = ((coords - x) ** 2).sum(axis=1)
    return int(np.argmin(sq))


class TestPrototypeIndex:
    def test_singleton(self):
        index = pm.PrototypeIndex(np.array([[1.0, 2.0]]))
        for x in (np.zeros(2), np.array([5.0, -3.0])):
            idx, d = index.query(x)
            assert idx == 0
            assert d == pytest.approx(np.linalg.norm(x - [1.0, 2.0]))

    def test_thousand_random_queries_match_exhaustive_scan(self):
        rng = np.random.default_rng(0)
        coords = rng.standard_normal((64, 5))
        index = pm.PrototypeIndex(coords)
        for _ in range(1000):
            x = rng.standard_normal(5) * rng.uniform(0.1, 3)
            assert index.query(x)[0] == index.query_exhaustive(x)[0]

    def test_duplicated_rows_lowest_index_wins(self):
        rng = np.random.default_rng(1)
        base = rng.standard_normal((10, 3))
        coords = np.vstack([base, base[3].copy()])  # row 10 duplicates row 3
        index = pm.PrototypeIndex(coords)
        idx, _ = index.query(base[3])
        assert idx == 3

    def test_engineered_midpoint_tie(self):
        coords = np.array([[0.0, 0.0], [2.0, 0.0], [4.0, 0.0]])
        index = pm.PrototypeIndex(coords)
        assert index.query(np.array([1.0, 0.0]))[0] == 0  # tie 0 vs 1
        assert index.query(np.array([3.0, 0.0]))[0] == 1  # tie 1 vs 2

    def test_many_duplicates_stress(self):
        rng = np.random.default_rng(2)
        base = rng.standard_normal((6, 2))
        coords = np.vstack([base[rng.integers(0, 6, 40)]])
        index = pm.PrototypeIndex(coords)
        for _ in range(200):
            x = base[rng.integers(0, 6)] + rng.standard_normal(2) * 1e-9
            kd = index.query(x)
            scan = index.query_exhaustive(x)
            assert kd == scan

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            pm.PrototypeIndex(np.array([[np.nan, 0.0]]))

    def test_query_dimension_checked(self):
        index = pm.PrototypeIndex(np.zeros((2, 3)))
        for query in (index.query, index.query_exhaustive):
            with pytest.raises(ValueError, match="dimension"):
                query(np.zeros(2))

    def test_build_index_from_prototype_set(self):
        rng = np.random.default_rng(3)
        pi = PrototypeSet(rng.standard_normal((5, 2)), (0, 1, 2, 3, 4))
        index = pm.build_index(pi)
        x = rng.standard_normal(2)
        assert index.query(x)[0] == brute_nearest(pi.coords, x)


class TestPredictMaxProb:
    def _setup(self, K=6, m=3, seed=0):
        rng = np.random.default_rng(seed)
        pi = PrototypeSet(rng.standard_normal((K, m)), tuple(range(K)))
        return rng, pi, pm.build_index(pi)

    def test_on_prototype(self):
        _, pi, index = self._setup()
        pred = pm.predict_max_prob(pi.coords[4], index, pi, EUC)
        assert pred.node_id == 4
        assert pred.scheme == "max-prob"

    def test_equidistant_pair_takes_lower_index(self):
        coords = np.array([[1.0, 0.0], [-1.0, 0.0]])
        pi = PrototypeSet(coords, (0, 1))
        pred = pm.predict_max_prob(np.zeros(2), pm.build_index(pi), pi, EUC)
        assert pred.index == 0

    @pytest.mark.parametrize("spec", [EUC, DistanceSpec("squared-euclidean"),
                                      DistanceSpec("huber", 0.1)])
    def test_agrees_with_posterior_argmax(self, spec):
        rng, pi, index = self._setup(seed=4)
        for _ in range(500):
            e = rng.standard_normal(3) * rng.uniform(0.2, 2)
            pred = pm.predict_max_prob(e, index, pi, spec)
            assert pred.index == int(np.argmax(pred.posterior))
            assert pred.posterior.sum() == pytest.approx(1.0, abs=1e-12)

    def test_invariant_under_positive_rescaling(self):
        rng, pi, _ = self._setup(seed=5)
        for c in (0.01, 1.0, 100.0):
            scaled = pi.with_coords(pi.coords * c)
            index_c = pm.build_index(scaled)
            for _ in range(50):
                e = rng.standard_normal(3)
                a = pm.predict_max_prob(e, pm.build_index(pi), pi, EUC)
                b = pm.predict_max_prob(e * c, index_c, scaled, EUC)
                assert a.index == b.index


class TestExpectedCosts:
    """EC[i, k] = sum_l P[i, l] * costs[k, l], the one product in `_decide`."""

    def test_one_hot_posterior_reads_cost_column(self):
        D = np.array([[0.0, 2.0, 4.0], [2.0, 0.0, 4.0], [4.0, 4.0, 0.0]])
        post = np.array([0.0, 1.0, 0.0])
        _, ec = _decide(post[None, :], D, "min-ec")
        np.testing.assert_array_equal(ec[0], D[:, 1])

    def test_uniform_metric_is_one_minus_p(self):
        K = 5
        D = np.ones((K, K)) - np.eye(K)
        rng = np.random.default_rng(6)
        P = rng.dirichlet(np.ones(K), size=4)
        _, ec = _decide(P, D, "min-ec")
        np.testing.assert_allclose(ec, 1.0 - P, rtol=1e-12)

    def test_matches_double_loop_oracle(self):
        # more posterior classes (6) than candidates (4), as in any-node
        rng = np.random.default_rng(7)
        D = np.abs(rng.standard_normal((4, 6)))
        post = rng.dirichlet(np.ones(6))
        expected = [sum(post[l] * D[k, l] for l in range(6)) for k in range(4)]
        preds, ec = _decide(post[None, :], D, "any-node")
        np.testing.assert_allclose(ec[0], expected, rtol=1e-12)
        assert preds[0] == int(np.argmin(expected))

    def test_dimension_mismatch(self):
        metric = pm.FiniteMetric(("a", "b"), np.ones((2, 2)) - np.eye(2))
        pi = PrototypeSet(np.eye(3), (0, 1, 2))
        with pytest.raises(ValueError, match="size"):
            pm.predict_min_expected_cost(np.zeros(3), pi, EUC, metric)


class TestPredictMinExpectedCost:
    def test_uniform_metric_equals_max_prob(self):
        rng = np.random.default_rng(8)
        K = 5
        metric = pm.FiniteMetric(tuple(f"c{i}" for i in range(K)),
                                 np.ones((K, K)) - np.eye(K))
        pi = PrototypeSet(rng.standard_normal((K, 3)), tuple(range(K)))
        index = pm.build_index(pi)
        for _ in range(100):
            e = rng.standard_normal(3)
            mp = pm.predict_max_prob(e, index, pi, EUC)
            ec = pm.predict_min_expected_cost(e, pi, EUC, metric)
            assert mp.index == ec.index

    def test_one_hot_posterior_returns_support_leaf(self):
        metric = pm.FiniteMetric(("a", "b", "c"),
                                 np.array([[0.0, 2.0, 4.0], [2.0, 0.0, 4.0],
                                           [4.0, 4.0, 0.0]]))
        coords = np.array([[0.0, 0.0], [50.0, 0.0], [0.0, 50.0]])
        pi = PrototypeSet(coords, (0, 1, 2))
        pred = pm.predict_min_expected_cost(np.array([50.0, 0.0]), pi, EUC, metric)
        assert pred.node_id == 1

    def test_matches_brute_force_argmin(self, toy_tax):
        rng = np.random.default_rng(9)
        metric = pm.cost_matrix(toy_tax)
        pi = PrototypeSet(rng.standard_normal((3, 4)), toy_tax.leaf_ids)
        for _ in range(200):
            e = rng.standard_normal(4)
            pred = pm.predict_min_expected_cost(e, pi, EUC, metric)
            ec = metric.costs @ pred.posterior
            assert pred.index == int(np.argmin(ec))
            np.testing.assert_allclose(pred.expected_costs, ec, rtol=1e-12)


class TestPredictAnyNode:
    """Exhaustive expected-cost tables on the toy tree.

    Document order root-first so the shared parent A precedes its leaves;
    ties then resolve to the parent node.
    """

    def _setup(self):
        tax = pm.parse_taxonomy("A\troot\nB\troot\na1\tA\na2\tA\nb1\tB\n")
        metric_all = pm.cost_matrix(tax, "all-nodes")
        # prototypes whose posterior we control through exact placement
        coords = np.array([[0.0, 0.0], [8.0, 0.0], [0.0, 8.0]])
        pi = PrototypeSet(coords, tax.leaf_ids)
        return tax, metric_all, pi

    def _ec_table(self, tax, metric_all, post):
        cols = [metric_all.class_names.index(n) for n in tax.leaf_names]
        return metric_all.costs[:, cols] @ post

    def test_one_hot_posterior_returns_the_leaf(self):
        tax, metric_all, pi = self._setup()
        e = pi.coords[0]  # sits on leaf a1's prototype, others 8 away
        pred = pm.predict_any_node(e, pi, EUC, metric_all, tax)
        oracle = self._ec_table(tax, metric_all, pred.posterior)
        assert pred.index == int(np.argmin(oracle))
        assert tax.nodes[pred.node_id].name == "a1"

    def test_dispersed_siblings_tie_resolves_to_parent(self):
        tax, metric_all, pi = self._setup()
        post = np.array([0.5, 0.5, 0.0])  # uniform over a1, a2 (b1 at cost >= 4)
        oracle = self._ec_table(tax, metric_all, post)
        # EC(A) == EC(a1) == EC(a2) == 1; A has the lowest document index
        names = metric_all.class_names
        assert oracle[names.index("A")] == pytest.approx(1.0)
        assert oracle[names.index("a1")] == pytest.approx(1.0)
        winner = int(np.argmin(oracle))
        assert names[winner] == "A"
        # through the prediction API: equidistant from a1 and a2, far from b1
        e = np.array([4.0, 0.0])
        pred = pm.predict_any_node(e, pi, EUC, metric_all, tax)
        table = self._ec_table(tax, metric_all, pred.posterior)
        assert pred.index == int(np.argmin(table))
        assert tax.nodes[pred.node_id].name == "A"

    def test_concentrated_posterior_returns_leaf(self):
        tax, metric_all, pi = self._setup()
        # posterior 0.9 on a1: EC(a1) = 0.2 beats EC(A) = 1
        post = np.array([0.9, 0.1, 0.0])
        oracle = self._ec_table(tax, metric_all, post)
        names = metric_all.class_names
        assert names[int(np.argmin(oracle))] == "a1"
        assert oracle[names.index("a1")] == pytest.approx(0.2)

    def test_prediction_minimizes_ec_over_all_nodes(self):
        tax, metric_all, pi = self._setup()
        rng = np.random.default_rng(10)
        for _ in range(100):
            e = rng.standard_normal(2) * 4
            pred = pm.predict_any_node(e, pi, EUC, metric_all, tax)
            assert pred.expected_costs is not None
            assert np.all(pred.expected_costs[pred.index]
                          <= pred.expected_costs + 1e-15)

    def test_taxonomy_metric_mismatch(self, toy_tax):
        tax, metric_all, pi = self._setup()
        other = pm.cost_matrix(toy_tax, "all-nodes")
        with pytest.raises(ValueError, match="match"):
            pm.predict_any_node(np.zeros(2), pi, EUC, other, tax)


def test_nearest_prototype_is_the_same_under_every_kind():
    # nearest under any supported kind equals nearest under the Euclidean norm
    rng = np.random.default_rng(11)
    coords = rng.standard_normal((20, 4))
    pi = PrototypeSet(coords, tuple(range(20)))
    index = pm.build_index(pi)
    for spec in (DistanceSpec("squared-euclidean"), DistanceSpec("huber", 0.1)):
        for _ in range(100):
            e = rng.standard_normal(4)
            nearest = index.query(e)[0]
            dists = [distance(spec, e, coords[k]) for k in range(20)]
            assert nearest == int(np.argmin(dists))


@pytest.mark.parametrize("scheme", ["max-prob", "min-ec", "any-node"])
def test_batch_predict_matches_single_sample_functions(scheme):
    rng = np.random.default_rng(12)
    tax = random_taxonomy_with_leaves(7, rng)
    spec = DistanceSpec("huber", 0.5)
    model = pm.init_embedding_model("linear", 5, 3, rng=rng)
    pi = PrototypeSet(rng.standard_normal((7, 3)), tax.leaf_ids)
    ckpt = pm.Checkpoint(model=model, prototypes=pi, distance=spec, taxonomy=tax)
    X = rng.standard_normal((200, 5)) * 2
    preds, metric, P, ec = pm.predict(ckpt, X, scheme)
    index = pm.build_index(pi)
    for i, e in enumerate(pm.forward(model, X)):
        if scheme == "max-prob":
            one = pm.predict_max_prob(e, index, pi, spec)
        elif scheme == "min-ec":
            one = pm.predict_min_expected_cost(e, pi, spec, metric)
        else:
            one = pm.predict_any_node(e, pi, spec, metric, tax)
        assert preds[i] == one.index
        assert metric.class_names[preds[i]] == tax.names[one.node_id]
        np.testing.assert_array_equal(P[i], one.posterior)
        if one.expected_costs is not None:
            np.testing.assert_allclose(ec[i], one.expected_costs, rtol=1e-12)


@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("kind", ["euclidean", "squared-euclidean", "huber", "linear-head"])
def test_row_blocks_match_one_pass(monkeypatch, scheme, kind):
    # 2003 rows in six near-equal blocks of at most 350 rows, one row short
    # in some, against one block of all of them
    rng = np.random.default_rng(13)
    tax = random_taxonomy_with_leaves(9, rng)
    K = len(tax.leaf_ids)
    model = pm.init_embedding_model("mlp", 5, 3, hidden=(8,), rng=rng)
    pi = PrototypeSet(rng.standard_normal((K, 3)), tax.leaf_ids)
    head = pm.LinearHead(K, 3, rng.standard_normal(4 * K)) if kind == "linear-head" else None
    spec = DistanceSpec("euclidean" if head else kind, 0.5)
    ckpt = pm.Checkpoint(model, pi, spec, tax, head)
    X = rng.standard_normal((2003, 5)) * 3

    monkeypatch.setattr(geometry, "BUDGET", 1 << 62)
    preds, metric, P, ec = pm.predict(ckpt, X, scheme)
    monkeypatch.setattr(geometry, "BUDGET", 8 * K * 350)  # the posterior sizes from K
    _, blocks = inference.predict_blocks(ckpt, X, scheme)
    blocked_preds, blocked_P, blocked_ec = zip(*blocks)
    sizes = [len(b) for b in blocked_preds]
    assert len(sizes) == 6 and max(sizes) == 334 and min(sizes) == 333, sizes

    # the prototype head computes each row alone; the linear head's logits
    # are a BLAS product, which keeps its bits under near-equal splits too
    np.testing.assert_array_equal(np.concatenate(blocked_P), P)
    if scheme == "max-prob":
        assert ec is None and set(blocked_ec) == {None}
        np.testing.assert_array_equal(np.concatenate(blocked_preds), preds)
        return
    # EC is a BLAS product of K nonnegative terms per entry: any two
    # summation orders agree within relative K eps, and so do the decisions
    # unless the two best candidates are that close
    blocked_ec, blocked_preds = np.concatenate(blocked_ec), np.concatenate(blocked_preds)
    bound = K * np.finfo(np.float64).eps * ec
    assert np.all(np.abs(blocked_ec - ec) <= bound)
    best, second = np.sort(ec, axis=1)[:, :2].T
    near = second - best <= 2 * bound.max(axis=1)
    np.testing.assert_array_equal(blocked_preds[~near], preds[~near])
    assert np.all(ec[near, blocked_preds[near]] - best[near] <= 2 * bound.max(axis=1)[near])


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 6).flatmap(lambda n: st.sampled_from((1, 2, 3, 4, 40)).flatmap(
    lambda K: arrays(np.float64, (n, K), elements=st.sampled_from((0.0, 1 / 3, 2 / 3, 1.0))))))
@example(np.zeros((0, 1)))
@example(np.full((2, 2), 0.5))
@example(np.array([[0.0, 1.0, 1.0, 0.0, 1.0]]))
def test_top3_is_the_stable_sort_prefix(P):
    # a grid full of ties: the lowest index wins each, as in the stable sort
    np.testing.assert_array_equal(top3(P), np.argsort(-P, axis=1, kind="stable")[:, :3])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_embedding_rejected(toy_tax, bad):
    # a NaN distance would otherwise pass argmin and argmax as index 0
    pi = PrototypeSet(np.eye(3), toy_tax.leaf_ids)
    index = pm.build_index(pi)
    metric, metric_all = pm.cost_matrix(toy_tax), pm.cost_matrix(toy_tax, "all-nodes")
    e = np.array([bad, 0.0, 0.0])
    for entry in (index.query, index.query_exhaustive,
                  lambda x: pm.predict_max_prob(x, index, pi, EUC),
                  lambda x: pm.predict_min_expected_cost(x, pi, EUC, metric),
                  lambda x: pm.predict_any_node(x, pi, EUC, metric_all, toy_tax)):
        with pytest.raises(ValueError, match="coordinates must be finite"):
            entry(e)
