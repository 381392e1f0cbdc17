import json
import tracemalloc

import numpy as np
import pytest

import protometric as pm
from protometric import DistanceSpec, PrototypeSet

from conftest import random_taxonomy_with_leaves

EUC = DistanceSpec("euclidean")


@pytest.fixture
def toy_metric(toy_tax):
    return pm.cost_matrix(toy_tax)


class TestEvaluate:
    def test_perfect_predictions(self, toy_metric):
        z = np.array([0, 1, 2, 0, 1])
        report = pm.evaluate(z, z, toy_metric)
        assert report.er == 0.0
        assert report.ac == 0.0
        assert report.n == 5
        assert int(np.trace(report.confusion)) == 5

    def test_single_error_of_cost_four(self, toy_metric):
        labels = np.array([0, 1, 2, 0])
        preds = np.array([0, 1, 2, 2])  # a1 -> b1 costs 4
        report = pm.evaluate(preds, labels, toy_metric)
        assert report.er == pytest.approx(0.25)
        assert report.ac == pytest.approx(1.0)

    def test_ac_matches_direct_sum(self, toy_metric):
        rng = np.random.default_rng(0)
        labels = rng.integers(0, 3, 200)
        preds = rng.integers(0, 3, 200)
        report = pm.evaluate(preds, labels, toy_metric)
        direct = sum(toy_metric.costs[p, z] for p, z in zip(preds, labels)) / 200
        assert report.ac == pytest.approx(direct, rel=1e-12)

    def test_confusion_indexed_true_then_predicted(self, toy_metric):
        labels = np.array([0, 0, 0])
        preds = np.array([1, 1, 2])
        report = pm.evaluate(preds, labels, toy_metric)
        assert report.confusion[0, 1] == 2
        assert report.confusion[0, 2] == 1
        assert report.confusion[1, 0] == 0

    def test_er_equals_offdiagonal_mass(self, toy_metric):
        rng = np.random.default_rng(1)
        labels = rng.integers(0, 3, 100)
        preds = rng.integers(0, 3, 100)
        report = pm.evaluate(preds, labels, toy_metric)
        off = report.confusion.sum() - np.trace(report.confusion)
        assert report.er == pytest.approx(off / report.n, rel=1e-12)

    def test_length_mismatch(self, toy_metric):
        with pytest.raises(ValueError, match="equally long"):
            pm.evaluate(np.zeros(3, int), np.zeros(4, int), toy_metric)

    def test_unknown_class_id(self, toy_metric):
        with pytest.raises(ValueError, match="out of range"):
            pm.evaluate(np.array([5]), np.array([0]), toy_metric)

    def test_bounds_from_cost_range(self, toy_metric):
        rng = np.random.default_rng(2)
        labels = rng.integers(0, 3, 300)
        preds = rng.integers(0, 3, 300)
        report = pm.evaluate(preds, labels, toy_metric)
        off = toy_metric.costs[~np.eye(3, dtype=bool)]
        assert report.ac <= report.er * off.max() + 1e-12
        assert report.ac >= report.er * off.min() - 1e-12

    def test_ac_zero_iff_er_zero(self, toy_metric):
        rng = np.random.default_rng(3)
        for _ in range(20):
            labels = rng.integers(0, 3, 50)
            preds = labels.copy()
            if rng.random() < 0.5:
                preds[rng.integers(0, 50)] = (preds[rng.integers(0, 50)] + 1) % 3
            report = pm.evaluate(preds, labels, toy_metric)
            assert (report.ac == 0.0) == (report.er == 0.0)

    def test_distortion_report_attached(self, toy_tax, toy_metric, monkeypatch):
        # the leaves-only report of the leaf prototypes, whatever the scheme;
        # no scheme builds a cost matrix beyond the one predict builds
        from protometric import taxonomy

        builds = []
        cost_matrix = taxonomy.cost_matrix
        monkeypatch.setattr(taxonomy, "cost_matrix",
                            lambda *args: builds.append(args) or cost_matrix(*args))
        rng = np.random.default_rng(4)
        pi = PrototypeSet(rng.standard_normal((3, 2)), toy_tax.leaf_ids)
        model = pm.init_embedding_model("identity", 2, 2)
        ckpt = pm.Checkpoint(model=model, prototypes=pi, distance=EUC, taxonomy=toy_tax)
        dataset = pm.Dataset(rng.standard_normal((6, 2)), np.array([0, 1, 2] * 2),
                             toy_tax.leaf_names)
        expected = pm.distortion_report(pi, toy_metric, EUC)
        assert expected.scale_free_distortion <= expected.distortion
        for scheme, n_builds in (("max-prob", 1), ("min-ec", 1), ("any-node", 1)):
            builds.clear()
            report = pm.evaluate_checkpoint(ckpt, dataset, scheme)
            assert report.distortion == expected
            assert len(builds) == n_builds, scheme


def test_head_checkpoint_memory_grows_with_the_embeddings_alone():
    # the class-mean stand-ins embed every row, and the forward pass holds
    # one block's activations at a time: above N rows, 3N rows peak less
    # than twice E's growth (about 1.0 here), where one unblocked pass of
    # the MLP grew by about 4 times it
    rng = np.random.default_rng(0)
    tax = random_taxonomy_with_leaves(8, rng)
    model = pm.init_embedding_model("mlp", 16, 64, (32, 32), "relu", rng)
    head = pm.LinearHead(8, 64, rng.standard_normal(8 * 64 + 8))
    ckpt = pm.Checkpoint(model, PrototypeSet(np.zeros((8, 64)), tax.leaf_ids), EUC, tax, head)
    N, peak = 10000, {}
    for n in (N, 3 * N):
        dataset = pm.Dataset(rng.standard_normal((n, 16)), np.arange(n) % 8, tax.leaf_names)
        tracemalloc.start()
        try:
            report = pm.evaluate_checkpoint(ckpt, dataset, "max-prob")
            peak[n] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.n == n
    assert peak[3 * N] - peak[N] < 2 * (2 * N * 64 * 8), peak


def test_head_checkpoint_stand_ins_hold_one_block_of_embeddings():
    # the class means sum one forward block at a time: above N rows, 3N rows
    # peak by far less than E's growth, which holding E grew by about once
    rng = np.random.default_rng(0)
    tax = random_taxonomy_with_leaves(8, rng)
    model = pm.init_embedding_model("mlp", 16, 64, (32, 32), "relu", rng)
    head = pm.LinearHead(8, 64, rng.standard_normal(8 * 64 + 8))
    ckpt = pm.Checkpoint(model, PrototypeSet(np.zeros((8, 64)), tax.leaf_ids), EUC, tax, head)
    N, peak = 10000, {}
    for n in (N, 3 * N):
        dataset = pm.Dataset(rng.standard_normal((n, 16)), np.arange(n) % 8, tax.leaf_names)
        tracemalloc.start()
        try:
            pm.evaluate_checkpoint(ckpt, dataset, "max-prob")
            peak[n] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak[3 * N] - peak[N] < (2 * N * 64 * 8) / 4, peak


class TestAggregateReports:
    RUNS = [{"er": er, "ac": 2 * er, "l_er": None, "r_er": None,
             "distortion": {"scale_free_distortion": er / 10}} for er in (0.1, 0.2, 0.6)]

    def test_median_and_mean(self):
        median = pm.aggregate_reports(self.RUNS, "median")
        mean = pm.aggregate_reports(self.RUNS, "mean")
        assert median["er"] == 0.2 and median["ac"] == 0.4
        assert mean["er"] == pytest.approx(0.3) and mean["l_er"] is None
        assert median["scale_free_distortion"] == pytest.approx(0.02)

    @pytest.mark.parametrize("how", ["avg", "Median", ""])
    def test_unknown_average_is_rejected(self, how):
        with pytest.raises(ValueError, match="unknown aggregation"):
            pm.aggregate_reports(self.RUNS, how)


class TestAnyNodeVariants:
    def _all_nodes_setup(self, tax):
        metric_all = pm.cost_matrix(tax, "all-nodes")
        leaf_mask = np.array([tax.is_leaf(i) for i in range(tax.n_nodes)])
        label_map = np.array(tax.leaf_ids)
        return metric_all, leaf_mask, label_map

    def test_internal_predictions_counted(self, toy_tax):
        metric_all, leaf_mask, label_map = self._all_nodes_setup(toy_tax)
        labels = label_map[np.array([0, 0, 1, 2])]
        a_id = toy_tax.names.index("A")
        preds = np.array([labels[0], a_id, labels[2], a_id])
        report = pm.evaluate(preds, labels, metric_all, leaf_mask=leaf_mask)
        # plain ER: 2 wrong; L-ER: internal predictions are always wrong
        assert report.er == pytest.approx(0.5)
        assert report.l_er == pytest.approx(0.5)
        # R-ER: only the two leaf-predicted samples, both correct
        assert report.r_er == pytest.approx(0.0)
        # AC charges the tree distance to the internal node
        expected_ac = (0 + 1 + 0 + metric_all.costs[a_id, labels[3]]) / 4
        assert report.ac == pytest.approx(expected_ac)

    def test_l_er_equals_er_when_all_leaves(self, toy_tax):
        metric_all, leaf_mask, label_map = self._all_nodes_setup(toy_tax)
        rng = np.random.default_rng(5)
        labels = label_map[rng.integers(0, 3, 50)]
        preds = label_map[rng.integers(0, 3, 50)]
        report = pm.evaluate(preds, labels, metric_all, leaf_mask=leaf_mask)
        assert report.l_er == report.er
        assert report.r_er == report.er

    def test_l_er_at_least_er(self, toy_tax):
        metric_all, leaf_mask, label_map = self._all_nodes_setup(toy_tax)
        rng = np.random.default_rng(6)
        labels = label_map[rng.integers(0, 3, 100)]
        preds = labels.copy()
        internal = [i for i in range(toy_tax.n_nodes) if not leaf_mask[i]]
        swap = rng.random(100) < 0.3
        preds[swap] = rng.choice(internal, swap.sum())
        report = pm.evaluate(preds, labels, metric_all, leaf_mask=leaf_mask)
        assert report.l_er >= report.er - 1e-12

    def test_labels_must_be_leaves(self, toy_tax):
        metric_all, leaf_mask, _ = self._all_nodes_setup(toy_tax)
        root = toy_tax.names.index("root")
        with pytest.raises(ValueError, match="leaf"):
            pm.evaluate(np.array([0]), np.array([root]), metric_all,
                        leaf_mask=leaf_mask)


class TestSerialization:
    def test_report_json(self, toy_metric):
        labels = np.array([0, 1, 2, 0])
        preds = np.array([0, 1, 2, 2])
        report = pm.evaluate(preds, labels, toy_metric)
        payload = json.loads(json.dumps(report.to_dict()))
        assert payload["er"] == 0.25
        assert payload["ac"] == 1.0
        assert payload["n"] == 4
        assert payload["l_er"] is None
        assert payload["distortion"] is None

    def test_confusion_csv(self, toy_metric):
        labels = np.array([0, 0])
        preds = np.array([1, 1])
        report = pm.evaluate(preds, labels, toy_metric)
        lines = report.confusion_to_csv().strip().split("\n")
        assert lines[0].endswith("a1,a2,b1")
        assert lines[1] == "a1,0,2,0"
