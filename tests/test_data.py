import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import protometric as pm
from protometric import DataError

from conftest import random_taxonomy


class TestGenHierarchicalGaussians:
    def test_counts_and_uniform_histogram(self, toy_tax):
        rng = np.random.default_rng(0)
        ds = pm.gen_hierarchical_gaussians(toy_tax, per_class=100, dims=8, rng=rng)
        assert ds.n == 300
        counts = np.bincount(ds.labels)
        np.testing.assert_array_equal(counts, [100, 100, 100])
        assert ds.class_names == toy_tax.leaf_names

    def test_decay_zero_collapses_deeper_levels(self):
        # depth-1 offsets survive, everything below lands on its level-1 mean
        text = "A\troot\nB\troot\na1\tA\na2\tA\nb1\tB\nb2\tB\n"
        tax = pm.parse_taxonomy(text)
        rng = np.random.default_rng(1)
        ds = pm.gen_hierarchical_gaussians(tax, per_class=50, dims=4,
                                           root_spread=5.0, decay=0.0,
                                           noise=1e-12, rng=rng)
        mean_a1 = ds.features[ds.labels == 0].mean(axis=0)
        mean_a2 = ds.features[ds.labels == 1].mean(axis=0)
        mean_b1 = ds.features[ds.labels == 2].mean(axis=0)
        np.testing.assert_allclose(mean_a1, mean_a2, atol=1e-9)
        assert np.linalg.norm(mean_a1 - mean_b1) > 1.0

    def test_bit_identical_for_fixed_seed(self, toy_tax):
        a = pm.gen_hierarchical_gaussians(toy_tax, 20, 5, rng=np.random.default_rng(3))
        b = pm.gen_hierarchical_gaussians(toy_tax, 20, 5, rng=np.random.default_rng(3))
        np.testing.assert_array_equal(a.features, b.features)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_parameter_validation(self, toy_tax):
        rng = np.random.default_rng(0)
        with pytest.raises(DataError):
            pm.gen_hierarchical_gaussians(toy_tax, 0, 4, rng=rng)
        with pytest.raises(DataError):
            pm.gen_hierarchical_gaussians(toy_tax, 5, 1, rng=rng)
        with pytest.raises(DataError):
            pm.gen_hierarchical_gaussians(toy_tax, 5, 4, decay=1.5, rng=rng)

    def test_taxonomy_alignment_property(self):
        # intra-subtree leaf means sit closer than inter-subtree ones
        text = "\n".join(f"{p}{c}\t{p}" for p in ("A", "B", "C") for c in ("1", "2"))
        text += "\nA\troot\nB\troot\nC\troot\n"
        tax = pm.parse_taxonomy(text)
        intra, inter = [], []
        for seed in range(20):
            rng = np.random.default_rng(seed)
            ds = pm.gen_hierarchical_gaussians(tax, 30, 6, root_spread=4.0,
                                               decay=0.5, noise=0.3, rng=rng)
            means = np.stack([ds.features[ds.labels == k].mean(axis=0)
                              for k in range(6)])
            parents = [tax.nodes[leaf].parent for leaf in tax.leaf_ids]
            for i in range(6):
                for j in range(i + 1, 6):
                    gap = float(np.linalg.norm(means[i] - means[j]))
                    (intra if parents[i] == parents[j] else inter).append(gap)
        assert np.mean(intra) < np.mean(inter)


class TestLoadCsv:
    def test_two_rows(self, toy_tax):
        text = "x,y,label\n1.0,2.0,a1\n3.5,-1.0,b1\n"
        ds = pm.load_csv(text, "label", toy_tax)
        assert ds.n == 2
        np.testing.assert_array_equal(ds.features, [[1.0, 2.0], [3.5, -1.0]])
        np.testing.assert_array_equal(ds.labels, [0, 2])

    def test_label_column_position_free(self, toy_tax):
        text = "label,x\na2,7.0\n"
        ds = pm.load_csv(text, "label", toy_tax)
        np.testing.assert_array_equal(ds.features, [[7.0]])
        assert ds.labels[0] == 1

    def test_unknown_label_names_row(self, toy_tax):
        text = "x,label\n1.0,a1\n2.0,dog\n"
        with pytest.raises(DataError, match=r"row 3.*dog"):
            pm.load_csv(text, "label", toy_tax)

    def test_header_only(self, toy_tax):
        with pytest.raises(DataError, match="header only"):
            pm.load_csv("x,label\n", "label", toy_tax)

    def test_empty_file(self, toy_tax):
        with pytest.raises(DataError, match="header"):
            pm.load_csv("\n", "label", toy_tax)

    def test_non_numeric_cell(self, toy_tax):
        text = "x,label\noops,a1\n"
        with pytest.raises(DataError, match=r"row 2.*oops"):
            pm.load_csv(text, "label", toy_tax)

    def test_missing_label_column(self, toy_tax):
        with pytest.raises(DataError, match="label column"):
            pm.load_csv("x,y\n1,2\n", "label", toy_tax)

    def test_roundtrip_through_csv_text(self, toy_tax):
        from protometric.data import dataset_to_csv

        rng = np.random.default_rng(4)
        ds = pm.gen_hierarchical_gaussians(toy_tax, 10, 3, rng=rng)
        again = pm.load_csv(dataset_to_csv(ds), "label", toy_tax)
        np.testing.assert_array_equal(again.features, ds.features)
        np.testing.assert_array_equal(again.labels, ds.labels)

    def test_reads_from_path(self, tmp_path, toy_tax):
        path = tmp_path / "data.csv"
        path.write_text("x,label\n1.5,a2\n")
        ds = pm.load_csv(str(path), "label", toy_tax)
        assert ds.n == 1


class TestSplit:
    def test_exact_halving(self, toy_tax):
        rng = np.random.default_rng(5)
        ds = pm.gen_hierarchical_gaussians(toy_tax, 10, 4, rng=rng)
        train, test = pm.split(ds, 0.5, np.random.default_rng(0))
        assert train.n == test.n == 15
        for k in range(3):
            assert (train.labels == k).sum() == 5
            assert (test.labels == k).sum() == 5

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10_000), st.floats(0.1, 0.9))
    def test_partition_is_exact(self, seed, fraction):
        rng = np.random.default_rng(seed)
        tax = random_taxonomy(int(rng.integers(4, 12)), rng)
        if len(tax.leaf_ids) < 2:
            return
        ds = pm.gen_hierarchical_gaussians(tax, int(rng.integers(3, 12)), 3, rng=rng)
        train, test = pm.split(ds, fraction, rng)
        assert train.n + test.n == ds.n
        key = lambda d: {tuple(row) for row in d.features}
        assert key(train) | key(test) == key(ds)
        assert not (key(train) & key(test))

    def test_deterministic(self, toy_tax):
        ds = pm.gen_hierarchical_gaussians(toy_tax, 12, 4, rng=np.random.default_rng(6))
        a = pm.split(ds, 0.25, np.random.default_rng(9))
        b = pm.split(ds, 0.25, np.random.default_rng(9))
        np.testing.assert_array_equal(a[0].features, b[0].features)
        np.testing.assert_array_equal(a[1].features, b[1].features)

    def test_singleton_class_warns_and_goes_to_train(self, toy_tax):
        features = np.array([[0.0], [1.0], [2.0], [3.0]])
        labels = np.array([0, 0, 1, 2])
        ds = pm.Dataset(features, labels, toy_tax.leaf_names)
        with pytest.warns(UserWarning, match="fewer than 2"):
            train, test = pm.split(ds, 0.5, np.random.default_rng(0))
        assert set(np.unique(test.labels)) == {0}
        assert train.n + test.n == 4

    def test_fraction_bounds(self, toy_tax):
        ds = pm.gen_hierarchical_gaussians(toy_tax, 4, 3, rng=np.random.default_rng(7))
        for bad in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(DataError):
                pm.split(ds, bad, np.random.default_rng(0))


class TestDatasetValidation:
    def test_rejects_non_finite(self, toy_tax):
        with pytest.raises(DataError, match="finite"):
            pm.Dataset(np.array([[np.inf, 0.0]]), np.array([0]), toy_tax.leaf_names)

    def test_rejects_bad_labels(self, toy_tax):
        with pytest.raises(DataError, match="out of range"):
            pm.Dataset(np.zeros((1, 2)), np.array([9]), toy_tax.leaf_names)

    def test_rejects_empty(self, toy_tax):
        with pytest.raises(DataError, match="non-empty"):
            pm.Dataset(np.zeros((0, 2)), np.zeros(0, dtype=int), toy_tax.leaf_names)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.lists(st.one_of(st.text(alphabet='ab,"\n \t'), st.floats(allow_nan=False),
                                   st.integers(), st.none()),
                         min_size=2, max_size=4), min_size=1, max_size=4))
def test_csv_text_quotes_as_csv_writer_and_reads_back(rows):
    # minimal quoting, byte for byte as csv.writer(lineterminator="\n") writes it
    import csv
    import io

    from protometric.formats import csv_text

    header, *body = rows
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows([header, *body])
    assert csv_text(header, body) == out.getvalue()
    back = list(csv.reader(io.StringIO(csv_text(header, body))))
    assert back == [["" if c is None else repr(c) if isinstance(c, float) else str(c)
                     for c in row] for row in [header, *body]]
