import io
import os
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import protometric as pm
from protometric import DataError, data
from protometric.data import read_numeric

from conftest import random_taxonomy, read_table


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


def _outcome(read, source, column, required):
    try:
        texts, X = read(source, column, required)
    except DataError as exc:
        return str(exc)
    X = np.asarray(X, dtype=np.float64)  # read_table's float lists
    return texts, X.shape, X.view(np.int64).tolist()


def assert_reads_as_the_loop(source, column="label", required=True):
    """read_numeric gives read_table's texts and bits, or its DataError text."""
    assert (_outcome(read_numeric, source, column, required)
            == _outcome(read_table, source, column, required))


# cells the two parsers could read apart: all that float() and loadtxt both
# take, all that only one of them takes, and CSV structure (commas, quotes,
# line breaks, "#")
TRICKY = [" 1.5", "1.5 ", "+1", ".5", "1.", "-0.0", "5e-324", "1_000", "\u0661", "0x10",
          "nan", "inf", "-inf", "1e309", "#1", '"1"', "1\x1c", "\x1f2", "", "  ", "\t1",
          "\xa01", "1\x00", "1,2", "1\r", "1\r\n2"]
NUMBER_CELLS = st.one_of(st.floats().map(repr), st.sampled_from(TRICKY),
                         st.text(alphabet="0123456789.eE+-_ \t\x0b\x0c\x1c\x1f\xa0\u0661#\"\r"
                                          "naifxj,\n\x00", max_size=8))
TEXT_CELLS = st.one_of(st.text(alphabet='ab1 \t"#,\r\n\x00\x1c\xe9\ufeff', max_size=6),
                       st.sampled_from(['"a"', '"a""b"', '" a"', '""']))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(NUMBER_CELLS, NUMBER_CELLS, TEXT_CELLS), max_size=4),
       st.booleans())
def test_read_numeric_reads_any_cells_as_the_loop(rows, labelled):
    assert_reads_as_the_loop(*_cells_table(rows, labelled))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(NUMBER_CELLS, NUMBER_CELLS, TEXT_CELLS), max_size=4),
       st.booleans())
def test_read_numeric_reads_any_cells_as_the_loop_one_row_at_a_time(rows, labelled):
    with mock.patch.object(data, "BLOCK_ROWS", 1):
        assert_reads_as_the_loop(*_cells_table(rows, labelled))


def _cells_table(rows, labelled):
    """(text, column, required) of a table of generated cells."""
    if labelled:
        return "x,y,label\n" + "".join(f"{a},{b},{c}\n" for a, b, c in rows), "label", True
    # a feature file: no text column
    return "x,y\n" + "".join(f"{a},{b}\n" for a, b, _ in rows), "label", False


TABLES = {
    "plain": "x,y,label\n1.5,-2,a1\n3,4e-3,b1\n",
    "extra-cell": "x,y,label\n1,2,a1\n3,4,b,5\n",
    "missing-cell": "x,y,label\n1,2,a1\n3,b1\n",
    "hash-row": "x,y,label\n1,2,a1\n#3,4,b1\n",
    "hash-label": "x,y,label\n1,2,#a1\n",
    "quoted": 'x,y,label\n"1",2,"a1"\n3,4,"b,1"\n',
    "quoted-label": 'x,y,label\n1,2,"a1"\n',
    "crlf": "x,y,label\r\n1,2,a1\r\n3,4,b1\r\n",
    "cr-in-header": "x,y\ry\n1,2\n",
    "blank-lines": "\nx,y,label\n\n1,2,a1\n\n\n3,4,b1\n\n",
    "whitespace-line": "x,y,label\n1,2,a1\n  \n3,4,b1\n",
    "whitespace-line-one-column": "x\n1\n \n2\n",
    "padded-labels": "x,label\n1, a1 \n2,\tb1\n",
    "bom": "\ufeffx,y,label\n1,2,a1\n",
    "bom-on-label": "\ufefflabel,x\na1,1\n",
    "header-only": "x,y,label\n",
    "blank": "\n\n",
    "no-label-column": "x,y\n1,2\n",
    "only-the-label-column": "label\na1\n",
    "no-final-newline": "x,label\n1,a1\n2,b1",
}
TABLES.update({f"{name}-crlf": TABLES[name].replace("\n", "\r\n") for name in
               ["blank-lines", "padded-labels", "bom", "no-label-column", "no-final-newline"]})


@pytest.mark.parametrize("required", [True, False])
@pytest.mark.parametrize("as_file", [False, True], ids=["text", "file"])
@pytest.mark.parametrize("name", TABLES)
def test_read_numeric_reads_tables_as_the_loop(tmp_path, name, as_file, required):
    source = TABLES[name]
    if as_file:
        path = tmp_path / "table.csv"
        path.write_bytes(source.encode("utf-8"))
        source = str(path)
    assert_reads_as_the_loop(source, "label", required)


@pytest.mark.parametrize("block_rows", [1, 2, 3])
@pytest.mark.parametrize("name", TABLES)
def test_read_numeric_reads_tables_as_the_loop_in_small_blocks(tmp_path, name, block_rows):
    path = tmp_path / "table.csv"
    path.write_bytes(TABLES[name].encode("utf-8"))
    with mock.patch.object(data, "BLOCK_ROWS", block_rows):
        for source in (TABLES[name], str(path)):
            for required in (True, False):
                assert_reads_as_the_loop(source, "label", required)


# rows that end a table: a cell float rejects, a non-finite cell, a wrong cell
# count and a carriage return in CSV text (csv's own error)
FAULTS = {"non-numeric": "0x10,2,a1", "non-finite": "1,inf,a1", "short": "1,a1",
          "long": "1,2,a1,3", "cr": "1,\r2,a1"}


@pytest.mark.parametrize("block_rows", [1, 2, 3, 4, 64])
@pytest.mark.parametrize("first", FAULTS)
def test_the_first_bad_row_wins_wherever_the_blocks_fall(first, block_rows):
    # each fault alone, and followed by a second one, on every data row from
    # 1 to 7: before, on and after the block boundaries
    with mock.patch.object(data, "BLOCK_ROWS", block_rows):
        for later in [None, *FAULTS]:
            for at in range(7):
                for gap in (1, 2):
                    rows = [f"{i}.5,-{i},b1" for i in range(10)]
                    rows[at] = FAULTS[first]
                    if later is not None:
                        rows[at + gap] = FAULTS[later]
                    text = "x,y,label\n" + "\n".join(rows) + "\n"
                    want = _outcome(read_table, text, "label", True)
                    assert isinstance(want, str) and f"row {at + 2}" in want
                    assert _outcome(read_numeric, text, "label", True) == want, (text, want)


def test_reader_memory_grows_with_x_alone(tmp_path):
    # tracemalloc peak of a read: X and one block, so 4N rows peak less than
    # 3 times X's growth above N rows (about 1.2 here); the row loop's float
    # lists, then np.array, peak at over 7 times
    rng = np.random.default_rng(0)
    N, d = 2000, 8
    peak = {}
    for n in (N, 4 * N):
        path = tmp_path / f"t{n}.csv"
        path.write_text(",".join(f"f{j}" for j in range(d)) + ",label\n" + "".join(
            ",".join(map(repr, row)) + f",c{k}\n"
            for row, k in zip(rng.standard_normal((n, d)).tolist(),
                              rng.integers(0, 8, n).tolist())))
        tracemalloc.start()
        try:
            texts, X = read_numeric(str(path), "label", True)
            peak[n] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert X.shape == (n, d) and len(texts) == n
    assert peak[4 * N] - peak[N] < 3 * (3 * N * d * 8), peak


def test_read_numeric_leaves_a_callers_stream_open():
    stream = io.StringIO("x,label\n1,a\n")
    texts, X = read_numeric(stream, "label")
    assert texts == ["a"] and X.tolist() == [[1.0]]
    assert not stream.closed


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
def test_read_numeric_reads_a_pipe_once():
    # a pipe can be read only once, as the reader reads every source
    r, w = os.pipe()
    os.write(w, TABLES["plain"].encode("utf-8"))
    os.close(w)
    try:
        got = _outcome(read_numeric, f"/dev/fd/{r}", "label", True)
    finally:
        os.close(r)
    assert got == _outcome(read_table, TABLES["plain"], "label", True)


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

    def test_a_callers_writes_leave_the_dataset_unchanged(self, toy_tax):
        # writable inputs, and read-only views of writable ones, are copied
        X, z = np.arange(6.0).reshape(3, 2), np.array([0, 1, 2])
        view = X[:]
        view.setflags(write=False)
        datasets = [pm.Dataset(X, z, toy_tax.leaf_names),
                    pm.Dataset(view, z, toy_tax.leaf_names)]
        X[0, 0], z[0] = 99.0, 2
        for ds in datasets:
            assert ds.features.tolist() == [[0.0, 1.0], [2.0, 3.0], [4.0, 5.0]]
            assert ds.labels.tolist() == [0, 1, 2]
            assert not ds.features.flags.writeable and not ds.labels.flags.writeable

    def test_read_only_inputs_are_kept(self, toy_tax):
        ds = pm.gen_hierarchical_gaussians(toy_tax, 4, 3, rng=np.random.default_rng(7))
        again = pm.Dataset(ds.features, ds.labels, ds.class_names)
        assert again.features is ds.features and again.labels is ds.labels
        _, X = read_numeric("a,b\n1,2\n3,4\n", "label")
        assert pm.Dataset(X, [0, 1], toy_tax.leaf_names).features is X


def test_load_csv_memory_grows_with_x_alone(tmp_path):
    # the dataset keeps the reader's read-only X: 4N rows peak less than 2
    # times X's growth above N rows (about 1.0 here), where a copy of X in
    # Dataset took it to about 2.3
    rng = np.random.default_rng(1)
    tax = pm.parse_taxonomy("".join(f"c{k}\troot\n" for k in range(8)))
    N, d = 2000, 16
    peak = {}
    for n in (N, 4 * N):
        path = tmp_path / f"t{n}.csv"
        path.write_text(",".join(f"f{j}" for j in range(d)) + ",label\n" + "".join(
            ",".join(map(repr, row)) + f",c{k}\n"
            for row, k in zip(rng.standard_normal((n, d)).tolist(),
                              rng.integers(0, 8, n).tolist())))
        tracemalloc.start()
        try:
            ds = pm.load_csv(str(path), "label", tax)
            peak[n] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert ds.features.shape == (n, d)
    assert peak[4 * N] - peak[N] < 2 * (3 * N * d * 8), peak


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
