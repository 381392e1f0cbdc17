import importlib
import json
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import protometric as pm
from protometric import TaxonomyError

from conftest import TOY_EDGE_LIST, bfs_tree_distances, random_taxonomy, random_tree_text


class TestParseEdgeList:
    def test_toy_structure(self, toy_tax):
        assert toy_tax.n_nodes == 6
        assert toy_tax.names == ("a1", "A", "a2", "b1", "B", "root")
        assert toy_tax.leaf_names == ("a1", "a2", "b1")
        assert [n.name for n in toy_tax.nodes if n.parent is None] == ["root"]
        internal = [n.name for n in toy_tax.nodes
                    if not toy_tax.is_leaf(n.node_id) and n.parent is not None]
        assert sorted(internal) == ["A", "B"]

    def test_document_order_ids(self, toy_tax):
        # first appearance order: a1, A, a2, b1, B, root
        assert [n.node_id for n in toy_tax.nodes] == list(range(6))
        assert toy_tax.names.index("A") == 1
        assert toy_tax.nodes[5].name == "root"

    def test_empty_text(self):
        with pytest.raises(TaxonomyError, match="no nodes"):
            pm.parse_taxonomy("")

    def test_comments_and_blank_lines(self):
        tax = pm.parse_taxonomy("# header\n\na\troot\n# trailing\nb\troot\n")
        assert tax.leaf_names == ("a", "b")

    def test_two_node_cycle(self):
        with pytest.raises(TaxonomyError, match="cycle"):
            pm.parse_taxonomy("root\tA\nA\troot\n")

    def test_self_parent(self):
        with pytest.raises(TaxonomyError, match="cycle"):
            pm.parse_taxonomy("a\ta\n")

    def test_multiple_roots(self):
        with pytest.raises(TaxonomyError, match="multiple roots"):
            pm.parse_taxonomy("a\tr1\nb\tr2\n")

    def test_duplicate_child(self):
        with pytest.raises(TaxonomyError, match="duplicate"):
            pm.parse_taxonomy("a\tr\na\tq\nq\tr\n")

    def test_disconnected_cycle(self):
        with pytest.raises(TaxonomyError, match="cycle"):
            pm.parse_taxonomy("a\troot\nb\tc\nc\tb\n")

    def test_weights(self):
        tax = pm.parse_taxonomy("a\troot\t2.5\nb\troot\n")
        assert tax.nodes[tax.names.index("a")].weight == 2.5
        assert tax.nodes[tax.names.index("b")].weight == 1.0

    def test_bad_weight(self):
        for weight in ("-1", "0", "nan", "inf"):
            with pytest.raises(TaxonomyError, match="weight for 'a' must be positive and finite"):
                pm.parse_taxonomy(f"a\troot\t{weight}\n")
        with pytest.raises(TaxonomyError, match="weight"):
            pm.parse_taxonomy("a\troot\tabc\n")


def test_levels_depths_and_order_match_a_walk_from_the_root():
    rng = np.random.default_rng(17)
    tax = random_taxonomy(60, rng, weighted=True)

    def walk(i):  # (level, weighted depth), summed from the root down
        parent = tax.nodes[i].parent
        if parent is None:
            return 0, 0.0
        level, depth = walk(parent)
        return level + 1, depth + tax.nodes[i].weight

    expected = [walk(i) for i in range(tax.n_nodes)]
    assert [tax.level(i) for i in range(tax.n_nodes)] == [lv for lv, _ in expected]
    assert tax.depth.tolist() == [d for _, d in expected]
    assert tax.root_first == tuple(sorted(range(tax.n_nodes), key=lambda i: (expected[i][0], i)))


class TestParseJsonTree:
    def test_nested(self):
        text = ('{"name": "root", "children": ['
                '{"name": "A", "children": [{"name": "a1"}, {"name": "a2"}]},'
                '{"name": "B", "children": [{"name": "b1"}]}]}')
        tax = pm.parse_taxonomy(text, format="json-tree")
        assert tax.names == ("root", "A", "a1", "a2", "B", "b1")  # pre-order
        assert tax.leaf_names == ("a1", "a2", "b1")

    def test_duplicate_names(self):
        with pytest.raises(TaxonomyError, match="duplicate"):
            pm.parse_taxonomy('{"name": "r", "children": [{"name": "r"}]}',
                              format="json-tree")

    def test_missing_name(self):
        with pytest.raises(TaxonomyError):
            pm.parse_taxonomy('{"children": []}', format="json-tree")

    def test_invalid_json(self):
        with pytest.raises(TaxonomyError, match="invalid JSON"):
            pm.parse_taxonomy("{", format="json-tree")

    def test_child_weight(self):
        text = '{"name": "r", "children": [{"name": "a", "weight": 3.0}]}'
        tax = pm.parse_taxonomy(text, format="json-tree")
        assert tax.nodes[tax.names.index("a")].weight == 3.0


class TestCostMatrix:
    def test_toy_leaves(self, toy_tax):
        metric = pm.cost_matrix(toy_tax)
        assert metric.class_names == ("a1", "a2", "b1")
        D = metric.costs
        assert D[0, 1] == 2  # a1 - a2 share parent A
        assert D[0, 2] == 4  # a1 - b1 through the root
        assert D[1, 2] == 4

    def test_toy_all_nodes(self, toy_tax):
        metric = pm.cost_matrix(toy_tax, "all-nodes")
        idx = {name: i for i, name in enumerate(metric.class_names)}
        D = metric.costs
        assert D[idx["a1"], idx["A"]] == 1
        assert D[idx["A"], idx["B"]] == 2
        assert D[idx["A"], idx["root"]] == 1

    def test_leaves_only_needs_two_leaves(self):
        tax = pm.parse_taxonomy("a\troot\n")
        with pytest.raises(TaxonomyError, match="2 leaves"):
            pm.cost_matrix(tax)

    def test_matches_bfs_oracle(self):
        rng = np.random.default_rng(7)
        tax = random_taxonomy(50, rng, weighted=False)
        full = bfs_tree_distances(tax)
        metric = pm.cost_matrix(tax, "all-nodes")
        np.testing.assert_allclose(metric.costs, full, rtol=0, atol=1e-12)

    def test_weighted_matches_bfs_oracle(self):
        rng = np.random.default_rng(11)
        tax = random_taxonomy(30, rng, weighted=True)
        full = bfs_tree_distances(tax)
        metric = pm.cost_matrix(tax, "all-nodes")
        np.testing.assert_allclose(metric.costs, full, rtol=1e-12, atol=1e-12)

    def test_restriction_consistency(self):
        # exact: any-node scoring takes the leaves-only matrix from this block
        rng = np.random.default_rng(3)
        for weighted in (False, True):
            tax = random_taxonomy(40, rng, weighted=weighted)
            all_nodes = pm.cost_matrix(tax, "all-nodes")
            leaves = pm.cost_matrix(tax, "leaves-only")
            rows = [all_nodes.class_names.index(n) for n in leaves.class_names]
            np.testing.assert_array_equal(leaves.costs,
                                          all_nodes.costs[np.ix_(rows, rows)])

    def test_path_additivity(self):
        rng = np.random.default_rng(5)
        tax = random_taxonomy(25, rng, weighted=True)
        metric = pm.cost_matrix(tax, "all-nodes")
        root = next(n.node_id for n in tax.nodes if n.parent is None)
        for leaf in tax.leaf_ids:
            total = 0.0
            cur = leaf
            while tax.nodes[cur].parent is not None:
                total += tax.nodes[cur].weight
                cur = tax.nodes[cur].parent
            assert metric.costs[leaf, root] == pytest.approx(total, rel=1e-12)


def block_write_cost_matrix(tax, nodes):
    """cost_matrix as it was before its slice form, kept as its oracle: each
    node's depth written over its (descendants x descendants) block by an
    np.ix_ write in root-first order, the rows in document order throughout."""
    selected = list(tax.leaf_ids) if nodes == "leaves-only" else list(range(tax.n_nodes))
    pos = {node_id: p for p, node_id in enumerate(selected)}
    members = [[] for _ in range(tax.n_nodes)]
    for i in reversed(tax.root_first):
        if i in pos:
            members[i].append(pos[i])
        for child in tax.children(i):
            members[i].extend(members[child])
    K = len(selected)
    lca_depth = np.zeros((K, K))
    for i in tax.root_first:
        block = members[i]
        if len(block) > 1 or (block and i in pos):
            lca_depth[np.ix_(block, block)] = tax.depth[i]
    sel_depth = tax.depth[selected]
    D = sel_depth[:, None] + sel_depth[None, :] - 2.0 * lca_depth
    np.fill_diagonal(D, 0.0)
    return D


def json_tree_text(tax, rng):
    """The json-tree text of `tax` with each node's children shuffled."""
    def node(i):
        obj = {"name": tax.nodes[i].name}
        if tax.nodes[i].parent is not None:
            obj["weight"] = tax.nodes[i].weight
        children = list(tax.children(i))
        rng.shuffle(children)
        if children:
            obj["children"] = [node(c) for c in children]
        return obj
    return json.dumps(node(tax.root_first[0]))


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 80), st.booleans(),
       st.sampled_from(["edge-list", "json-tree"]))
def test_cost_matrix_slices_equal_block_writes(seed, n_nodes, weighted, fmt):
    # edge lists in shuffled line order number the nodes out of tree order;
    # json trees number them in preorder, with the children shuffled
    rng = np.random.default_rng(seed)
    lines = random_tree_text(n_nodes, rng, weighted).splitlines()
    rng.shuffle(lines)
    tax = pm.parse_taxonomy("\n".join(lines) + "\n")
    if fmt == "json-tree":
        tax = pm.parse_taxonomy(json_tree_text(tax, rng), format="json-tree")
    for nodes in ("leaves-only", "all-nodes"):
        if nodes == "leaves-only" and len(tax.leaf_ids) < 2:
            continue
        np.testing.assert_array_equal(pm.cost_matrix(tax, nodes).costs,
                                      block_write_cost_matrix(tax, nodes))


def row_loop_validate_metric(D, tol=0.0):
    """The violation listing of validate_metric from a row-at-a-time
    min-plus over every (i, j, k), kept as its oracle."""
    D = np.asarray(D, dtype=np.float64)
    K = D.shape[0]
    violations = []
    for i, j in np.argwhere(np.abs(D - D.T) > tol):
        if i < j:
            violations.append(pm.MetricViolation("asymmetry", (int(i), int(j))))
    for i in np.argwhere(np.abs(np.diag(D)) > tol).ravel():
        violations.append(pm.MetricViolation("diagonal", (int(i),)))
    for i, j in np.argwhere(~np.eye(K, dtype=bool) & (D <= tol)):
        violations.append(pm.MetricViolation("non-positive", (int(i), int(j))))
    buffer = np.empty_like(D)
    for i in range(K):
        np.add(D[i][:, None], D, out=buffer)  # buffer[j, k] = D[i,j] + D[j,k]
        if np.any(D[i] > buffer.min(axis=0) + tol):
            for j, k in np.argwhere(D[i][None, :] > buffer + tol):
                if i != j and j != k and i != k:
                    violations.append(pm.MetricViolation("triangle", (int(i), int(j), int(k))))
    return violations


class TestValidateMetric:
    _MODULE = importlib.import_module("protometric.taxonomy")

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(2, 40),
           st.lists(st.sampled_from(("asymmetry", "diagonal", "non-positive", "triangle")),
                    max_size=4),
           st.sampled_from((0.0, 0.5)), st.integers(1, 5))
    def test_planted_violations_match_row_loop(self, seed, n_nodes, plants, tol, block_rows):
        rng = np.random.default_rng(seed)
        D = pm.cost_matrix(random_taxonomy(n_nodes, rng, weighted=True), "all-nodes").costs.copy()
        K = D.shape[0]
        for kind in plants:
            i, k = rng.integers(0, K, 2)
            if kind == "asymmetry":
                D[i, k] += 1.0
            elif kind == "diagonal":
                D[i, i] = 1.0
            elif kind == "non-positive":
                D[i, k] = D[k, i] = -float(rng.integers(0, 2))
            else:
                D[i, k] = D[k, i] = 3.0 * D[i, k] + 1.0
        with mock.patch.object(self._MODULE, "MINPLUS_BYTES", 8 * K * K * block_rows):
            assert pm.validate_metric(D, tol) == row_loop_validate_metric(D, tol)

    def test_tree_metric_clean(self, toy_tax):
        assert pm.validate_metric(pm.cost_matrix(toy_tax).costs) == []

    def test_exhaustive_triple_oracle(self):
        # brute-force check of the same axioms, written independently
        rng = np.random.default_rng(13)
        tax = random_taxonomy(12, rng)
        D = pm.cost_matrix(tax, "all-nodes").costs
        K = D.shape[0]
        for i in range(K):
            assert D[i, i] == 0
            for j in range(K):
                assert D[i, j] == D[j, i]
                if i != j:
                    assert D[i, j] > 0
                for k in range(K):
                    assert D[i, j] + D[j, k] >= D[i, k]
        assert pm.validate_metric(D) == []

    def test_asymmetry_violation(self):
        out = pm.validate_metric(np.array([[0.0, 1.0], [2.0, 0.0]]))
        assert any(v.kind == "asymmetry" and v.indices == (0, 1) for v in out)

    def test_triangle_violation(self):
        D = np.array([[0.0, 1.0, 10.0], [1.0, 0.0, 1.0], [10.0, 1.0, 0.0]])
        out = pm.validate_metric(D)
        assert any(v.kind == "triangle" and v.indices == (0, 1, 2) for v in out)

    def test_diagonal_and_nonpositive(self):
        D = np.array([[0.5, 0.0], [0.0, 0.0]])
        kinds = {v.kind for v in pm.validate_metric(D)}
        assert "diagonal" in kinds
        assert "non-positive" in kinds

    def test_non_square_raises(self):
        with pytest.raises(ValueError, match="square"):
            pm.validate_metric(np.zeros((2, 3)))

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000), st.integers(3, 60))
    def test_random_trees_are_metric(self, seed, n_nodes):
        rng = np.random.default_rng(seed)
        tax = random_taxonomy(n_nodes, rng)
        assert pm.validate_metric(pm.cost_matrix(tax, "all-nodes").costs) == []


def test_metric_to_csv_roundtrips_values(toy_tax):
    metric = pm.cost_matrix(toy_tax)
    text = pm.metric_to_csv(metric)
    lines = text.strip().split("\n")
    assert lines[0] == ",a1,a2,b1"
    row = lines[1].split(",")
    assert row[0] == "a1"
    assert [float(v) for v in row[1:]] == [0.0, 2.0, 4.0]


def test_taxonomy_dict_roundtrip(toy_tax):
    again = pm.Taxonomy.from_dict(toy_tax.to_dict())
    assert again.names == toy_tax.names
    assert again.leaf_ids == toy_tax.leaf_ids
    assert [n.weight for n in again.nodes] == [n.weight for n in toy_tax.nodes]


@pytest.mark.parametrize("key, value, message", [
    ("parent", 1.9, "'nodes[1].parent' must be an integer"),
    ("weight", "1.0", "'nodes[1].weight' must be a number"),
    ("colour", "red", "unknown key 'nodes[1].colour'"),
])
def test_taxonomy_dict_is_read_strictly(toy_tax, key, value, message):
    payload = toy_tax.to_dict()
    payload["nodes"][1][key] = value
    with pytest.raises(ValueError, match=re.escape(message)):
        pm.Taxonomy.from_dict(payload)


@pytest.mark.parametrize("name", ["a\\rb", "a\\nb"])
def test_json_tree_rejects_line_breaks_in_names(name):
    text = '{"name": "root", "children": [{"name": "%s"}, {"name": "c"}]}' % name
    with pytest.raises(TaxonomyError, match="line break"):
        pm.parse_taxonomy(text, format="json-tree")


def test_json_tree_rejects_non_finite_constants():
    text = '{"name": "root", "children": [{"name": "a", "weight": NaN}, {"name": "b"}]}'
    with pytest.raises(ValueError, match="NaN"):
        pm.parse_taxonomy(text, format="json-tree")
