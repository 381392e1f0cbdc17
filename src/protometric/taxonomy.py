"""Class hierarchies and the misclassification-cost metrics they induce.

A taxonomy is a rooted tree whose childless nodes are the leaf classes.
Edges carry positive, finite weights (1.0 unless the file says otherwise), and the
cost of confusing two classes is the weighted length of the unique path
between their nodes.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .formats import Record, csv_text, parse_json


class TaxonomyError(ValueError):
    """Structurally invalid hierarchy or malformed taxonomy file."""


@dataclass(frozen=True)
class TaxonomyNode(Record):
    node_id: int = field(metadata={"key": "id"})
    name: str
    parent: int | None
    weight: float = 1.0  # weight of the edge to the parent; unused on the root


@dataclass(frozen=True, eq=False)
class Taxonomy(Record):
    """Immutable rooted tree of class nodes; JSON form ``{"nodes": [...]}``.

    Node ids are consecutive integers in document order (order of first
    appearance in the source file). Exactly one node has no parent. This is
    the one place that validates a tree, and it stores what is derived from
    it: ``leaf_ids`` (document order), ``root_first`` (node ids sorted by
    level, then id) and ``depth`` (each node's weighted distance from the
    root, a read-only float64 array).
    """

    nodes: tuple[TaxonomyNode, ...]

    def __post_init__(self):
        nodes = tuple(self.nodes)
        if not nodes:
            raise TaxonomyError("no nodes")
        children: list[list[int]] = [[] for _ in nodes]
        for pos, node in enumerate(nodes):
            if node.node_id != pos:
                raise TaxonomyError(
                    f"node ids must be consecutive document positions, got id "
                    f"{node.node_id} at position {pos}"
                )
            if node.parent is not None:
                if not 0 <= node.parent < len(nodes):
                    raise TaxonomyError(f"node '{node.name}' has out-of-range parent")
                if node.parent == node.node_id:
                    raise TaxonomyError(f"cycle detected at '{node.name}' (self parent)")
                if not (node.weight > 0 and math.isfinite(node.weight)):
                    raise TaxonomyError(
                        f"edge weight for '{node.name}' must be positive and finite")
                children[node.parent].append(pos)
        names = [n.name for n in nodes]
        if "" in names:
            raise TaxonomyError("node names must be non-empty")
        if len(set(names)) != len(names):
            dup = sorted({m for m in names if names.count(m) > 1})
            raise TaxonomyError(f"duplicate names: {', '.join(dup)}")
        broken = [name for name in names if "\n" in name or "\r" in name]
        if broken:  # CSV reading would split such a cell into lines
            raise TaxonomyError(f"node name {broken[0]!r} holds a line break")
        padded = [name for name in names if name != name.strip()]
        if padded:  # CSV reading strips labels, so the name could never match
            raise TaxonomyError(f"node name {padded[0]!r} has leading or trailing whitespace")
        roots = [n.node_id for n in nodes if n.parent is None]
        if len(roots) == 0:
            raise TaxonomyError("cycle detected: every node has a parent, no root")
        if len(roots) > 1:
            raise TaxonomyError(
                "multiple roots: " + ", ".join(nodes[r].name for r in roots)
            )

        # Breadth-first from the root, one level at a time, ids ascending
        # within a level. A node it never reaches lies on or below a cycle.
        level, depth = [0] * len(nodes), [0.0] * len(nodes)
        root_first, frontier = [], roots
        while frontier:
            root_first += frontier
            frontier = sorted(c for i in frontier for c in children[i])
            for i in frontier:
                level[i] = level[nodes[i].parent] + 1
                depth[i] = depth[nodes[i].parent] + nodes[i].weight
        if len(root_first) < len(nodes):
            lost = nodes[min(set(range(len(nodes))).difference(root_first))].name
            raise TaxonomyError(f"cycle detected: '{lost}' cannot reach the root")
        if math.inf in depth:  # finite weights can still sum to inf
            lost = nodes[depth.index(math.inf)].name
            raise TaxonomyError(f"path length from the root to '{lost}' is not finite")
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "_children", tuple(tuple(c) for c in children))
        object.__setattr__(self, "_level", tuple(level))
        object.__setattr__(self, "leaf_ids", tuple(i for i, c in enumerate(children) if not c))
        object.__setattr__(self, "root_first", tuple(root_first))
        object.__setattr__(self, "depth", np.array(depth))
        self.depth.setflags(write=False)

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    @property
    def leaf_names(self) -> tuple[str, ...]:
        return tuple(self.nodes[i].name for i in self.leaf_ids)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(n.name for n in self.nodes)

    def children(self, node_id: int) -> tuple[int, ...]:
        return self._children[node_id]

    def is_leaf(self, node_id: int) -> bool:
        return not self._children[node_id]

    def level(self, node_id: int) -> int:
        """Edge count from the root (root is level 0)."""
        return self._level[node_id]

    def __repr__(self) -> str:
        return f"Taxonomy({self.n_nodes} nodes, {len(self.leaf_ids)} leaves)"


@dataclass(frozen=True)
class FiniteMetric:
    """Symmetric nonnegative cost matrix over a named class set."""

    class_names: tuple[str, ...]
    costs: np.ndarray  # (K, K) float64

    def __post_init__(self):
        costs = np.array(self.costs, dtype=np.float64)
        if costs.ndim != 2 or costs.shape[0] != costs.shape[1]:
            raise ValueError(f"cost matrix must be square, got shape {costs.shape}")
        if costs.shape[0] != len(self.class_names):
            raise ValueError("class_names length does not match cost matrix size")
        costs.setflags(write=False)
        object.__setattr__(self, "costs", costs)
        object.__setattr__(self, "class_names", tuple(self.class_names))

    @property
    def size(self) -> int:
        return len(self.class_names)


def parse_taxonomy(text: str, format: str = "edge-list") -> Taxonomy:
    """Parse a taxonomy file.

    edge-list: one ``child<TAB>parent[<TAB>weight]`` line per edge, UTF-8,
    full-line ``#`` comments. json-tree: nested objects
    ``{"name": ..., "children": [...]}`` with optional per-child ``weight``.
    Node ids follow document order (first appearance).
    """
    if format == "edge-list":
        return _parse_edge_list(text)
    if format == "json-tree":
        return _parse_json_tree(text)
    raise TaxonomyError(f"unknown taxonomy format '{format}'")


def _parse_edge_list(text: str) -> Taxonomy:
    edges: dict[str, tuple[str, float]] = {}  # child -> (parent, weight)
    ids: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = [p.strip() for p in line.split("\t")]
        if len(parts) not in (2, 3) or not parts[0] or not parts[1]:
            raise TaxonomyError(f"line {lineno}: expected 'child<TAB>parent[<TAB>weight]'")
        try:
            weight = float(parts[2]) if len(parts) == 3 else 1.0
        except ValueError:
            raise TaxonomyError(f"line {lineno}: bad weight '{parts[2]}'") from None
        if parts[0] in edges:
            raise TaxonomyError(f"line {lineno}: duplicate child entry '{parts[0]}'")
        edges[parts[0]] = (parts[1], weight)
        ids.setdefault(parts[0], len(ids))  # ids follow first appearance
        ids.setdefault(parts[1], len(ids))

    nodes = []
    for name, node_id in ids.items():
        parent, weight = edges.get(name, (None, 1.0))
        nodes.append(TaxonomyNode(node_id, name, ids.get(parent), weight))
    return Taxonomy(nodes)


def _parse_json_tree(text: str) -> Taxonomy:
    try:
        payload = parse_json(text)
    except json.JSONDecodeError as exc:
        raise TaxonomyError(f"invalid JSON: {exc}") from exc

    nodes: list[TaxonomyNode] = []

    def walk(obj, parent_id: int | None, where: str) -> None:
        if not isinstance(obj, dict) or not isinstance(obj.get("name"), str):
            raise TaxonomyError(f"{where} must be an object with a string 'name'")
        name = obj["name"]
        unknown = sorted(obj.keys() - {"name", "weight", "children"})
        if unknown:
            raise TaxonomyError(f"node '{name}': unknown key '{unknown[0]}'")
        if parent_id is None and "weight" in obj:
            raise TaxonomyError(f"root node '{name}' cannot carry an edge weight")
        weight = obj.get("weight", 1.0)
        if type(weight) not in (int, float):  # bool is not a number here
            raise TaxonomyError(f"node '{name}': weight must be a number")
        try:
            weight = float(weight)
        except OverflowError:  # a JSON integer beyond the float range
            raise TaxonomyError(f"node '{name}': weight is too large for a float") from None
        children = obj.get("children", [])
        if not isinstance(children, list):
            raise TaxonomyError(f"children of '{name}' must be a list")
        node_id = len(nodes)
        nodes.append(TaxonomyNode(node_id, name, parent_id, weight))
        for k, child in enumerate(children):
            walk(child, node_id, f"child {k} of '{name}'")

    walk(payload, None, "the tree root")
    return Taxonomy(nodes)


def cost_matrix(tax: Taxonomy, nodes: str = "leaves-only") -> FiniteMetric:
    """Weighted shortest-path cost matrix over leaves or over all nodes.

    Row/column order matches document order of the selected nodes.
    """
    if nodes == "leaves-only":
        selected = list(tax.leaf_ids)
        if len(selected) < 2:
            raise TaxonomyError("leaves-only cost matrix needs at least 2 leaves")
    elif nodes == "all-nodes":
        selected = list(range(tax.n_nodes))
    else:
        raise TaxonomyError(f"unknown node selection '{nodes}'")

    # Distance from the root plus the deepest common ancestor of each pair:
    # D[a, b] = depth[a] + depth[b] - 2 * depth[lca(a, b)]. Numbered in a
    # preorder (each node before its children), the selected nodes of a
    # subtree form one contiguous range, so writing each node's depth over
    # its range x range square in root-first order leaves exactly the lca
    # depth on every pair; one gather then puts the rows in document order.
    # A square of one cell is skipped: it lies on the diagonal, which D zeroes.
    n = tax.n_nodes
    chosen = [0] * n
    for i in selected:
        chosen[i] = 1
    size = [0] * n  # selected nodes per subtree
    for i in reversed(tax.root_first):
        size[i] = chosen[i] + sum(size[c] for c in tax.children(i))
    first = [0] * n  # preorder number of the first selected node of each subtree
    for i in tax.root_first:
        at = first[i] + chosen[i]
        for child in tax.children(i):
            first[child] = at
            at += size[child]

    K = len(selected)
    lca_depth = np.zeros((K, K))
    for i in tax.root_first:
        if size[i] > 1:
            a, b = first[i], first[i] + size[i]
            lca_depth[a:b, a:b] = tax.depth[i]
    order = [first[i] for i in selected]
    lca_depth = lca_depth[np.ix_(order, order)]
    sel_depth = tax.depth[list(selected)]
    # (a + b) - 2c in place, so that at most two K x K arrays live at once;
    # doubling is exact, so the bits are those of the plain expression
    D = sel_depth[:, None] + sel_depth[None, :]
    lca_depth *= 2.0
    D -= lca_depth
    del lca_depth  # FiniteMetric copies D
    np.fill_diagonal(D, 0.0)
    names = tuple(tax.nodes[i].name for i in selected)
    if not np.isfinite(D).all():  # finite depths near the float limit overflow the sums above
        a, b = np.argwhere(~np.isfinite(D))[0]
        raise TaxonomyError(f"cost between '{names[a]}' and '{names[b]}' is not finite")
    return FiniteMetric(names, D)


MINPLUS_BYTES = 1 << 20  # bytes of the (rows, K, K) sums of one validate_metric block


@dataclass(frozen=True)
class MetricViolation:
    kind: str  # "asymmetry" | "diagonal" | "non-positive" | "triangle"
    indices: tuple[int, ...]


def validate_metric(D: np.ndarray, tol: float = 0.0) -> list[MetricViolation]:
    """List every metric-axiom violation of a square cost matrix.

    Empty result means D is symmetric, zero on the diagonal, positive off
    the diagonal, and satisfies the triangle inequality. Checks are exact
    by default; pass a small ``tol`` for matrices built from inexact sums.
    Each kind is listed in index order, triangles as (i, j, k) with
    D[i, k] > D[i, j] + D[j, k] + tol.
    """
    D = np.asarray(D, dtype=np.float64)
    if D.ndim != 2 or D.shape[0] != D.shape[1]:
        raise ValueError(f"cost matrix must be square, got shape {D.shape}")
    K = D.shape[0]
    violations: list[MetricViolation] = []

    asym = np.argwhere(np.abs(D - D.T) > tol)
    for i, j in asym:
        if i < j:
            violations.append(MetricViolation("asymmetry", (int(i), int(j))))
    diag = np.argwhere(np.abs(np.diag(D)) > tol).ravel()
    for i in diag:
        violations.append(MetricViolation("diagonal", (int(i),)))
    off = ~np.eye(K, dtype=bool)
    nonpos = np.argwhere(off & (D <= tol))
    for i, j in nonpos:
        violations.append(MetricViolation("non-positive", (int(i), int(j))))
    # triangle: a row-blocked min-plus product flags the rows with a violation,
    # and only those are listed. On an exactly symmetric D, (i, j, k) violates
    # iff (k, j, i) does, so only k >= i is checked and each violation listed
    # brings its mirror
    symmetric = np.array_equal(D, D.T)
    DT = D if symmetric else np.ascontiguousarray(D.T)
    block = max(1, MINPLUS_BYTES // (8 * K * K)) if K else 1
    triples = []
    for a in range(0, K, block):
        lo = a if symmetric else 0
        # via[i, k] = min_j D[i, j] + D[j, k]; a min over the leading axis of
        # the sums runs about 1.3x faster than over their middle axis
        via = (DT[:, a:a + block, None] + D[:, None, lo:]).min(axis=0)
        for i in a + np.flatnonzero((D[a:a + block, lo:] > via + tol).any(axis=1)):
            k0 = i + 1 if symmetric else 0
            j, k = np.nonzero(D[i, None, k0:] > D[i][:, None] + D[:, k0:] + tol)
            k += k0
            keep = (j != i) & (j != k) & (k != i)
            found = np.stack([np.full(keep.sum(), i), j[keep], k[keep]], axis=1)
            triples += [found, found[:, ::-1]] if symmetric else [found]
    if triples:
        t = np.concatenate(triples)
        t = t[np.lexsort(t.T[::-1])]
        violations += [MetricViolation("triangle", tuple(int(x) for x in row)) for row in t]
    return violations


def metric_to_csv(metric: FiniteMetric) -> str:
    """CSV text with a header row/column of class names."""
    names = metric.class_names
    return csv_text(["", *names],
                    ([name, *row] for name, row in zip(names, metric.costs.tolist())))
