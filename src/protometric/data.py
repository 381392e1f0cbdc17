"""Dataset ingestion and hierarchy-aligned synthetic data generation."""

from __future__ import annotations

import csv
import itertools
import warnings
from dataclasses import dataclass

import numpy as np

from .formats import DataError, csv_text, open_table, read_table
from .taxonomy import Taxonomy


@dataclass(frozen=True)
class Dataset:
    """Feature matrix plus leaf-class labels aligned with a taxonomy."""

    features: np.ndarray       # (N, m_in) float64
    labels: np.ndarray         # (N,) int, index into class_names
    class_names: tuple[str, ...]

    def __post_init__(self):
        X = np.array(self.features, dtype=np.float64)
        z = np.array(self.labels, dtype=np.intp)
        if X.ndim != 2 or X.shape[0] < 1:
            raise DataError("features must be a non-empty (N, m_in) matrix")
        if not np.all(np.isfinite(X)):
            raise DataError("features must be finite")
        if z.shape != (X.shape[0],):
            raise DataError("labels must be one per sample")
        if z.size and (z.min() < 0 or z.max() >= len(self.class_names)):
            raise DataError("label index out of range")
        X.setflags(write=False)
        z.setflags(write=False)
        object.__setattr__(self, "features", X)
        object.__setattr__(self, "labels", z)
        object.__setattr__(self, "class_names", tuple(self.class_names))

    @property
    def n(self) -> int:
        return self.features.shape[0]


def gen_hierarchical_gaussians(tax: Taxonomy, per_class: int, dims: int,
                               root_spread: float = 4.0, decay: float = 0.5,
                               noise: float = 0.5,
                               rng: np.random.Generator | None = None) -> Dataset:
    """Gaussian blobs whose means follow the taxonomy layout.

    Each node's mean sits at its parent's mean plus a uniformly random
    direction scaled by root_spread * decay**parent_level, so classes that
    are close in the tree are geometrically close. Leaf samples add
    isotropic noise. Deterministic for a fixed rng.
    """
    if per_class < 1:
        raise DataError("per_class must be >= 1")
    if dims < 2:
        raise DataError("dims must be >= 2")
    if not 0 <= decay < 1:
        raise DataError("decay must lie in [0, 1)")
    if not (np.isfinite(root_spread) and root_spread > 0):
        raise DataError(f"root_spread must be positive and finite, got {root_spread}")
    if not (np.isfinite(noise) and noise >= 0):
        raise DataError(f"noise must be non-negative and finite, got {noise}")
    if not tax.leaf_ids:
        raise DataError("degenerate taxonomy: no leaves")
    if rng is None:
        rng = np.random.default_rng(0)

    # Means are drawn level by level (document order within a level) so the
    # draw sequence does not depend on how the file ordered parents/children.
    means = np.zeros((tax.n_nodes, dims))
    for i in tax.root_first:
        parent = tax.nodes[i].parent
        if parent is None:
            continue
        direction = rng.standard_normal(dims)
        norm = np.linalg.norm(direction)
        while norm == 0.0:
            direction = rng.standard_normal(dims)
            norm = np.linalg.norm(direction)
        scale = root_spread * decay ** tax.level(parent)
        means[i] = means[parent] + direction / norm * scale

    blocks = []
    labels = []
    for k, leaf in enumerate(tax.leaf_ids):
        blocks.append(means[leaf] + noise * rng.standard_normal((per_class, dims)))
        labels.append(np.full(per_class, k, dtype=np.intp))
    return Dataset(np.vstack(blocks), np.concatenate(labels), tax.leaf_names)


class _Defer(Exception):
    """`np.loadtxt` could read the table otherwise than `read_table`."""


def _checked_lines(fh):
    """The non-blank lines of a table, the header first. Raises _Defer at a
    line that loadtxt could read otherwise than csv and `float`: one whose
    comma count differs from the header's (usecols would hide it), one as
    long as csv's field limit (csv rejects a longer field), and one holding
    a quote (csv unquotes), a carriage return (csv ends a row at it) or one
    of \\x1c-\\x1f (loadtxt strips them around a number, `float` does not).
    """
    limit = csv.field_size_limit()
    commas = None
    for line in fh:
        if line == "\n":
            continue
        if commas is None:
            commas = line.count(",")
        if (line.count(",") != commas or len(line) >= limit or '"' in line or "\r" in line
                or "\x1c" in line or "\x1d" in line or "\x1e" in line or "\x1f" in line):
            raise _Defer
        yield line


def _loadtxt(fh, text_column: str, required: bool):
    """`read_numeric` by two streamed `np.loadtxt` passes over fh."""
    lines = _checked_lines(fh)
    header = [h.strip() for h in next(lines, "").rstrip("\n").split(",")]
    pos = header.index(text_column) if text_column in header else None
    numeric = [i for i in range(len(header)) if i != pos]
    if (pos is None and required) or not numeric:
        raise _Defer
    first = next(lines, None)
    if first is None:  # no header or no rows
        raise _Defer
    X = np.loadtxt(itertools.chain([first], lines), delimiter=",", usecols=numeric,
                   comments=None, ndmin=2)
    if not np.isfinite(X).all():
        raise _Defer
    if pos is None:
        return None, X
    fh.seek(0)
    lines = _checked_lines(fh)
    next(lines)
    # object cells are the line's own strings: a str array would pad every
    # cell to the longest one and drop trailing NULs
    texts = np.loadtxt(lines, dtype=object, delimiter=",", usecols=[pos],
                       comments=None, ndmin=2)
    return texts[:, 0].tolist(), X


def read_numeric(source, text_column: str, required: bool = False):
    """(texts, X): the table `formats.read_table` reads, its numeric columns
    as one (n, d) float64 array X.

    The numeric cells are parsed in C by `np.loadtxt` as the file streams
    past, and the text column in a second pass; neither holds the file's
    text. Where loadtxt and `read_table` could disagree (see
    `_checked_lines`, and a cell loadtxt rejects, a non-finite value, an
    empty file, no rows or a missing label column), `read_table` reads the
    table instead: it decides, and it names a bad row and column. Text
    cells come back unstripped, as `read_table` returns them.
    """
    with open_table(source) as fh:
        if fh.seekable():  # a pipe is read once, by the loop
            try:
                return _loadtxt(fh, text_column, required)
            except (_Defer, ValueError):  # ValueError: a cell loadtxt rejects, or bad UTF-8
                fh.seek(0)
        texts, values = read_table(fh, text_column, required)
    return texts, np.array(values, dtype=np.float64)


def load_csv(text_or_path, label_column: str, tax: Taxonomy) -> Dataset:
    """Dataset from a CSV file with numeric feature columns and a label column.

    Accepts a path or raw CSV text. Feature order follows column order;
    labels are resolved against the taxonomy leaf names.
    """
    names, features = read_numeric(text_or_path, label_column, required=True)
    leaf_index = {name: k for k, name in enumerate(tax.leaf_names)}
    labels = [leaf_index.get(name.strip()) for name in names]
    if None in labels:
        r = labels.index(None)
        raise DataError(f"row {r + 2}: unknown label {names[r].strip()!r}")
    return Dataset(features, labels, tax.leaf_names)


def dataset_to_csv(dataset: Dataset, label_column: str = "label") -> str:
    """CSV text with feature columns f0..f{d-1} and a label-name column."""
    d = dataset.features.shape[1]
    names = dataset.class_names
    return csv_text([*(f"f{j}" for j in range(d)), label_column],
                    ([*x, names[z]] for x, z in zip(dataset.features.tolist(),
                                                     dataset.labels.tolist())))


def split(dataset: Dataset, test_fraction: float,
          rng: np.random.Generator) -> tuple[Dataset, Dataset]:
    """Stratified train/test partition (exact: disjoint, union = all).

    Classes with a single sample cannot be stratified; they go to the train
    side with a warning. For classes with >= 2 samples both sides get at
    least one sample; without such a class the split raises DataError.
    """
    if not 0 < test_fraction < 1:
        raise DataError("test_fraction must lie strictly between 0 and 1")
    if not np.any(np.bincount(dataset.labels) >= 2):
        raise DataError("no class has 2 or more samples, so the test split would be empty")
    test_idx = []
    train_idx = []
    for k in range(len(dataset.class_names)):
        members = np.flatnonzero(dataset.labels == k)
        if members.size == 0:
            continue
        if members.size < 2:
            warnings.warn(f"class '{dataset.class_names[k]}' has fewer than 2 "
                          "samples; assigning it to the train split")
            train_idx.extend(members.tolist())
            continue
        n_test = int(np.floor(test_fraction * members.size + 0.5))
        n_test = min(max(n_test, 1), members.size - 1)
        perm = rng.permutation(members.size)
        test_idx.extend(members[perm[:n_test]].tolist())
        train_idx.extend(members[perm[n_test:]].tolist())
    train_idx = sorted(train_idx)
    test_idx = sorted(test_idx)
    make = lambda idx: Dataset(dataset.features[idx], dataset.labels[idx],
                               dataset.class_names)
    return make(train_idx), make(test_idx)
