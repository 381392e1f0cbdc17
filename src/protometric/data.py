"""Dataset ingestion and hierarchy-aligned synthetic data generation."""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .formats import DataError, _rows, csv_text, open_table
from .taxonomy import Taxonomy


def _read_only(a, dtype) -> np.ndarray:
    """`a` as a read-only array of `dtype`: `a` itself when nothing it views
    can be written (every array down its chain of bases is read-only, and
    the chain ends in memory of its own or in a read-only memoryview), else
    a copy."""
    if isinstance(a, np.ndarray) and a.dtype == dtype:
        base = a
        while isinstance(base, np.ndarray) and not base.flags.writeable:
            base = base.base
        if base is None or isinstance(base, memoryview) and base.readonly:
            return a
    a = np.array(a, dtype=dtype)
    a.setflags(write=False)
    return a


def _sealed(a: np.ndarray) -> np.ndarray:
    """A fresh array of the caller's, marked read-only so that `Dataset`
    takes it without a copy."""
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class Dataset:
    """Feature matrix plus leaf-class labels aligned with a taxonomy.

    Both arrays are read-only. An input array is kept as it is when it is
    read-only down to its memory, and copied otherwise, so a dataset never
    shares memory that its caller can write to.
    """

    features: np.ndarray       # (N, m_in) float64
    labels: np.ndarray         # (N,) int, index into class_names
    class_names: tuple[str, ...]

    def __post_init__(self):
        X = _read_only(self.features, np.float64)
        z = _read_only(self.labels, np.intp)
        if X.ndim != 2 or X.shape[0] < 1:
            raise DataError("features must be a non-empty (N, m_in) matrix")
        if not np.all(np.isfinite(X)):
            raise DataError("features must be finite")
        if z.shape != (X.shape[0],):
            raise DataError("labels must be one per sample")
        if z.size and (z.min() < 0 or z.max() >= len(self.class_names)):
            raise DataError("label index out of range")
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
    return Dataset(_sealed(np.vstack(blocks)), _sealed(np.concatenate(labels)), tax.leaf_names)


BLOCK_ROWS = 64  # rows cast to float64 at a time: the reader holds X and one block


def _cast(block, r, names):
    """The numeric cells of a block of rows, row r first, as a float64 array,
    each read as `float` reads it (numpy calls `float` on an object cell). The
    first cell `float` rejects or reads as non-finite raises its DataError."""
    try:
        cells = np.array(block, dtype=object).astype(np.float64)
    except ValueError:  # a cell float rejects: the loop below names it
        pass
    else:
        if np.isfinite(cells).all():
            return cells
    for r, row in enumerate(block, start=r):
        for name, cell in zip(names, row):
            try:
                number = float(cell)
            except ValueError:
                raise DataError(f"row {r}, column {name!r}: non-numeric "
                                f"value {cell!r}") from None
            if not math.isfinite(number):
                raise DataError(f"row {r}, column {name!r}: non-finite value {cell!r}")


def read_numeric(source, text_column: str, required: bool = False):
    """(texts, X) of a CSV table with a header row; blank lines skipped.

    `source` is a path, CSV text when it is a string holding a newline, or
    a text stream, read from where it stands and left open
    (`formats.open_table`). Every column but `text_column` must hold finite
    numbers: X is one read-only (n, d) float64 array of them. `texts` has the text
    column's cells, unstripped, or is None when the header lacks it;
    `required` makes it a label column that must exist. `csv.reader` walks
    the rows as they are read, and each block of BLOCK_ROWS rows is cast to
    float64 into one growing buffer, so the reader holds X and one block,
    never the file's text. A bad row raises a DataError naming it (and its
    column); the first bad row in the file wins, wherever the blocks fall.
    """
    with open_table(source) as fh:
        rows = _rows(fh)
        header = [h.strip() for h in next(rows, [])]
        if not header:
            raise DataError("empty file: no header row")
        pos = header.index(text_column) if text_column in header else None
        if pos is None and required:
            raise DataError(f"label column {text_column!r} not found in header")
        names = [h for i, h in enumerate(header) if i != pos]
        if not names:
            raise DataError("no numeric columns")
        width = len(header)
        texts = None if pos is None else []
        seen = {}  # labels repeat: the texts share one str per value
        values = bytearray()  # the float64 cells, row after row
        for r in itertools.count(2, BLOCK_ROWS):  # r: the block's first row
            block, error = [], None
            try:
                block.extend(itertools.islice(rows, BLOCK_ROWS))
            except DataError as exc:  # csv's; extend kept the rows before it
                error = exc
            if not set(map(len, block)) <= {width}:
                n = next(i for i, row in enumerate(block) if len(row) != width)
                error = DataError(f"row {r + n}: expected {width} cells, got {len(block[n])}")
                del block[n:]
            if pos is not None:
                cells = [row.pop(pos) for row in block]
                texts += map(seen.setdefault, cells, cells)
            if block:
                values += _cast(block, r, names).tobytes()
            if error is not None:  # raised once the rows before it are read
                raise error
            if len(block) < BLOCK_ROWS:
                break
    if not values:
        raise DataError("header only: no data rows")
    return texts, np.frombuffer(memoryview(values).toreadonly()).reshape(-1, len(names))


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
    make = lambda idx: Dataset(_sealed(dataset.features[idx]), _sealed(dataset.labels[idx]),
                               dataset.class_names)
    return make(train_idx), make(test_idx)
