#!/usr/bin/env python3
"""Artifact-contract sweep: run the CLI over a fixed matrix, compare two runs.

    python3 scripts/sweep.py run OUT [--src SRC] [--tiny]
    python3 scripts/sweep.py diff A B

`run` writes every artifact of the matrix into OUT (which must not exist):
`cost` (leaves, all nodes, json-tree), `synth`, `train` for each head,
regularizer, distance kind, schedule, optimizer, architecture and scheme
(two seeds each), `eval` with every scheme on full and on class-missing
data, `infer` with every scheme on every checkpoint, `eval` and `infer` on
copies of the data with a quoted cell and CRLF line ends (the CSV reader's
quoting and line-end cases), `eval` and `infer` on files of more than
4096 rows, `infer` on a 120-leaf checkpoint over several
posterior blocks, and `embed` for each regularizer and distance kind. The
commands run in one process under `--threads 1`, from OUT so that the
echoed paths are relative. `--src` picks the source tree to run (default:
the one next to this script), so a checkout of another commit, for example
one unpacked with `git archive REV | tar -x -C DIR`, runs the same matrix.
`--tiny` runs a small subset in about a second.

`diff` checks each file of A and B for byte identity. A file that differs
passes only if TOLERANCES covers it and its numbers stay within the bound
there; `diff` prints the largest deviation of each such file and exits 1 on
a missing file or on any drift beyond the table. Infer on a checkpoint from
the other tree is not run separately: when the checkpoints are byte-identical
it is the same run.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import fnmatch
import io
import json
import math
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Taxonomy of the matrix: 8 leaves under a 3-level binary tree, one weighted edge.
TAXONOMY = ("A\troot\nB\troot\t2.0\nA1\tA\nA2\tA\nB1\tB\nB2\tB\n"
            "a1x\tA1\na1y\tA1\na2x\tA2\na2y\tA2\nb1x\tB1\nb1y\tB1\nb2x\tB2\nb2y\tB2\n")

SCHEMES = ("max-prob", "min-ec", "any-node")

# arm -> (train section overrides, run config overrides)
ARMS = {
    "disto": ({}, {}),
    "disto-min-ec": ({}, {"scheme": "min-ec"}),
    "disto-any-node": ({}, {"scheme": "any-node"}),
    "fixed-scale": ({"regularizer": "disto-fixed-scale"}, {}),
    "rank": ({"regularizer": "rank", "triplet_count": 5}, {}),
    "unregularized": ({"regularizer": "none", "lambda": 0.0}, {}),
    "lambda0": ({"lambda": 0.0}, {}),
    "fixed-proto": ({"schedule": "fixed-proto"}, {}),
    "fixed-proto-rank": ({"schedule": "fixed-proto", "regularizer": "rank"}, {}),
    "squared-euclidean": ({"distance": {"kind": "squared-euclidean"}}, {}),
    "huber": ({"distance": {"kind": "huber", "delta": 0.5}}, {"scheme": "min-ec"}),
    "internal": ({"include_internal_prototypes": True}, {}),
    "internal-any-node": ({"include_internal_prototypes": True}, {"scheme": "any-node"}),
    "cross-entropy": ({"head": "cross-entropy"}, {}),
    "cross-entropy-any-node": ({"head": "cross-entropy"}, {"scheme": "any-node"}),
    "soft-labels": ({"head": "soft-labels", "beta": 5.0}, {"scheme": "min-ec"}),
    "sgd": ({"optimizer": {"kind": "sgd", "lr": 0.05, "momentum": 0.9}}, {}),
    "identity": ({"architecture": "identity", "hidden": [], "m": 6}, {}),
    "linear": ({"architecture": "linear", "hidden": []}, {}),
    "tanh": ({"activation": "tanh", "hidden": [8, 8]}, {}),
    "mean-aggregate": ({}, {"aggregate": "mean", "seeds": [0, 1, 2]}),
}
# Taxonomy of the wide arm: 120 leaves under a (4, 5, 6) tree, so that `infer`
# on WIDE_ROWS rows crosses at least four posterior blocks under every scheme.
WIDE_BRANCHING = (4, 5, 6)
WIDE_ROWS = 4000
TINY_ARMS = ("disto", "rank", "fixed-proto", "fixed-proto-rank", "cross-entropy",
             "soft-labels")
BIG_INFER_ARMS = ("disto", "cross-entropy")
# train section of every arm before its overrides
BASE_SECTION = {"lambda": 1.0, "m": 4, "architecture": "mlp", "hidden": [8], "batch_size": 16}


def _prototype_head_arms() -> tuple[str, ...]:
    """Arms that train the prototype head, whatever their regularizer
    (TrainConfig defaults to the prototype head)."""
    return tuple(arm for arm, (train, _) in ARMS.items()
                 if train.get("head", "prototypes") == "prototypes")


# Files allowed to differ in bytes, with the bound on their numbers: the
# relative deviation of every JSON number ("json"), of every numeric CSV cell
# with the text cells exact ("csv"), or of the pairwise distances between the
# x columns' rows ("distances"). Each widening or new entry is a change to
# the artifact contract.
TOLERANCES = {
    # Euclidean disto embed ends in the LM polish, whose last digits move
    # with any change to its arithmetic; rigid motions of the fit are free.
    "embed/disto-euclidean-*/distortion.json": ("json", 1e-8),
    "embed/disto-euclidean-*/prototypes.csv": ("distances", 1e-6),
    # The disto gradient's pair sums round with their summation order, which
    # moves the trajectory of every run that trains under it by a few ulps.
    **{f"embed/disto-{kind}-*/{name}.{ext}": (ext, 1e-10)
       for kind in ("squared-euclidean", "huber")
       for name, ext in (("distortion", "json"), ("prototypes", "csv"))},
    # A rank embed's term takes its distances from the expansion and sums its
    # triples' derivatives per pair in bincount order: both move the last
    # digits of the fitted coordinates.
    "embed/rank-*/prototypes.csv": ("csv", 1e-10),
    # The fixed-proto stage 1 fit, 3000 Adam steps and the LM polish,
    # amplifies the last-digit differences of the GEMM cross term in the
    # distances it trains on. Measured worst: 1.03e-7 on a coordinate near
    # zero (5.7e-10 absolute) in the checkpoint, 5.4e-11 on the
    # prototype-pair distances, 3.1e-10 in the eval JSON and 2.1e-10 in the
    # infer CSV; every text cell, the predictions among them, stays equal.
    # (Entries are tried in order, so the first two take their files.)
    "train/fixed-proto/checkpoint_seed*.json": ("json", 1e-6),
    "train/fixed-proto/prototypes_seed*.csv": ("distances", 1e-9),
    **{f"{command}/fixed-proto/*.{ext}": (ext, 1e-9)
       for command in ("train", "eval", "infer") for ext in ("json", "csv")},
    # The prototype head's distances come from the dot-product expansion,
    # exact only around each row's minimum, with a GEMM cross term outside
    # the posterior, and the disto gradient's pair sums round with their
    # summation order: all move the last digits of every prototype-head
    # run's numbers, never a text cell. The wide arm trains a prototype head
    # too; its max-prob file has the tighter entry below.
    **{f"{command}/{arm}/*.{ext}": (ext, 1e-10)
       for arm in _prototype_head_arms() if arm != "fixed-proto"
       for command, exts in (("train", ("json", "csv")), ("eval", ("json", "csv")),
                             ("infer", ("csv",)))
       for ext in exts},
    **{f"train/wide/*.{ext}": (ext, 1e-10) for ext in ("json", "csv")},
    **{f"infer/wide/{scheme}.csv": ("csv", 1e-10) for scheme in ("min-ec", "any-node")},
    # Every distortion figure takes its prototype-pair distances from the
    # expansion too, within relative 2^-40 of explicit differences: they move
    # the last digits of the reports of the arms whose other numbers keep
    # their bytes, and of the rank embeds' report.
    **{pattern: ("json", 1e-10) for pattern in (
        *(f"{command}/{arm}/{name}" for arm in ARMS if arm not in _prototype_head_arms()
          for command, name in (("train", "eval_seed*.json"), ("eval", "*.json"))),
        "train/*/aggregate_eval.json", "embed/rank-*/distortion.json")},
    # max-prob takes its `ec` cell from one per-row dot, not from a GEMM over
    # all candidates: both sum K nonnegative products, so they agree within
    # relative K eps, 2.7e-14 at the wide arm's 120 leaves. (The prototype
    # arms' files are inside their entry above.)
    **{f"infer/{arm}/*max-prob.csv": ("csv", 3e-14)
       for arm in (*(arm for arm in ARMS if arm not in _prototype_head_arms()), "wide")},
}


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------

def _write(path: str, text: str) -> None:
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _derive_csv(src: str, dst: str, rows=slice(None), features: bool = False,
                drop: str | None = None) -> None:
    """Write the `rows` of a labelled CSV, less those labelled `drop`; with
    `features`, the label column gives way to a leading `id` column."""
    with open(src, encoding="utf-8", newline="") as fh:
        header, *body = list(csv.reader(fh))
    body = [row for row in body[rows] if row[-1] != drop]
    if features:
        header = ["id", *header[:-1]]
        body = [[f"r{i}", *row[:-1]] for i, row in enumerate(body)]
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows([header, *body])
    _write(dst, out.getvalue())


def _quoted_crlf_copy(src: str, dst: str, column: int) -> None:
    """Copy a CSV with its first row's cell in `column` quoted and CRLF line
    ends: the same table, read through `data.read_numeric`'s quoting and
    line-end cases."""
    with open(src, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    rows[1][column] = f'"{rows[1][column]}"'
    _write(dst, "".join(",".join(row) + "\r\n" for row in rows))


def _balanced_tree(branching) -> str:
    """Edge list of a tree whose nodes at depth d have branching[d] children."""
    lines, level = [], ["w"]
    for width in branching:
        level = [(f"{parent}{c}", parent) for parent in level for c in range(width)]
        lines += [f"{child}\t{parent}\n" for child, parent in level]
        level = [child for child, _ in level]
    return "".join(lines)


def run_matrix(out: str, src: str, tiny: bool) -> None:
    if os.path.exists(out):
        raise SystemExit(f"error: {out} exists")
    sys.path.insert(0, src)
    from protometric.cli import main  # loads no numpy: --threads 1 still pins BLAS

    os.makedirs(out)
    os.chdir(out)

    def call(*argv):
        with contextlib.redirect_stdout(io.StringIO()):
            code = main(["--threads", "1", *argv])
        if code != 0:
            raise SystemExit(f"error: exit {code} from: {' '.join(argv)}")

    _write("tax.tsv", TAXONOMY)
    _write("tax.json", json.dumps({"name": "root", "children": [
        {"name": "A", "children": [{"name": "a1"}, {"name": "a2", "weight": 0.5}]},
        {"name": "b", "weight": 2.0}]}))
    call("cost", "tax.tsv", "--out", "cost/leaves.csv")
    call("cost", "tax.tsv", "--nodes", "all", "--out", "cost/all.csv")
    call("cost", "tax.json", "--format", "json-tree", "--out", "cost/json.csv")

    per_class, epochs = (6, 1) if tiny else (30, 3)
    call("synth", "tax.tsv", "--per-class", str(per_class), "--dims", "6", "--seed", "3",
         "--out", "data/train.csv")
    _derive_csv("data/train.csv", "data/features.csv", features=True)
    _derive_csv("data/train.csv", "data/missing.csv", drop="b2y")
    _quoted_crlf_copy("data/train.csv", "data/quoted.csv", -1)
    _quoted_crlf_copy("data/features.csv", "data/quoted_features.csv", 0)
    if not tiny:
        # 4104 labelled and 4097 feature rows: more than one forward block
        # each, where a 4096-row block would leave a short tail that BLAS
        # rounds through another kernel
        call("synth", "tax.tsv", "--per-class", "513", "--dims", "6", "--seed", "4",
             "--out", "data/big.csv")
        _derive_csv("data/big.csv", "data/big_features.csv", slice(4097), features=True)

    arms = TINY_ARMS if tiny else tuple(ARMS)
    for arm in arms:
        train, run = ARMS[arm]
        section = {**BASE_SECTION, "epochs": epochs, **train}
        config = {"taxonomy_path": "tax.tsv", "dataset_path": "data/train.csv",
                  "output_dir": f"train/{arm}", "seeds": [0] if tiny else [0, 1],
                  "train": section, **run}
        _write(f"configs/{arm}.json", json.dumps(config, indent=2, sort_keys=True))
        call("train", f"configs/{arm}.json")
        ckpt = f"train/{arm}/checkpoint_seed0.json"
        for scheme in SCHEMES:
            for data in ("train", "missing"):
                call("eval", ckpt, f"data/{data}.csv", "tax.tsv", "--scheme", scheme,
                     "--out", f"eval/{arm}/{data}-{scheme}")
            call("infer", ckpt, "data/features.csv", "--scheme", scheme,
                 "--out", f"infer/{arm}/{scheme}.csv")
            if not tiny and arm in BIG_INFER_ARMS:
                call("eval", ckpt, "data/big.csv", "tax.tsv", "--scheme", scheme,
                     "--out", f"eval/{arm}/big-{scheme}")
                call("infer", ckpt, "data/big_features.csv", "--scheme", scheme,
                     "--out", f"infer/{arm}/big-{scheme}.csv")
        if arm == "disto":  # the data with a quoted cell and CRLF line ends
            call("eval", ckpt, "data/quoted.csv", "tax.tsv", "--out", "eval/disto/quoted")
            call("infer", ckpt, "data/quoted_features.csv", "--out", "infer/disto/quoted.csv")

    if not tiny:
        # the wide arm: `infer` runs its rows through several posterior
        # blocks, so `diff` compares the streamed path with another tree's
        _write("wide/tax.tsv", _balanced_tree(WIDE_BRANCHING))
        per_class = -(-WIDE_ROWS // math.prod(WIDE_BRANCHING))
        call("synth", "wide/tax.tsv", "--per-class", "10", "--dims", "6", "--seed", "5",
             "--out", "wide/train.csv")
        call("synth", "wide/tax.tsv", "--per-class", str(per_class), "--dims", "6",
             "--seed", "6", "--out", "wide/all.csv")
        _derive_csv("wide/all.csv", "wide/features.csv", slice(WIDE_ROWS), features=True)
        config = {"taxonomy_path": "wide/tax.tsv", "dataset_path": "wide/train.csv",
                  "output_dir": "train/wide", "seeds": [0],
                  "train": {**BASE_SECTION, "epochs": 1,
                            "optimizer": {"kind": "adam", "lr": 0.05}}}
        _write("configs/wide.json", json.dumps(config, indent=2, sort_keys=True))
        call("train", "configs/wide.json")
        for scheme in SCHEMES:
            call("infer", "train/wide/checkpoint_seed0.json", "wide/features.csv",
                 "--scheme", scheme, "--out", f"infer/wide/{scheme}.csv")

    steps = "30" if tiny else "300"
    embeds = [("disto", "euclidean", "leaves", "2"), ("rank", "euclidean", "leaves", "2")]
    if not tiny:
        embeds += [("disto", "euclidean", "all", "3"), ("disto", "squared-euclidean",
                   "leaves", "2"), ("disto", "huber", "leaves", "2"),
                   ("rank", "huber", "all", "3")]
    for reg, kind, nodes, dim in embeds:
        call("embed", "tax.tsv", "--regularizer", reg, "--distance", kind, "--nodes", nodes,
             "--dim", dim, "--steps", steps, "--seed", "1",
             "--out", f"embed/{reg}-{kind}-{nodes}-d{dim}")


# ---------------------------------------------------------------------------
# diff
# ---------------------------------------------------------------------------

def _files(root: str) -> set[str]:
    return {os.path.relpath(os.path.join(d, f), root).replace(os.sep, "/")
            for d, _, names in os.walk(root) for f in names}


def _rel(a: float, b: float) -> float:
    if a == b:
        return 0.0
    if not (math.isfinite(a) and math.isfinite(b)):
        return math.inf
    return abs(a - b) / max(abs(a), abs(b))


def _json_deviation(a, b) -> float:
    """Largest relative deviation of the numbers of two JSON values of the
    same shape; inf when their shape or a non-number differs."""
    if isinstance(a, dict) and isinstance(b, dict):
        if a.keys() != b.keys():
            return math.inf
        return max((_json_deviation(a[k], b[k]) for k in a), default=0.0)
    if isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            return math.inf
        return max((_json_deviation(x, y) for x, y in zip(a, b)), default=0.0)
    numbers = (int, float)
    if (isinstance(a, numbers) and isinstance(b, numbers)
            and not isinstance(a, bool) and not isinstance(b, bool)):
        return _rel(float(a), float(b))
    return 0.0 if a == b else math.inf


def _csv_deviation(text_a: str, text_b: str) -> float:
    """Largest relative deviation of the numeric cells of two CSVs of the same
    shape; inf when the shapes or a text cell differ."""
    rows_a = list(csv.reader(io.StringIO(text_a)))
    rows_b = list(csv.reader(io.StringIO(text_b)))
    if [len(r) for r in rows_a] != [len(r) for r in rows_b]:
        return math.inf
    worst = 0.0
    for row_a, row_b in zip(rows_a, rows_b):
        for x, y in zip(row_a, row_b):
            if x == y:
                continue
            try:
                worst = max(worst, _rel(float(x), float(y)))
            except ValueError:  # a text cell
                return math.inf
    return worst


def _distance_deviation(text_a: str, text_b: str) -> float:
    """Largest relative deviation of the pairwise Euclidean distances between
    the coordinate rows (columns x0, x1, ...) of two prototype CSVs; inf when
    any other cell differs."""
    def parse(text):
        header, *rows = list(csv.reader(io.StringIO(text)))
        cols = [i for i, h in enumerate(header) if h.startswith("x")]
        labels = [header] + [[c for i, c in enumerate(r) if i not in cols] for r in rows]
        return labels, [[float(r[i]) for i in cols] for r in rows]

    (labels_a, xa), (labels_b, xb) = parse(text_a), parse(text_b)
    if labels_a != labels_b:
        return math.inf
    worst = 0.0
    for i in range(len(xa)):
        for j in range(i + 1, len(xa)):
            worst = max(worst, _rel(math.dist(xa[i], xa[j]), math.dist(xb[i], xb[j])))
    return worst


DEVIATIONS = {"json": lambda a, b: _json_deviation(json.loads(a), json.loads(b)),
              "csv": _csv_deviation, "distances": _distance_deviation}


def diff_trees(a: str, b: str) -> int:
    files_a, files_b = _files(a), _files(b)
    drift = [f"only in {a}: {f}" for f in sorted(files_a - files_b)]
    drift += [f"only in {b}: {f}" for f in sorted(files_b - files_a)]
    same = 0
    for name in sorted(files_a & files_b):
        with open(os.path.join(a, name), "rb") as fa, open(os.path.join(b, name), "rb") as fb:
            bytes_a, bytes_b = fa.read(), fb.read()
        if bytes_a == bytes_b:
            same += 1
            continue
        rule = next((rule for pattern, rule in TOLERANCES.items()
                     if fnmatch.fnmatchcase(name, pattern)), None)
        if rule is None:
            drift.append(f"differs: {name}")
            continue
        kind, bound = rule
        text_a, text_b = bytes_a.decode("utf-8"), bytes_b.decode("utf-8")
        dev = DEVIATIONS[kind](text_a, text_b)
        verdict = "within" if dev <= bound else "beyond"
        line = f"{verdict} tolerance: {name} ({kind} deviation {dev:.3g}, bound {bound:g})"
        if dev > bound:
            drift.append(line)
        else:
            print(line)
    print(f"{len(files_a | files_b)} files, {same} byte-identical")
    for line in drift:
        print(line)
    return 1 if drift else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("run", help="run the CLI matrix into a new directory")
    p.add_argument("out")
    p.add_argument("--src", default=os.path.join(ROOT, "src"),
                   help="source tree holding the protometric package")
    p.add_argument("--tiny", action="store_true", help="a small subset of the matrix")
    p = sub.add_parser("diff", help="compare two run directories")
    p.add_argument("a")
    p.add_argument("b")
    args = parser.parse_args(argv)
    if args.command == "run":
        out = os.path.abspath(args.out)
        run_matrix(out, os.path.abspath(args.src), args.tiny)
        print(f"wrote {len(_files(out))} files to {out}")
        return 0
    return diff_trees(args.a, args.b)


if __name__ == "__main__":
    sys.exit(main())
