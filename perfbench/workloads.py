"""The benchmark's workloads: seeded input generation, the CLI operation each
one repeats, and the checks every operation's artifacts must pass.

Every input is derived from the workload seed; the program only sees the
generated files. Ops call ``protometric.cli.main(argv)`` in process.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys

import numpy as np

from protometric import data as pm_data
from protometric import taxonomy as pm_taxonomy

SCHEMES = ("max-prob", "min-ec", "any-node")
# Units of the figures `check` reads from the artifacts. `sfd` is an
# end-to-end metric; the others are printed beside the metrics.
VALUE_UNITS = {"sfd": "ratio", "test_er": "ratio", "test_ac": "cost"}


def balanced_tree(branching, rng) -> str:
    """Edge list of a balanced tree; the seed shuffles the line order, which
    fixes node ids and so the cost-matrix row order."""
    edges = []
    level = ["root"]
    for b in branching:
        nxt = []
        for parent in level:
            for j in range(b):
                child = f"n{j}" if parent == "root" else f"{parent}_{j}"
                edges.append(f"{child}\t{parent}")
                nxt.append(child)
        level = nxt
    order = rng.permutation(len(edges))
    return "\n".join(edges[i] for i in order) + "\n"


def run_config(taxonomy_path, dataset_path, output_dir, seed, *, regularizer,
               epochs) -> dict:
    return {
        "train": {
            "lambda": 1.0, "regularizer": regularizer, "head": "prototypes",
            "m": 64, "architecture": "mlp", "hidden": [32, 32],
            "epochs": epochs, "batch_size": 64,
            "distance": {"kind": "euclidean", "delta": 0.1},
            "include_internal_prototypes": False, "schedule": "joint",
            "optimizer": {"kind": "adam", "lr": 0.001},
        },
        "taxonomy_path": taxonomy_path,
        "dataset_path": dataset_path,
        "output_dir": output_dir,
        "scheme": "max-prob",
        "seeds": [seed],
        "test_fraction": 0.25,
    }


def _write(path, text):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _finite(*values) -> bool:
    return all(isinstance(v, (int, float)) and math.isfinite(v) for v in values)


class Workload:
    """One set of inputs and the CLI operation repeated on them.

    Subclasses fill `loaders` (the inputs whose public loaders `setup_s`
    times) in `generate`, and implement `op` and `check`. Every workload
    reports the same end-to-end metrics; `check` must return the `sfd` of
    the prototypes the workload's outputs use.
    """

    kind = ""

    def __init__(self, name: str, **sizes):
        self.name = name
        self.sizes = sizes
        self.work = ""
        self.loaders: dict[str, str] = {}

    def generate(self, work: str, seed: int) -> None:
        raise NotImplementedError

    def op(self, i: int) -> tuple[list[str], str]:
        """(argv, label) of op number i; label keys the determinism check."""
        raise NotImplementedError

    def warmup(self) -> tuple[list[str], str]:
        """(argv, label) of the untimed warm-up op: by default op 0."""
        return self.op(0)

    def check(self, label: str) -> tuple[list[str], dict]:
        """(problems, values read from the artifacts) for the last op."""
        raise NotImplementedError

    def figures(self, ok) -> dict[str, tuple[list[float], str]]:
        """Workload-specific timings printed beside the metrics, from the
        successful ops' (wall, label) pairs: name -> (samples, unit)."""
        return {}

    def digest(self) -> str:
        """sha256 over the last op's output file, or every file under it."""
        h = hashlib.sha256()
        files = [self.out] if os.path.isfile(self.out) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(self.out) for f in fs)
        for f in files:
            h.update(os.path.relpath(f, self.out).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
        return h.hexdigest()

    @property
    def out(self) -> str:
        return os.path.join(self.work, "out")

    def clear_output(self) -> None:
        if os.path.isdir(self.out):
            shutil.rmtree(self.out)
        elif os.path.exists(self.out):
            os.remove(self.out)


class TrainWorkload(Workload):
    kind = "train"

    def generate(self, work, seed):
        self.work = work
        self.seed = seed
        rng = np.random.default_rng(seed)
        tax_path = os.path.join(work, "tax.tsv")
        data_path = os.path.join(work, "data.csv")
        cfg_path = os.path.join(work, "config.json")
        text = balanced_tree(self.sizes["branching"], rng)
        _write(tax_path, text)
        tax = pm_taxonomy.parse_taxonomy(text)
        data = pm_data.gen_hierarchical_gaussians(
            tax, per_class=self.sizes["per_class"], dims=16, rng=rng)
        _write(data_path, pm_data.dataset_to_csv(data))
        _write(cfg_path, json.dumps(run_config(
            tax_path, data_path, self.out, seed, regularizer="disto",
            epochs=self.sizes["epochs"]), indent=2))
        self.loaders = {"taxonomy": tax_path, "csv": data_path}
        self.config_path = cfg_path

    def op(self, i):
        return ["--threads", "1", "train", self.config_path], "train"

    def check(self, label):
        problems = []
        tag = f"seed{self.seed}"
        try:
            with open(os.path.join(self.out, f"history_{tag}.csv"), encoding="utf-8") as fh:
                rows = list(csv.DictReader(fh))
            if len(rows) != self.sizes["epochs"]:
                problems.append(f"history has {len(rows)} rows, expected "
                                f"{self.sizes['epochs']}")
            for r in rows:
                if not _finite(*(float(r[k]) for k in ("l_data", "l_reg", "total"))):
                    problems.append(f"non-finite loss in epoch {r['epoch']}")
            with open(os.path.join(self.out, f"eval_{tag}.json"), encoding="utf-8") as fh:
                report = json.load(fh)
            values = {"sfd": report["distortion"]["scale_free_distortion"],
                      "test_er": report["er"], "test_ac": report["ac"]}
            if not _finite(*values.values()):
                problems.append(f"non-finite evaluation {values}")
            with open(os.path.join(self.out, f"checkpoint_{tag}.json"), encoding="utf-8") as fh:
                ckpt = json.load(fh)
            if len(ckpt["prototypes"]["coords"]) != math.prod(self.sizes["branching"]):
                problems.append("checkpoint prototype count differs from the leaf count")
        except (OSError, KeyError, TypeError, ValueError) as exc:
            return problems + [f"unreadable artifact: {exc!r}"], {}
        return problems, values

    def figures(self, ok):
        return {"train_epoch_s": ([wall / self.sizes["epochs"] for wall, _ in ok], "s")}


class InferWorkload(Workload):
    kind = "infer"

    def generate(self, work, seed):
        self.work = work
        rng = np.random.default_rng(seed)
        tax_path = os.path.join(work, "tax.tsv")
        data_path = os.path.join(work, "data.csv")
        feat_path = os.path.join(work, "features.csv")
        cfg_path = os.path.join(work, "config.json")
        text = balanced_tree(self.sizes["branching"], rng)
        _write(tax_path, text)
        tax = pm_taxonomy.parse_taxonomy(text)
        per_class = self.sizes["train_per_class"] + self.sizes["feature_per_class"]
        data = pm_data.gen_hierarchical_gaussians(tax, per_class=per_class, dims=16,
                                                  rng=rng)
        in_train = np.arange(data.n) % per_class < self.sizes["train_per_class"]
        _write(data_path, pm_data.dataset_to_csv(pm_data.Dataset(
            data.features[in_train], data.labels[in_train], data.class_names)))
        pool = np.flatnonzero(~in_train)
        self.X = X = data.features[rng.permutation(pool)[:self.sizes["rows"]]]
        self.rows = X.shape[0]
        _write(feat_path, "id," + ",".join(f"f{j}" for j in range(16)) + "\n" + "".join(
            f"r{i}," + ",".join(repr(float(v)) for v in x) + "\n" for i, x in enumerate(X)))

        # The checkpoint is made by the program's own `train`, in a child
        # process so its memory does not count toward this process's peak.
        ckpt_dir = os.path.join(work, "ckpt")
        _write(cfg_path, json.dumps(run_config(
            tax_path, data_path, ckpt_dir, seed, regularizer="none", epochs=1)))
        src = os.path.dirname(os.path.dirname(pm_data.__file__))
        subprocess.run([sys.executable, "-m", "protometric", "--threads", "1",
                        "train", cfg_path], check=True, stdout=subprocess.DEVNULL,
                       env={**os.environ, "PYTHONPATH": src}, timeout=120)
        self.checkpoint = os.path.join(ckpt_dir, f"checkpoint_seed{seed}.json")
        with open(os.path.join(ckpt_dir, f"eval_seed{seed}.json"), encoding="utf-8") as fh:
            self.sfd = json.load(fh)["distortion"]["scale_free_distortion"]
        self.features = feat_path
        self.leaf_names = set(tax.leaf_names)
        self.node_names = set(tax.names)
        self.loaders = {"taxonomy": tax_path, "checkpoint": self.checkpoint}

    def op(self, i):
        scheme = SCHEMES[i % len(SCHEMES)]
        return (["--threads", "1", "infer", self.checkpoint, self.features,
                 "--scheme", scheme, "--out", self.out], scheme)

    def check(self, scheme):
        classes = self.node_names if scheme == "any-node" else self.leaf_names
        try:
            with open(self.out, encoding="utf-8") as fh:
                rows = list(csv.DictReader(fh))
            problems = []
            if len(rows) != self.rows:
                problems.append(f"{len(rows)} prediction rows for {self.rows} inputs")
            for i, r in enumerate(rows):
                p1 = float(r["p1_prob"])
                if (r["sample_id"] != f"r{i}" or r["scheme"] != scheme
                        or r["predicted_class"] not in classes
                        or not 0.0 < p1 <= 1.0 or not math.isfinite(float(r["ec"]))):
                    problems.append(f"bad prediction row {i}: {r}")
                    break
        except (OSError, KeyError, TypeError, ValueError) as exc:
            return [f"unreadable predictions: {exc!r}"], {}
        # Inference reads the prototypes the set-up `train` learned; their
        # distortion comes from that run's evaluation.
        return problems, {"sfd": self.sfd}

    def figures(self, ok):
        return {f"rows_per_s.{scheme}":
                ([self.rows / wall for wall, label in ok if label == scheme], "rows/s")
                for scheme in SCHEMES}


class EmbedWorkload(Workload):
    kind = "embed"

    def generate(self, work, seed):
        self.work = work
        self.seed = seed
        rng = np.random.default_rng(seed)
        self.tax_path = os.path.join(work, "tax.tsv")
        _write(self.tax_path, balanced_tree(self.sizes["branching"], rng))
        self.loaders = {"taxonomy": self.tax_path}
        self.warmup_tax = os.path.join(work, "warmup_tax.tsv")
        _write(self.warmup_tax, balanced_tree((2, 2), rng))

    def _argv(self, tax_path):
        return ["--threads", "1", "embed", tax_path, "--dim", "4",
                "--steps", str(self.sizes["steps"]), "--seed", str(self.seed),
                "--out", self.out]

    def warmup(self):
        # An op on the real tree costs as much as a timed one (seconds of
        # _lm_refine); a 4-leaf tree runs the same code paths almost free.
        return self._argv(self.warmup_tax), "warm-up"

    def op(self, i):
        return self._argv(self.tax_path), "embed"

    def check(self, label):
        try:
            with open(os.path.join(self.out, "distortion.json"), encoding="utf-8") as fh:
                report = json.load(fh)
            keys = ("distortion", "scale_free_distortion", "s_star_l1", "s_star_l2")
            if not _finite(*(report[k] for k in keys)):
                return [f"non-finite distortion report {report}"], {}
        except (OSError, KeyError, TypeError, ValueError) as exc:
            return [f"unreadable distortion report: {exc!r}"], {}
        return [], {"sfd": report["scale_free_distortion"]}


def make_workloads(tiny: bool = False) -> dict[str, Workload]:
    """The four workloads at benchmark sizes, or at self-test sizes.

    BENCHMARK.json says why each one exists.
    """
    k100, k8, k1000 = ((2, 3), (2, 2), (3, 3)) if tiny else ((10, 10), (2, 2, 2), (10, 10, 10))
    return {w.name: w for w in (
        TrainWorkload("train-k100-disto", branching=k100, per_class=4 if tiny else 20,
                      epochs=2 if tiny else 3),
        TrainWorkload("train-k8-mlp", branching=k8, per_class=20 if tiny else 1000,
                      epochs=2 if tiny else 3),
        InferWorkload("infer-k1000", branching=k1000, train_per_class=2,
                      feature_per_class=3, rows=16 if tiny else 2048),
        EmbedWorkload("embed-k100", branching=k100, steps=20 if tiny else 500),
    )}
