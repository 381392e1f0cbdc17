import argparse
import ast
import csv
import inspect
import io
import json
import os
import subprocess
import sys
import time
import tracemalloc

import numpy as np
import pytest

import protometric as pm
from protometric import cli, formats, geometry, inference
from protometric.cli import RunConfig, main
from protometric.model import head_logits

from conftest import TOY_EDGE_LIST

FOUR_LEAF = "a1\tA\na2\tA\nb1\tB\nb2\tB\nA\troot\nB\troot\n"


@pytest.fixture
def toy_tax_file(tmp_path):
    path = tmp_path / "tax.tsv"
    path.write_text(TOY_EDGE_LIST)
    return str(path)


@pytest.fixture
def four_leaf_file(tmp_path):
    path = tmp_path / "tax4.tsv"
    path.write_text(FOUR_LEAF)
    return str(path)


def synth_csv(tmp_path, tax_file, per_class=30, dims=4, seed=7, noise=0.5):
    out = str(tmp_path / "data.csv")
    code = main(["synth", tax_file, "--per-class", str(per_class),
                 "--dims", str(dims), "--root-spread", "3", "--decay", "0.5",
                 "--noise", str(noise), "--seed", str(seed), "--out", out])
    assert code == 0
    return out


def write_config(tmp_path, tax_file, data_file, out_dir, **overrides):
    train = {"lambda": 1.0, "regularizer": "disto", "head": "prototypes",
             "m": 4, "architecture": "mlp", "hidden": [8], "epochs": 12,
             "batch_size": 16, "distance": {"kind": "euclidean"}}
    train.update(overrides.pop("train", {}))
    cfg = {"train": train, "taxonomy_path": tax_file, "dataset_path": data_file,
           "output_dir": out_dir, "scheme": "max-prob", "seeds": [0],
           "test_fraction": 0.25}
    cfg.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return str(path)


class TestCmdCost:
    def test_leaves_csv(self, tmp_path, toy_tax_file):
        out = str(tmp_path / "cost.csv")
        assert main(["cost", toy_tax_file, "--out", out]) == 0
        lines = open(out).read().strip().split("\n")
        assert lines[0] == ",a1,a2,b1"
        values = {float(v) for line in lines[1:] for v in line.split(",")[1:]}
        assert values == {0.0, 2.0, 4.0}

    def test_all_nodes_matrix(self, tmp_path, toy_tax_file):
        out = str(tmp_path / "cost_all.csv")
        assert main(["cost", toy_tax_file, "--nodes", "all", "--out", out]) == 0
        lines = open(out).read().strip().split("\n")
        assert len(lines) == 7  # header + 6 nodes

    def test_invalid_tree_exits_2(self, tmp_path):
        bad = tmp_path / "bad.tsv"
        bad.write_text("root\tA\nA\troot\n")
        out = str(tmp_path / "cost.csv")
        assert main(["cost", str(bad), "--out", out]) == 2

    def test_line_without_a_tab_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "spaces.tsv"
        bad.write_text("a\troot\nb root\n")
        assert main(["cost", str(bad), "--out", str(tmp_path / "c.csv")]) == 2
        assert capsys.readouterr().err == (
            "error: line 2: expected 'child<TAB>parent[<TAB>weight]'\n")

    @pytest.mark.parametrize("fmt, text", [
        ("edge-list", FOUR_LEAF),
        ("json-tree", json.dumps({"name": "root", "children": [
            {"name": "A", "weight": 2, "children": [{"name": "a1"}, {"name": "a2"}]},
            {"name": "b1", "weight": 0.5}]})),
    ], ids=["edge-list", "json-tree"])
    def test_bom_taxonomy_reads_as_its_plain_copy(self, tmp_path, fmt, text):
        # a "UTF-8 with BOM" file: the mark is no part of the first name
        outs = []
        for name, prefix in (("plain", ""), ("bom", "\ufeff")):
            tax = tmp_path / f"{name}.tax"
            tax.write_text(prefix + text, encoding="utf-8")
            out = tmp_path / f"{name}.csv"
            assert main(["cost", str(tax), "--format", fmt, "--nodes", "all",
                         "--out", str(out)]) == 0
            outs.append(out.read_bytes())
        assert outs[1] == outs[0]

    def test_missing_file_exits_2(self, tmp_path):
        assert main(["cost", str(tmp_path / "nope.tsv"),
                     "--out", str(tmp_path / "c.csv")]) == 2


def run_process(*argv) -> tuple[int, list[str]]:
    """Exit code and stderr lines of the CLI in a fresh process, where numpy
    prints its floating-point warnings to stderr as it would for a user."""
    src = os.path.dirname(os.path.dirname(pm.__file__))
    done = subprocess.run([sys.executable, "-m", "protometric", *argv],
                          capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": src})
    return done.returncode, done.stderr.splitlines()


class TestCmdEmbed:
    def test_chain_metric_embeds_on_a_line(self, tmp_path):
        chain = tmp_path / "chain.tsv"
        chain.write_text("a\tb\nc\tb\n")
        out = str(tmp_path / "embed")
        assert main(["embed", str(chain), "--nodes", "all", "--dim", "2",
                     "--steps", "1500", "--seed", "0", "--out", out]) == 0
        report = json.loads(open(os.path.join(out, "distortion.json")).read())
        assert report["scale_free_distortion"] < 1e-6

    def test_star_in_one_dimension_stays_distorted(self, tmp_path):
        star = tmp_path / "star.tsv"
        star.write_text("p\troot\nq\troot\nr\troot\ns\troot\n")
        out = str(tmp_path / "embed1d")
        assert main(["embed", str(star), "--dim", "1", "--steps", "1500",
                     "--seed", "0", "--out", out]) == 0
        report = json.loads(open(os.path.join(out, "distortion.json")).read())
        # random-search oracle: no 4-point line embedding of the unit star
        # gets anywhere near zero scale-free distortion
        rng = np.random.default_rng(0)
        metric = pm.cost_matrix(pm.parse_taxonomy(star.read_text()))
        best = np.inf
        for _ in range(2000):
            pi = pm.PrototypeSet(rng.standard_normal((4, 1)) * rng.uniform(0.2, 3),
                                 (0, 1, 2, 3))
            best = min(best, pm.scale_free_distortion(pi, metric,
                                                      pm.DistanceSpec()))
        assert best > 0.05
        assert report["scale_free_distortion"] > 0.05

    def test_seeded_reruns_are_byte_identical(self, tmp_path, toy_tax_file):
        out1, out2 = str(tmp_path / "e1"), str(tmp_path / "e2")
        args = ["embed", toy_tax_file, "--dim", "2", "--steps", "300", "--seed", "3"]
        assert main(args + ["--out", out1]) == 0
        assert main(args + ["--out", out2]) == 0
        for name in ("prototypes.csv", "distortion.json"):
            assert (open(os.path.join(out1, name)).read()
                    == open(os.path.join(out2, name)).read())

    @pytest.mark.parametrize("flags", [["--steps", "0"], ["--steps", "-3"], ["--dim", "0"],
                                       ["--triplets", "0"], ["--lr", "0"], ["--lr", "-1"],
                                       ["--lr", "nan"], ["--lr", "inf"]])
    def test_rejects_non_positive_numbers(self, tmp_path, capsys, toy_tax_file, flags):
        out = tmp_path / "embed"
        capsys.readouterr()
        assert main(["embed", toy_tax_file, *flags, "--out", str(out)]) == 2
        err = capsys.readouterr().err.strip().split("\n")
        assert len(err) == 1 and err[0].startswith("error: ")
        assert not out.exists()

    @pytest.mark.parametrize("steps", ["1", "20"])
    def test_diverging_fit_exits_1_with_one_line(self, tmp_path, four_leaf_file, steps):
        # --steps 1 leaves finite coordinates whose distances overflow
        out = tmp_path / "embed"
        code, err = run_process("embed", four_leaf_file, "--lr", "1e300", "--steps", steps,
                                "--out", str(out))
        assert code == 1 and len(err) == 1, err
        assert err[0].startswith("error: ") and "step" in err[0] and "--lr" in err[0]
        assert not out.exists()

    def test_rank_regularizer_runs(self, tmp_path, toy_tax_file):
        out = str(tmp_path / "rank")
        assert main(["embed", toy_tax_file, "--regularizer", "rank", "--dim", "2",
                     "--steps", "200", "--seed", "0", "--out", out]) == 0
        assert os.path.exists(os.path.join(out, "prototypes.csv"))

    def test_lm_polish_of_2080_coordinates_is_quick(self, tmp_path):
        # 65 * 32 coordinates: normal equations in them took over a minute,
        # the matrix-free polish takes about a second
        star = tmp_path / "star65.tsv"
        star.write_text("".join(f"s{i}\troot\n" for i in range(65)))
        start = time.perf_counter()
        assert main(["embed", str(star), "--dim", "32", "--steps", "2",
                     "--out", str(tmp_path / "e")]) == 0
        assert time.perf_counter() - start < 30


class TestCmdSynth:
    def test_writes_csv_and_sidecar(self, tmp_path, toy_tax_file):
        out = synth_csv(tmp_path, toy_tax_file, per_class=10, dims=3, seed=1)
        lines = open(out).read().strip().split("\n")
        assert lines[0] == "f0,f1,f2,label"
        assert len(lines) == 31
        meta = json.loads(open(out.replace(".csv", ".meta.json")).read())
        assert meta["per_class"] == 10
        assert meta["seed"] == 1
        assert meta["n"] == 30

    def test_deterministic(self, tmp_path, toy_tax_file):
        a = synth_csv(tmp_path, toy_tax_file, seed=5)
        text_a = open(a).read()
        os.remove(a)
        b = synth_csv(tmp_path, toy_tax_file, seed=5)
        assert open(b).read() == text_a


class TestCmdTrain:
    def test_artifacts_and_schema(self, tmp_path, four_leaf_file):
        data = synth_csv(tmp_path, four_leaf_file)
        out_dir = str(tmp_path / "run")
        config = write_config(tmp_path, four_leaf_file, data, out_dir,
                              seeds=[0, 1])
        assert main(["train", config]) == 0
        # each result once: no test-embedding dump, no JSON twin of the history
        per_seed = (("checkpoint", "json"), ("history", "csv"), ("prototypes", "csv"),
                    ("eval", "json"), ("confusion", "csv"))
        assert sorted(os.listdir(out_dir)) == sorted(
            ["config.json", "aggregate_eval.json",
             *(f"{stem}_seed{seed}.{ext}" for seed in (0, 1) for stem, ext in per_seed)])
        for seed in (0, 1):
            history = open(os.path.join(out_dir, f"history_seed{seed}.csv")).read()
            header = history.strip().split("\n")[0]
            assert header == "epoch,l_data,l_reg,total,s_star,train_er,train_ac"
            assert len(history.strip().split("\n")) == 13  # header + 12 epochs
        agg = json.loads(open(os.path.join(out_dir, "aggregate_eval.json")).read())
        assert agg["seeds"] == [0, 1]
        assert len(agg["per_seed"]) == 2
        assert agg["metrics"]["ac"] is not None
        # config echo holds the exact resolved configuration
        echoed = json.loads(open(os.path.join(out_dir, "config.json")).read())
        assert echoed["seeds"] == [0, 1]
        assert echoed["train"]["lambda"] == 1.0

    def test_idempotent_byte_identical(self, tmp_path, four_leaf_file):
        data = synth_csv(tmp_path, four_leaf_file, per_class=15)
        out1, out2 = str(tmp_path / "r1"), str(tmp_path / "r2")
        c1 = write_config(tmp_path, four_leaf_file, data, out1,
                          train={"epochs": 5})
        assert main(["train", c1]) == 0
        c2 = write_config(tmp_path, four_leaf_file, data, out2,
                          train={"epochs": 5})
        assert main(["train", c2]) == 0
        for name in sorted(os.listdir(out1)):
            if name == "config.json":  # differs in output_dir only
                continue
            a = open(os.path.join(out1, name)).read()
            b = open(os.path.join(out2, name)).read()
            assert a == b, name

    def test_flag_overrides(self, tmp_path, four_leaf_file):
        data = synth_csv(tmp_path, four_leaf_file, per_class=10)
        out_dir = str(tmp_path / "ov")
        config = write_config(tmp_path, four_leaf_file, data, out_dir)
        assert main(["train", config, "--epochs", "3", "--head", "cross-entropy",
                     "--seeds", "2"]) == 0
        echoed = json.loads(open(os.path.join(out_dir, "config.json")).read())
        assert echoed["train"]["epochs"] == 3
        assert echoed["train"]["head"] == "cross-entropy"
        assert echoed["seeds"] == [2]
        assert os.path.exists(os.path.join(out_dir, "checkpoint_seed2.json"))

    def test_csv_quotes_awkward_class_names(self, tmp_path):
        tax = tmp_path / "awkward.tsv"
        tax.write_text('a,b\tA\n"q"\tA\nc\troot\nA\troot\n')
        names = ["a,b", '"q"', "c"]
        cost = str(tmp_path / "cost.csv")
        assert main(["cost", str(tax), "--out", cost]) == 0
        text = open(cost).read()
        assert text.split("\n")[0] == ',"a,b","""q""",c'
        rows = list(csv.reader(io.StringIO(text)))
        assert rows[0] == ["", *names]
        assert [row[0] for row in rows[1:]] == names
        data = synth_csv(tmp_path, str(tax), per_class=8, dims=3)
        labels = [row[-1] for row in csv.reader(open(data))][1:]
        assert sorted(set(labels)) == sorted(names)
        out_dir = str(tmp_path / "run")
        config = write_config(tmp_path, str(tax), data, out_dir, train={"epochs": 2})
        assert main(["train", config]) == 0
        confusion = list(csv.reader(open(os.path.join(out_dir, "confusion_seed0.csv"))))
        assert confusion[0][1:] == names
        protos = list(csv.reader(open(os.path.join(out_dir, "prototypes_seed0.csv"))))
        assert [row[0] for row in protos[1:]] == names

    def test_diverging_fit_exits_1_with_one_line(self, tmp_path, four_leaf_file):
        data = synth_csv(tmp_path, four_leaf_file, per_class=8)
        config = write_config(tmp_path, four_leaf_file, data, str(tmp_path / "run"),
                              train={"epochs": 2, "optimizer": {"kind": "adam", "lr": 1e300}})
        code, err = run_process("train", config)
        assert code == 1 and len(err) == 1, err
        assert err[0].startswith("error: ") and "lr=1e+300" in err[0]

    def test_overflowing_epoch_evaluation_names_epoch_and_lr(self, tmp_path,
                                                             four_leaf_file):
        # one finite step per epoch, whose embeddings of features near 1e10
        # overflow in the epoch's evaluation before another loss is checked
        rows = "".join(f"1e10,{1e10 + k!r},{leaf}\n" for k in range(4)
                       for leaf in ("a1", "a2", "b1", "b2"))
        data = tmp_path / "far.csv"
        data.write_text("f0,f1,label\n" + rows)
        config = write_config(tmp_path, four_leaf_file, str(data), str(tmp_path / "run"),
                              train={"epochs": 2, "batch_size": 64, "m": 2,
                                     "architecture": "linear", "hidden": [],
                                     "regularizer": "none",
                                     "optimizer": {"kind": "sgd", "lr": 1e300}})
        code, err = run_process("train", config)
        assert code == 1 and err == [
            "error: non-finite activation output at epoch 1 (lr=1e+300)"], err

    def test_bom_run_config_reads_as_its_plain_copy(self, tmp_path, four_leaf_file):
        data = synth_csv(tmp_path, four_leaf_file, per_class=6)
        text = open(write_config(tmp_path, four_leaf_file, data, "",
                                 train={"epochs": 2})).read()
        outs = []
        for name, prefix in (("plain", ""), ("bom", "\ufeff")):
            config = tmp_path / f"{name}.json"
            config.write_text(prefix + text, encoding="utf-8")
            out = tmp_path / f"run-{name}"
            assert main(["train", str(config), "--output-dir", str(out)]) == 0
            files = {f.name: f.read_bytes() for f in out.iterdir()}
            echo = json.loads(files.pop("config.json"))
            assert echo.pop("output_dir") == str(out)
            outs.append((files, echo))
        assert outs[1] == outs[0]

    def test_a_leaf_class_without_rows_keeps_its_prototype_row(self, tmp_path, four_leaf_file):
        # `split` passes over a class without rows, with no warning; its
        # prototype gets no data gradient, only the regularizer's
        lines = open(synth_csv(tmp_path, four_leaf_file, per_class=6)).read().splitlines()
        data = tmp_path / "no_b2.csv"
        data.write_text("\n".join(l for l in lines if not l.endswith(",b2")) + "\n")
        out = tmp_path / "run"
        config = write_config(tmp_path, four_leaf_file, str(data), str(out),
                              train={"epochs": 2})
        assert run_process("train", config) == (0, [])
        protos = list(csv.reader(open(out / "prototypes_seed0.csv")))
        assert [row[0] for row in protos[1:]] == ["a1", "a2", "b1", "b2"]
        assert all(np.isfinite(float(cell)) for cell in protos[4][2:])

    @pytest.mark.parametrize("optimizer, field", [({"beta1": 1.0}, "beta1"),
                                                  ({"eps": 0.0}, "eps"),
                                                  ({"kind": "sgd", "momentum": -3.0},
                                                   "momentum")])
    def test_unusable_optimizer_value_exits_2(self, tmp_path, four_leaf_file, optimizer,
                                              field):
        # beta1 = 1 and eps = 0 exited 1 on non-finite parameters; momentum
        # -3 trained and exited 0
        data = synth_csv(tmp_path, four_leaf_file, per_class=8)
        config = write_config(tmp_path, four_leaf_file, data, str(tmp_path / "run"),
                              train={"epochs": 2, "optimizer": optimizer})
        code, err = run_process("train", config)
        assert code == 2 and len(err) == 1, err
        assert err[0].startswith("error: ") and field in err[0]

    def test_a_library_warning_is_one_stderr_line(self, tmp_path, four_leaf_file):
        # a class with one row goes to the train split, with a warning
        lines = open(synth_csv(tmp_path, four_leaf_file, per_class=6)).read().splitlines()
        b2 = [l for l in lines if l.endswith(",b2")]
        data = tmp_path / "one_b2.csv"
        data.write_text("\n".join(l for l in lines if l not in b2[1:]) + "\n")
        config = write_config(tmp_path, four_leaf_file, str(data), str(tmp_path / "run"),
                              train={"epochs": 2})
        assert run_process("train", config) == (0, [
            "warning: class 'b2' has fewer than 2 samples; assigning it to the train split"])

    def test_missing_dataset_exits_2(self, tmp_path, capsys, four_leaf_file):
        absent = str(tmp_path / "absent.csv")
        config = write_config(tmp_path, four_leaf_file, absent, str(tmp_path / "x"))
        assert main(["train", config]) == 2
        assert absent in capsys.readouterr().err
        assert not (tmp_path / "x").exists()


class TestCmdEval:
    def _train(self, tmp_path, tax_file, **train_overrides):
        # near-noiseless blobs so the model can memorize them outright
        data = synth_csv(tmp_path, tax_file, per_class=25, noise=0.1)
        out_dir = str(tmp_path / "trained")
        config = write_config(tmp_path, tax_file, data, out_dir,
                              train={"epochs": 150, **train_overrides})
        assert main(["train", config]) == 0
        return data, os.path.join(out_dir, "checkpoint_seed0.json")

    def test_memorization_reaches_zero_error(self, tmp_path, four_leaf_file):
        data, ckpt = self._train(tmp_path, four_leaf_file)
        out = str(tmp_path / "eval")
        assert main(["eval", ckpt, data, four_leaf_file, "--out", out]) == 0
        report = json.loads(open(os.path.join(out, "eval.json")).read())
        assert report["er"] == 0.0
        assert report["ac"] == 0.0
        assert os.path.exists(os.path.join(out, "confusion.csv"))

    def test_min_ec_equals_max_prob_on_uniform_metric(self, tmp_path):
        # star taxonomy: every off-diagonal cost is 2 (uniform), so the
        # expected-cost minimizer coincides with the posterior argmax
        star = tmp_path / "star.tsv"
        star.write_text("u\troot\nv\troot\nw\troot\n")
        data, ckpt = self._train(tmp_path, str(star))
        out_a = str(tmp_path / "eva")
        out_b = str(tmp_path / "evb")
        assert main(["eval", ckpt, data, str(star), "--scheme", "max-prob",
                     "--out", out_a]) == 0
        assert main(["eval", ckpt, data, str(star), "--scheme", "min-ec",
                     "--out", out_b]) == 0
        ra = json.loads(open(os.path.join(out_a, "eval.json")).read())
        rb = json.loads(open(os.path.join(out_b, "eval.json")).read())
        assert ra["er"] == rb["er"]
        assert ra["ac"] == rb["ac"]
        assert (open(os.path.join(out_a, "confusion.csv")).read()
                == open(os.path.join(out_b, "confusion.csv")).read())

    def test_any_node_reports_l_er_and_r_er(self, tmp_path, four_leaf_file):
        data, ckpt = self._train(tmp_path, four_leaf_file)
        out = str(tmp_path / "anynode")
        assert main(["eval", ckpt, data, four_leaf_file, "--scheme", "any-node",
                     "--out", out]) == 0
        report = json.loads(open(os.path.join(out, "eval.json")).read())
        assert report["l_er"] is not None
        assert report["distortion"] is not None

    def test_internal_prototype_checkpoint_round_trips(self, tmp_path,
                                                       four_leaf_file):
        data, ckpt = self._train(tmp_path, four_leaf_file,
                                 include_internal_prototypes=True)
        loaded = pm.load_checkpoint(ckpt)
        assert loaded.prototypes.includes_internal
        assert loaded.prototypes.size == loaded.taxonomy.n_nodes
        for scheme in ("max-prob", "min-ec", "any-node"):
            out = str(tmp_path / f"ev_{scheme}")
            assert main(["eval", ckpt, data, four_leaf_file,
                         "--scheme", scheme, "--out", out]) == 0

    def test_head_checkpoint_evaluates_with_class_mean_distortion(
            self, tmp_path, four_leaf_file):
        data, ckpt = self._train(tmp_path, four_leaf_file,
                                 head="cross-entropy")
        lines = open(data).read().strip().split("\n")
        partial = tmp_path / "no_b2.csv"
        partial.write_text("\n".join(l for l in lines if not l.endswith(",b2")) + "\n")
        loaded = pm.load_checkpoint(ckpt)
        metric = pm.cost_matrix(loaded.taxonomy)

        def reported(dataset):
            out = str(tmp_path / f"eval_{os.path.basename(dataset)}")
            assert main(["eval", ckpt, dataset, four_leaf_file, "--out", out]) == 0
            return json.loads(open(os.path.join(out, "eval.json")).read())["distortion"]

        # a class is missing: the checkpoint's stored training means stand in
        stored = pm.distortion_report(loaded.prototypes, metric, loaded.distance)
        assert reported(str(partial)) == stored.to_dict()
        # every class present: the means of the evaluated embeddings stand in
        full = pm.load_csv(data, "label", loaded.taxonomy)
        E = pm.forward(loaded.model, full.features)
        means = np.stack([E[full.labels == k].mean(axis=0) for k in range(4)])
        fresh = pm.distortion_report(pm.PrototypeSet(means, loaded.taxonomy.leaf_ids),
                                     metric, loaded.distance)
        assert reported(data) == pytest.approx(fresh.to_dict(), rel=1e-12)
        assert fresh.scale_free_distortion != stored.scale_free_distortion

    def test_taxonomy_with_other_node_numbering_exits_2(self, tmp_path, capsys):
        trained = tmp_path / "trained.tsv"
        trained.write_text("A\tR\nB\tR\nC\troot\nR\troot\n")
        reordered = tmp_path / "reordered.tsv"
        reordered.write_text("A\tR\nR\troot\nB\tR\nC\troot\n")
        data = synth_csv(tmp_path, str(trained), per_class=5)
        config = write_config(tmp_path, str(trained), data, str(tmp_path / "run"),
                              train={"epochs": 1})
        assert main(["train", config]) == 0
        capsys.readouterr()
        assert main(["eval", str(tmp_path / "run" / "checkpoint_seed0.json"), data,
                     str(reordered), "--out", str(tmp_path / "e")]) == 2
        err = capsys.readouterr().err.strip().split("\n")
        assert err == ["error: taxonomy node id 2 is 'root' but 'B' in the checkpoint"]

    def test_taxonomy_with_other_leaves_exits_2(self, tmp_path, capsys, four_leaf_file):
        data = synth_csv(tmp_path, four_leaf_file, per_class=5)
        config = write_config(tmp_path, four_leaf_file, data, str(tmp_path / "run"),
                              train={"epochs": 1})
        assert main(["train", config]) == 0
        renamed = tmp_path / "renamed.tsv"
        renamed.write_text(FOUR_LEAF.replace("b2", "b3"))
        capsys.readouterr()
        assert main(["eval", str(tmp_path / "run" / "checkpoint_seed0.json"), data,
                     str(renamed), "--out", str(tmp_path / "e")]) == 2
        assert capsys.readouterr().err == (
            "error: taxonomy leaves do not match the checkpoint's classes\n")

    def test_reads_a_bom_file_whose_first_column_is_the_label(self, tmp_path, four_leaf_file):
        # a "UTF-8 with BOM" export: the mark is no part of the first header
        # cell, bare and with a quoted label
        data = synth_csv(tmp_path, four_leaf_file, per_class=5)
        config = write_config(tmp_path, four_leaf_file, data, str(tmp_path / "run"),
                              train={"epochs": 1})
        assert main(["train", config]) == 0
        with open(data, newline="") as fh:
            rows = [[row[-1], *row[:-1]] for row in csv.reader(fh)]
        assert rows[0][0] == "label"
        paths = [data]
        for name, first in (("bom", rows[1][0]), ("bom-quoted", f'"{rows[1][0]}"')):
            path = tmp_path / f"{name}.csv"
            text = "".join(",".join(row) + "\n" for row in [rows[0], [first, *rows[1][1:]],
                                                             *rows[2:]])
            path.write_text("\ufeff" + text, encoding="utf-8")
            paths.append(str(path))
        reports = []
        for k, path in enumerate(paths):
            out = str(tmp_path / f"eval{k}")
            assert main(["eval", str(tmp_path / "run" / "checkpoint_seed0.json"), path,
                         four_leaf_file, "--out", out]) == 0
            reports.append(open(os.path.join(out, "eval.json")).read())
        assert reports[1] == reports[0] and reports[2] == reports[0]

    def test_missing_checkpoint_exits_2(self, tmp_path, four_leaf_file):
        data = synth_csv(tmp_path, four_leaf_file, per_class=5)
        assert main(["eval", str(tmp_path / "none.json"), data, four_leaf_file,
                     "--out", str(tmp_path / "e")]) == 2


class TestCmdInfer:
    def _checkpoint(self, tmp_path, tax_file):
        data = synth_csv(tmp_path, tax_file, per_class=20)
        out_dir = str(tmp_path / "trained")
        config = write_config(tmp_path, tax_file, data, out_dir,
                              train={"epochs": 15})
        assert main(["train", config]) == 0
        return os.path.join(out_dir, "checkpoint_seed0.json")

    def _features(self, tmp_path, rows):
        path = tmp_path / "features.csv"
        lines = ["f0,f1,f2,f3"]
        lines += [",".join(str(v) for v in row) for row in rows]
        path.write_text("\n".join(lines) + "\n")
        return str(path)

    def test_one_row_in_one_row_out(self, tmp_path, four_leaf_file):
        ckpt = self._checkpoint(tmp_path, four_leaf_file)
        feats = self._features(tmp_path, [[0.1, -0.2, 0.3, 0.4]])
        out = str(tmp_path / "preds.csv")
        assert main(["infer", ckpt, feats, "--out", out]) == 0
        lines = open(out).read().strip().split("\n")
        assert len(lines) == 2
        header = lines[0].split(",")
        assert header[:3] == ["sample_id", "scheme", "predicted_class"]
        assert header[-1] == "ec"

    def test_deterministic_across_repeats(self, tmp_path, four_leaf_file):
        ckpt = self._checkpoint(tmp_path, four_leaf_file)
        rng = np.random.default_rng(0)
        feats = self._features(tmp_path, rng.standard_normal((6, 4)).tolist())
        out1, out2 = str(tmp_path / "p1.csv"), str(tmp_path / "p2.csv")
        assert main(["infer", ckpt, feats, "--out", out1]) == 0
        assert main(["infer", ckpt, feats, "--out", out2]) == 0
        assert open(out1).read() == open(out2).read()

    def test_max_prob_on_head_checkpoint_is_head_argmax(self, tmp_path,
                                                          four_leaf_file):
        data = synth_csv(tmp_path, four_leaf_file, per_class=20)
        out_dir = str(tmp_path / "xe")
        config = write_config(tmp_path, four_leaf_file, data, out_dir,
                              train={"epochs": 15, "head": "cross-entropy"})
        assert main(["train", config]) == 0
        ckpt_path = os.path.join(out_dir, "checkpoint_seed0.json")
        X = np.random.default_rng(1).standard_normal((40, 4)) * 2
        out = str(tmp_path / "xe.csv")
        assert main(["infer", ckpt_path, self._features(tmp_path, X.tolist()),
                     "--out", out]) == 0
        ckpt = pm.load_checkpoint(ckpt_path)
        logits = head_logits(ckpt.head, pm.forward(ckpt.model, X))
        expected = [ckpt.taxonomy.leaf_names[k] for k in np.argmax(logits, axis=1)]
        rows = open(out).read().strip().split("\n")[1:]
        assert [row.split(",")[2] for row in rows] == expected

    def test_any_node_scheme_can_return_internal(self, tmp_path, four_leaf_file):
        ckpt = self._checkpoint(tmp_path, four_leaf_file)
        feats = self._features(tmp_path, [[0.0, 0.0, 0.0, 0.0]])
        out = str(tmp_path / "any.csv")
        assert main(["infer", ckpt, feats, "--scheme", "any-node", "--out", out]) == 0
        row = open(out).read().strip().split("\n")[1].split(",")
        tax = pm.load_checkpoint(ckpt).taxonomy
        assert row[2] in tax.names

    def test_id_column_is_carried_through(self, tmp_path, four_leaf_file):
        ckpt = self._checkpoint(tmp_path, four_leaf_file)
        path = tmp_path / "withid.csv"
        path.write_text("id,f0,f1,f2,f3\nsample-42,0,0,0,0\n")
        out = str(tmp_path / "ids.csv")
        assert main(["infer", ckpt, str(path), "--out", out]) == 0
        assert open(out).read().strip().split("\n")[1].startswith("sample-42,")

    def test_row_blocks_write_the_bytes_of_one_pass(self, tmp_path, monkeypatch,
                                                    four_leaf_file):
        ckpt = self._checkpoint(tmp_path, four_leaf_file)
        X = np.random.default_rng(3).standard_normal((1001, 4)) * 2
        feats = self._features(tmp_path, X.tolist())
        decide, calls = inference._decide, []
        monkeypatch.setattr(inference, "_decide",
                            lambda P, *rest: calls.append(len(P)) or decide(P, *rest))
        for scheme in inference.SCHEMES:
            written = []
            # one block, then blocks of at most 262 rows (the tree has 4 leaves)
            for budget in (geometry.BUDGET, 8 * 4 * 262):
                monkeypatch.setattr(geometry, "BUDGET", budget)
                calls.clear()
                out = tmp_path / f"{scheme}-{budget}.csv"
                assert main(["infer", ckpt, feats, "--scheme", scheme, "--out", str(out)]) == 0
                written.append(out.read_bytes())
            assert sum(calls) == 1001 and len(calls) >= 4, calls
            assert written[0] == written[1]

    def test_a_failing_block_writes_no_file(self, tmp_path, monkeypatch, four_leaf_file):
        ckpt = self._checkpoint(tmp_path, four_leaf_file)
        feats = self._features(tmp_path, np.zeros((400, 4)).tolist())
        monkeypatch.setattr(geometry, "BUDGET", 8 * 4 * 100)
        decide, calls = inference._decide, []

        def failing(P, *rest):
            calls.append(len(P))
            if len(calls) == 3:
                raise FloatingPointError("non-finite block")
            return decide(P, *rest)

        monkeypatch.setattr(inference, "_decide", failing)
        out = tmp_path / "preds.csv"
        assert main(["infer", ckpt, feats, "--out", str(out)]) == 1
        assert calls == [100, 100, 100] and not out.exists()

    def test_memory_does_not_grow_with_the_rows(self, tmp_path):
        # one block's posterior, expected costs and top-3 at a time: 4N rows
        # peak less than one (3N, K) float array above N rows, where a whole
        # batch of them would add several
        rng = np.random.default_rng(4)
        lines = [f"g{i}\troot" for i in range(6)]
        lines += [f"l{i}\tg{i % 6}" for i in range(300)]
        tax = pm.parse_taxonomy("\n".join(lines) + "\n")
        K = len(tax.leaf_ids)
        model = pm.init_embedding_model("linear", 2, 4, rng=rng)
        pi = pm.PrototypeSet(rng.standard_normal((K, 4)), tax.leaf_ids)
        ckpt = str(tmp_path / "ckpt.json")
        pm.save_checkpoint(ckpt, pm.Checkpoint(model, pi, pm.DistanceSpec(), tax))
        N = 400
        feats = {}
        for n in (N, 4 * N):
            feats[n] = tmp_path / f"f{n}.csv"
            feats[n].write_text("f0,f1\n" + "".join(
                f"{a!r},{b!r}\n" for a, b in rng.standard_normal((n, 2)).tolist()))
        for scheme in inference.SCHEMES:
            peak = {}
            for n in (N, 4 * N):
                tracemalloc.start()
                try:
                    assert main(["infer", ckpt, str(feats[n]), "--scheme", scheme,
                                 "--out", str(tmp_path / "p.csv")]) == 0
                    peak[n] = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
            assert peak[4 * N] - peak[N] < 3 * N * K * 8, (scheme, peak)

    @pytest.mark.parametrize("mutate", [
        pytest.param(lambda p: p["prototypes"]["class_map"].__setitem__(0, 999),
                     id="class-map-id-too-large"),
        pytest.param(lambda p: p["prototypes"]["class_map"].__setitem__(-1, -1),
                     id="class-map-id-negative"),
        pytest.param(lambda p: p["prototypes"]["class_map"].reverse(),
                     id="class-map-leaves-reordered"),
        pytest.param(lambda p: [row.append(0.0) for row in p["prototypes"]["coords"]],
                     id="prototype-dimension"),
        pytest.param(lambda p: (p["head"].update(n_classes=5),
                                p["head"]["params"].extend([0.0] * 4)),
                     id="head-classes"),
        pytest.param(lambda p: (p["head"].update(input_dim=4),
                                p["head"]["params"].extend([0.0] * 4)),
                     id="head-input-dimension"),
    ])
    def test_inconsistent_checkpoint_exits_2(self, tmp_path, capsys,
                                             four_leaf_file, mutate):
        rng = np.random.default_rng(2)
        tax = pm.parse_taxonomy(FOUR_LEAF)
        model = pm.init_embedding_model("linear", 4, 3, rng=rng)
        stand_in = pm.PrototypeSet(rng.standard_normal((4, 3)), tax.leaf_ids)
        head = pm.LinearHead(4, 3, rng.standard_normal(16))
        path = tmp_path / "ckpt.json"
        pm.save_checkpoint(path, pm.Checkpoint(model, stand_in, pm.DistanceSpec(), tax, head))
        payload = json.loads(path.read_text())
        mutate(payload)
        path.write_text(json.dumps(payload))
        feats = self._features(tmp_path, [[0.1, -0.2, 0.3, 0.4]])
        capsys.readouterr()
        assert main(["infer", str(path), feats,
                     "--out", str(tmp_path / "o.csv")]) == 2
        err = capsys.readouterr().err.strip().split("\n")
        assert len(err) == 1 and err[0].startswith("error: ")

    def test_long_finite_cell_exits_2(self, tmp_path, capsys):
        # a finite cell past csv's field limit is an error, not a number
        tax = pm.parse_taxonomy(FOUR_LEAF)
        rng = np.random.default_rng(0)
        model = pm.init_embedding_model("linear", 1, 2, rng=rng)
        pi = pm.PrototypeSet(rng.standard_normal((4, 2)), tax.leaf_ids)
        ckpt = str(tmp_path / "ckpt.json")
        pm.save_checkpoint(ckpt, pm.Checkpoint(model, pi, pm.DistanceSpec(), tax))
        feats = tmp_path / "wide.csv"
        feats.write_text("id,f0\nr0,1.0\nr1,0." + "0" * 200_000 + "\n")
        capsys.readouterr()
        assert main(["infer", ckpt, str(feats), "--out", str(tmp_path / "o.csv")]) == 2
        assert capsys.readouterr().err == ("error: row 3: field larger than field limit "
                                           "(131072)\n")

    def test_bom_checkpoint_reads_as_its_plain_copy(self, tmp_path, four_leaf_file):
        ckpt = self._checkpoint(tmp_path, four_leaf_file)
        bom = tmp_path / "bom.json"
        bom.write_text("\ufeff" + open(ckpt, encoding="utf-8").read(), encoding="utf-8")
        feats = self._features(tmp_path, np.random.default_rng(5).standard_normal((9, 4)).tolist())
        outs = []
        for path in (ckpt, str(bom)):
            for scheme in inference.SCHEMES:
                out = tmp_path / "preds.csv"
                assert main(["infer", path, feats, "--scheme", scheme, "--out", str(out)]) == 0
                outs.append(out.read_bytes())
        assert outs[3:] == outs[:3]

    def test_overflowing_checkpoint_exits_1(self, tmp_path, capsys):
        # finite weights whose embedding of a finite row is not finite
        tax = pm.parse_taxonomy(FOUR_LEAF)
        model = pm.init_embedding_model("linear", 2, 2, rng=np.random.default_rng(0))
        model.params[:4] = 1e300
        pi = pm.PrototypeSet(np.zeros((4, 2)), tax.leaf_ids)
        ckpt = str(tmp_path / "ckpt.json")
        pm.save_checkpoint(ckpt, pm.Checkpoint(model, pi, pm.DistanceSpec(), tax))
        feats = tmp_path / "far.csv"
        feats.write_text("f0,f1\n1e10,1e10\n")
        out = tmp_path / "o.csv"
        capsys.readouterr()
        assert main(["infer", ckpt, str(feats), "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: non-finite activation output\n"
        assert not out.exists()

    def test_dimension_mismatch_exits_2(self, tmp_path, four_leaf_file):
        ckpt = self._checkpoint(tmp_path, four_leaf_file)
        path = tmp_path / "narrow.csv"
        path.write_text("f0,f1\n0.0,0.0\n")
        assert main(["infer", ckpt, str(path),
                     "--out", str(tmp_path / "o.csv")]) == 2


class TestRunConfig:
    def test_roundtrip(self, tmp_path):
        cfg = RunConfig(train=pm.TrainConfig(m=4, architecture="linear", hidden=()),
                        taxonomy_path="t.tsv", dataset_path="d.csv",
                        output_dir="out", scheme="min-ec", aggregate="mean",
                        seeds=(1, 2, 3), test_fraction=0.4, label_column="y")
        again = RunConfig.from_dict(json.loads(json.dumps(cfg.to_dict())))
        assert again == cfg

    def test_readme_example_round_trips(self):
        readme = open(os.path.join(os.path.dirname(__file__), "..", "README.md"),
                      encoding="utf-8").read()
        block = readme.split("A run config:", 1)[1].split("```json", 1)[1].split("```", 1)[0]
        cfg = RunConfig.from_dict(json.loads(block))
        assert RunConfig.from_dict(json.loads(json.dumps(cfg.to_dict()))) == cfg

    def test_rejects_unknown_scheme(self):
        with pytest.raises(ValueError):
            RunConfig(train=pm.TrainConfig(), taxonomy_path="t", dataset_path="d",
                      output_dir="o", scheme="bogus")


def test_usage_error_exits_2(tmp_path, capsys, toy_tax_file):
    # argparse's own errors too: one error line, no usage block
    out = str(tmp_path / "c.csv")
    for argv in (["--threads", "abc", "cost", toy_tax_file, "--out", out],
                 ["embed", toy_tax_file, "--dim", "two", "--out", out],
                 ["frobnicate"], ["cost", toy_tax_file], []):
        assert main(argv) == 2, argv
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: "), (argv, err)
    assert not os.path.exists(out)
    assert main(["--help"]) == 0
    assert capsys.readouterr().out.startswith("usage: protometric")


def test_threads_flag_pins_blas_pools(tmp_path, monkeypatch, toy_tax_file):
    monkeypatch.setenv("OMP_NUM_THREADS", "4")  # registers restoration
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "4")
    out = str(tmp_path / "c.csv")
    assert main(["--threads", "1", "cost", toy_tax_file, "--out", out]) == 0
    assert os.environ["OMP_NUM_THREADS"] == "1"
    assert os.environ["OPENBLAS_NUM_THREADS"] == "1"


@pytest.mark.parametrize("flags", [["--threads", "0"], ["--threads=-1"]])
def test_threads_below_one_exit_2(tmp_path, monkeypatch, capsys, toy_tax_file, flags):
    blas = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "NUMEXPR_NUM_THREADS")
    for var in blas:
        monkeypatch.delenv(var, raising=False)
    out = tmp_path / "c.csv"
    assert main([*flags, "cost", toy_tax_file, "--out", str(out)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"error: --threads must be >= 1, got {flags[-1].split('=')[-1]}"]
    assert not out.exists() and not any(var in os.environ for var in blas)


def test_importing_the_cli_loads_no_numpy():
    # `--threads` sets the BLAS variables, which only act before numpy loads
    src = os.path.dirname(os.path.dirname(pm.__file__))
    code = "import sys, protometric.cli; print('numpy' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, check=True, timeout=60)
    assert done.stdout.strip() == "False"


def test_importing_formats_loads_no_numpy():
    # the readers and writers load with the CLI, before --threads pins the BLAS pools
    src = os.path.dirname(os.path.dirname(pm.__file__))
    code = "import sys, protometric.formats; print('numpy' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, check=True, timeout=60)
    assert done.stdout.strip() == "False"


def test_the_run_config_records_load_no_numpy():
    # `import protometric.cli` loads the records, and numpy must wait for --threads
    train = pm.TrainConfig(distance=pm.DistanceSpec("huber", 0.2), hidden=(4,),
                           optimizer=pm.OptimizerSpec("sgd", lr=0.1, momentum=0.9))
    full = RunConfig(taxonomy_path="t.tsv", dataset_path="d.csv", train=train,
                     scheme="min-ec", seeds=(1, 2)).to_dict()
    code = ("import json, sys\n"
            "import protometric as pm\n"
            "from protometric.cli import RunConfig\n"
            "pm.TrainConfig(), pm.DistanceSpec(), pm.OptimizerSpec()\n"
            f"full = json.loads({json.dumps(full)!r})\n"
            "assert RunConfig.from_dict(full).to_dict() == full\n"
            "print('numpy' in sys.modules)")
    src = os.path.dirname(os.path.dirname(pm.__file__))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, check=True, timeout=60)
    assert done.stdout.strip() == "False"


def test_only_formats_opens_files():
    # one reader and one writer: every other module goes through them
    package = os.path.dirname(pm.__file__)
    callers = []
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            tree = ast.parse(open(os.path.join(package, name), encoding="utf-8").read())
            callers += [name for node in ast.walk(tree) if isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Name) and node.func.id == "open"]
    assert set(callers) == {"formats.py"}, callers


def test_records_load_no_module_the_command_does_not_run(tmp_path, toy_tax_file):
    # the record codec resolves each record's type hints in its own module
    tax = pm.parse_taxonomy(TOY_EDGE_LIST)
    model = pm.init_embedding_model("linear", 3, 2, rng=np.random.default_rng(0))
    pi = pm.PrototypeSet(np.random.default_rng(1).standard_normal((3, 2)), tax.leaf_ids)
    ckpt = str(tmp_path / "ckpt.json")
    pm.save_checkpoint(ckpt, pm.Checkpoint(model, pi, pm.DistanceSpec(), tax))
    out = str(tmp_path / "emb")
    code = (
        "import json, sys\n"
        "from protometric import cli\n"
        "def loaded(*names):\n"
        "    return [n for n in names if 'protometric.' + n in sys.modules]\n"
        f"assert cli.main(['embed', {toy_tax_file!r}, '--dim', '2', '--steps', '5', "
        f"'--out', {out!r}]) == 0\n"
        "after_embed = loaded('model', 'evaluation', 'inference')\n"
        "from protometric.model import load_checkpoint\n"
        f"load_checkpoint({ckpt!r})\n"
        "print(json.dumps([after_embed, loaded('evaluation', 'inference')]))\n")
    src = os.path.dirname(os.path.dirname(pm.__file__))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, check=True, timeout=60)
    assert json.loads(done.stdout.splitlines()[-1]) == [[], []]


def test_a_data_file_whose_name_holds_a_newline_is_read_as_a_file(tmp_path, four_leaf_file):
    # a path on the command line or in a run config is never CSV text
    plain = synth_csv(tmp_path, four_leaf_file, per_class=6)
    data = tmp_path / "we\nird.csv"
    data.write_text(open(plain).read())
    out = tmp_path / "run"
    config = write_config(tmp_path, four_leaf_file, str(data), str(out), train={"epochs": 2})
    assert main(["train", config]) == 0
    ckpt = str(out / "checkpoint_seed0.json")
    features = [tmp_path / "features.csv", tmp_path / "fea\ntures.csv"]
    for path in features:
        path.write_text("".join(line.rsplit(",", 1)[0] + "\n"
                                for line in open(plain).read().splitlines()))
    outs = []
    for data_path, features_path in zip((plain, str(data)), features):
        run = tmp_path / f"out{len(outs)}"
        assert main(["eval", ckpt, data_path, four_leaf_file, "--out", str(run)]) == 0
        assert main(["infer", ckpt, str(features_path), "--out", str(run / "p.csv")]) == 0
        outs.append([(run / name).read_bytes() for name in ("eval.json", "p.csv")])
    assert outs[1] == outs[0]


def test_output_root_env(tmp_path, monkeypatch, toy_tax_file):
    monkeypatch.setenv("PROTOMETRIC_OUTPUT_ROOT", str(tmp_path / "root"))
    monkeypatch.chdir(tmp_path)
    data = synth_csv(tmp_path, toy_tax_file, per_class=6, dims=3)
    train = {"m": 3, "architecture": "linear", "hidden": [], "epochs": 2,
             "batch_size": 8, "lambda": 1.0}
    cfg = {"train": train, "taxonomy_path": toy_tax_file, "dataset_path": data,
           "seeds": [0], "test_fraction": 0.34}
    cfg_path = tmp_path / "myrun.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["train", str(cfg_path)]) == 0
    assert os.path.isdir(str(tmp_path / "root" / "myrun"))


def test_parser_spells_out_the_library_choices():
    # the parser takes the records' name lists from `formats`, which loads no numpy
    sub = next(action for action in cli._build_parser()._actions
               if isinstance(action, argparse._SubParsersAction))

    def option(command, dest):
        return next(a for a in sub.choices[command]._actions if a.dest == dest)

    assert option("train", "regularizer").choices is formats.REGULARIZERS
    assert option("train", "head").choices is formats.HEADS
    assert option("embed", "distance").choices is formats.DISTANCE_KINDS
    for command in ("train", "eval", "infer"):
        assert option(command, "scheme").choices is inference.SCHEMES
    fit = inspect.signature(pm.fit_prototypes).parameters
    for name in ("steps", "lr", "triplets"):
        assert option("embed", name).default == fit[name].default, name
