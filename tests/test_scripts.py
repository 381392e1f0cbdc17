"""Smoke tests of the scripts under scripts/."""

import contextlib
import fnmatch
import importlib
import importlib.util
import io
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _load(name, *path):
    spec = importlib.util.spec_from_file_location(name, os.path.join(ROOT, *path))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_synthetic_benchmark_prints_a_row_per_arm():
    path = os.pathsep.join(p for p in (os.path.join(ROOT, "src"),
                                       os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", "run_synthetic_benchmark.py"),
         "--seeds", "1", "--epochs", "1", "--per-class", "4", "--m", "4"],
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().split("\n")
    header = next(i for i, line in enumerate(lines) if line.startswith("arm "))
    rows = lines[header + 1:]
    assert len(rows) == 6
    for row in rows:
        er, ac, sfd = (float(v) for v in row.split()[1:4])
        assert 0.0 <= er <= 1.0 and ac >= 0.0 and sfd >= 0.0


def test_every_traced_layer_resolves():
    # the traced benchmark silently skips a site that no longer exists, so a
    # refactor that moves a function would drop its layer unnoticed
    spans = _load("perfbench_spans", "perfbench", "spans.py")
    for layer, (sites, _) in spans.LAYERS.items():
        module_name, attr_path = sites[0].split(":")
        owner = importlib.import_module(f"protometric.{module_name}")
        *outer, attr = attr_path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        assert callable(owner.__dict__.get(attr)), f"{layer}: {sites[0]} does not resolve"


def test_sweep_runs_are_byte_identical(tmp_path):
    # the determinism contract as a test: the same matrix run twice, each in
    # a fresh process under --threads 1, writes the same bytes
    script = os.path.join(ROOT, "scripts", "sweep.py")
    for name in ("a", "b"):
        proc = subprocess.run([sys.executable, script, "run", str(tmp_path / name), "--tiny"],
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
    sweep = _load("sweep", "scripts", "sweep.py")
    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert sweep.diff_trees(a, b) == 0
    n = len(sweep._files(a))
    assert n > 50 and f"{n} files, {n} byte-identical" in out.getvalue()
    # the quoted and CRLF copies read as the data they copy
    run_a = tmp_path / "a"
    assert b'"' in (run_a / "data" / "quoted.csv").read_bytes()
    assert b'\r\n"' in (run_a / "data" / "quoted_features.csv").read_bytes()
    for quoted, plain in (("infer/disto/quoted.csv", "infer/disto/max-prob.csv"),
                          ("eval/disto/quoted/eval.json", "eval/disto/train-max-prob/eval.json"),
                          ("eval/disto/quoted/confusion.csv",
                           "eval/disto/train-max-prob/confusion.csv")):
        assert (run_a / quoted).read_bytes() == (run_a / plain).read_bytes(), quoted

    # a drifted byte fails; a covered file passes within its bound only
    infer = tmp_path / "b" / "infer" / "cross-entropy" / "min-ec.csv"
    infer.write_text(infer.read_text().replace("min-ec", "min-ex", 1))
    disto = tmp_path / "b" / "embed" / "disto-euclidean-leaves-d2" / "distortion.json"
    report = json.loads(disto.read_text())
    report["scale_free_distortion"] *= 1 + 1e-10
    disto.write_text(json.dumps(report))
    # a prototype-head arm's CSV: numeric cells within the bound, text cells exact
    arms = sweep._prototype_head_arms()
    assert {"disto", "huber", "mean-aggregate", "rank", "unregularized", "lambda0",
            "fixed-proto-rank"} <= set(arms)
    assert not {"cross-entropy", "cross-entropy-any-node", "soft-labels"} & set(arms)
    tolerated = tmp_path / "b" / "infer" / "disto" / "max-prob.csv"
    header, first, *rest = tolerated.read_text().split("\n")
    cells = first.split(",")
    cells[4] = repr(float(cells[4]) * (1 + 1e-12))
    tolerated.write_text("\n".join([header, ",".join(cells), *rest]))
    # every arm's distortion figures: the reports carry them, the
    # checkpoints of the other heads do not
    for pattern in ("train/cross-entropy/eval_seed*.json", "eval/cross-entropy/*.json",
                    "train/*/aggregate_eval.json", "embed/rank-*/distortion.json"):
        assert sweep.TOLERANCES[pattern] == ("json", 1e-10)
    assert sweep.TOLERANCES["embed/rank-*/prototypes.csv"] == ("csv", 1e-10)
    # the tiny matrix runs the bound rank term, in a fixed-proto stage 1 and an
    # embed, and the joint step's sampled rank_loss
    assert {"train/fixed-proto-rank/checkpoint_seed0.json",
            "embed/rank-euclidean-leaves-d2/prototypes.csv",
            "train/rank/checkpoint_seed0.json"} <= sweep._files(a)
    assert not any(fnmatch.fnmatchcase(name, pattern) for pattern in sweep.TOLERANCES
                   for name in ("train/cross-entropy/checkpoint_seed0.json",
                                "infer/cross-entropy/min-ec.csv"))
    # the head arms' max-prob `ec` cell is a per-row dot, not read off a GEMM
    for arm in ("cross-entropy", "cross-entropy-any-node", "soft-labels", "wide"):
        assert sweep.TOLERANCES[f"infer/{arm}/*max-prob.csv"] == ("csv", 3e-14)
    ce_eval = tmp_path / "b" / "eval" / "cross-entropy" / "train-max-prob" / "eval.json"
    ce_report = json.loads(ce_eval.read_text())
    ce_report["distortion"]["distortion"] *= 1 + 1e-12
    ce_eval.write_text(json.dumps(ce_report))
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert sweep.diff_trees(a, b) == 1
    assert "differs: infer/cross-entropy/min-ec.csv" in out.getvalue()
    assert "within tolerance: eval/cross-entropy/train-max-prob/eval.json" in out.getvalue()
    assert "within tolerance: embed/disto-euclidean-leaves-d2/distortion.json" in out.getvalue()
    assert "within tolerance: infer/disto/max-prob.csv" in out.getvalue()
    report["scale_free_distortion"] *= 1 + 1e-6
    disto.write_text(json.dumps(report))
    ce_report["er"] += 1e-6
    ce_eval.write_text(json.dumps(ce_report))
    infer.write_text(infer.read_text().replace("min-ex", "min-ec", 1))
    cells[2] = "b2y" if cells[2] != "b2y" else "a1x"  # the predicted class
    tolerated.write_text("\n".join([header, ",".join(cells), *rest]))
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert sweep.diff_trees(a, b) == 1
    assert "beyond tolerance: embed/disto-euclidean-leaves-d2/distortion.json" in out.getvalue()
    assert "beyond tolerance: infer/disto/max-prob.csv (csv deviation inf" in out.getvalue()
    assert "beyond tolerance: eval/cross-entropy/train-max-prob/eval.json" in out.getvalue()
    assert "differs:" not in out.getvalue()


def test_sweep_diff_prints_each_drifting_file_once(tmp_path):
    sweep = _load("sweep", "scripts", "sweep.py")
    name = "embed/disto-euclidean-leaves-d2/distortion.json"
    for side, sfd in (("a", 0.1), ("b", 0.2)):
        path = tmp_path / side / name
        path.parent.mkdir(parents=True)
        path.write_text(json.dumps({"scale_free_distortion": sfd}))
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert sweep.diff_trees(str(tmp_path / "a"), str(tmp_path / "b")) == 1
    lines = out.getvalue().splitlines()
    assert lines[0] == "1 files, 0 byte-identical"
    assert [line for line in lines if name in line] == [
        f"beyond tolerance: {name} (json deviation 0.5, bound 1e-08)"]
