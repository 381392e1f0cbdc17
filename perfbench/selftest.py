"""Self-test of the benchmark at tiny sizes.

Usage (from the repository root): python3 perfbench/selftest.py

Runs every workload untraced and traced at self-test sizes and asserts that
each metric is emitted with the unit BENCHMARK.json gives it, then checks
that the output checks reject corrupted artifacts. Exits 0 when all pass.
"""

from __future__ import annotations

import io
import json
import os
import shutil
import subprocess
import sys
import contextlib

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_metrics() -> None:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    from workloads import make_workloads

    assert list(make_workloads()) == [w["name"] for w in spec["workloads"]]
    for workload in make_workloads():
        for trace, units in ((0, e2e), (1, layers)):
            wanted = set(units)
            result = run(workload, trace)
            assert result["correct"] and result["failed"] == 0, result
            got = result["metrics"]
            assert set(got) == wanted, (workload, trace, set(got) ^ wanted)
            for name, metric in got.items():
                assert metric["unit"] == units[name], (workload, name, metric)
                assert isinstance(metric["value"], (int, float)), (workload, name)
                # End-to-end metrics are bounded relative to the parent's
                # median, so none may read 0.
                assert trace or metric["value"] > 0, (workload, name, metric)
            print(f"ok  {workload} trace={trace}: {len(got)} metrics")


def check_rejections() -> None:
    """Each workload's check must fail on a damaged artifact."""
    import protometric.cli
    from workloads import make_workloads

    def corrupt_predictions(w):
        with open(w.out, encoding="utf-8") as fh:
            lines = fh.readlines()
        with open(w.out, "w", encoding="utf-8") as fh:
            fh.writelines(lines[:-3])

    def corrupt_history(w):
        path = os.path.join(w.out, f"history_seed{w.seed}.csv")
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(lines[:-1])

    def corrupt_distortion(w):
        path = os.path.join(w.out, "distortion.json")
        with open(path, encoding="utf-8") as fh:
            report = json.load(fh)
        report["scale_free_distortion"] = float("nan")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(report, fh)

    work_root = os.path.join(ROOT, ".perfbench_work", f"selftest-{os.getpid()}")
    try:
        workloads = make_workloads(tiny=True)
        for name, corrupt in (("infer-k1000", corrupt_predictions),
                              ("train-k8-mlp", corrupt_history),
                              ("embed-k100", corrupt_distortion)):
            w = workloads[name]
            os.makedirs(os.path.join(work_root, name))
            w.generate(os.path.join(work_root, name), 7)
            argv, label = w.op(0)
            with contextlib.redirect_stdout(io.StringIO()):
                assert protometric.cli.main(argv) == 0
            assert w.check(label)[0] == [], name
            corrupt(w)
            problems = w.check(label)[0]
            assert problems, f"{name}: corrupted artifact passed the check"
            print(f"ok  {name} rejects a corrupted artifact: {problems[0][:70]}")
    finally:
        shutil.rmtree(work_root, ignore_errors=True)


if __name__ == "__main__":
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
    check_metrics()
    check_rejections()
    print("selftest passed")
