"""Smoke test of the experiment script under scripts/."""

import importlib
import importlib.util
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


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
    spec = importlib.util.spec_from_file_location(
        "perfbench_spans", os.path.join(ROOT, "perfbench", "spans.py"))
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    for layer, (sites, _) in spans.LAYERS.items():
        module_name, attr_path = sites[0].split(":")
        owner = importlib.import_module(f"protometric.{module_name}")
        *outer, attr = attr_path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        assert callable(owner.__dict__.get(attr)), f"{layer}: {sites[0]} does not resolve"
