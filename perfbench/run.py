"""protometric benchmark: drives the real CLI on generated inputs.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed 0 --seconds 10 --trace 0

One process per workload runs one CLI operation after another (a closed
loop with one client) for S seconds after one untimed warm-up op, checking
every op's artifacts. ``--trace 0`` reports the end-to-end metrics of
BENCHMARK.json; ``--trace 1`` wraps each module boundary and reports the
per-layer metrics instead. The last line of stdout is the result as JSON.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 9
PROBE_QUERIES = 256


def tail(samples):
    """(value, percentile, n): the highest percentile with at least ten
    samples beyond it, never below the median."""
    s = sorted(samples)
    n = len(s)
    if n >= 21:
        return s[n - 11], 100.0 * (n - 10) / n, n
    return statistics.median(s), 50.0, n


def git_commit() -> str:
    """The checkout's commit read from .git, or "unknown" outside git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.isfile(os.path.join(git, ref)):
            with open(os.path.join(git, ref), encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def blas_manifest(np) -> dict:
    """BLAS build and the thread count OpenBLAS actually runs with."""
    import ctypes

    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    info = {"name": blas.get("name"), "version": blas.get("version"),
            "threads_effective": None}
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted(set(re.findall(r"(/\S*openblas\S*\.so\S*)", fh.read())))
    if libs:
        lib = ctypes.CDLL(libs[0])
        names = [f"{prefix}_get_num_threads{suffix}"
                 for prefix in ("scipy_openblas", "openblas") for suffix in ("64_", "")]
        getter = next((getattr(lib, n) for n in names if hasattr(lib, n)), None)
        if getter is not None:
            getter.restype = ctypes.c_int
            info["threads_effective"] = getter()
    return info


def manifest(np, workload: str, seed: int, trace: bool) -> dict:
    return {
        "workload": workload, "seed": seed, "trace": trace,
        "git_commit": git_commit(),
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": blas_manifest(np),
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "load": "closed loop, 1 client, 1 process, 1 untimed warm-up op",
    }


def measure_setup(w) -> list[float]:
    """Seconds of import + the workload's loaders, each in a fresh interpreter."""
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "setup_probe.py"), SRC,
             json.dumps(w.loaders)],
            check=True, capture_output=True, text=True, timeout=120)
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return times


class Runner:
    """Runs and checks one workload's ops; counts attempts and failures."""

    def __init__(self, cli, w):
        self.cli = cli
        self.w = w
        self.attempted = 0
        self.failures: list[str] = []
        self.references: dict[str, str] = {}
        self.values: dict[str, float] = {}

    def op(self, i: int, tracer=None, warmup: bool = False):
        """(wall seconds, label, ok) of op i, or of the warm-up op; the
        artifacts are checked after the clock stops."""
        argv, label = self.w.warmup() if warmup else self.w.op(i)
        self.w.clear_output()
        sink = io.StringIO()
        error = None
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                if tracer is None:
                    code = self.cli.main(argv)
                else:
                    tracer.op = i
                    try:
                        with tracer.installed(), tracer.span("cli.main"):
                            code = self.cli.main(argv)
                    finally:
                        tracer.op = None
        except Exception as exc:  # a crashing op counts as failed; the run goes on
            error = f"{type(exc).__name__}: {exc}"
        else:
            if code != 0:
                error = f"exit code {code}: {sink.getvalue().strip()[-300:]}"
        wall = time.perf_counter() - start
        self.attempted += 1
        problems = [error] if error else []
        if not error:
            found, values = self.w.check(label)
            problems += found
            if not warmup:
                self.values.update(values)
            digest = self.w.digest()
            if digest != self.references.setdefault(label, digest):
                problems.append("artifacts differ from an earlier op on the same inputs")
        for p in problems:
            self.failures.append(f"op {i} ({label}): {p}")
        return wall, label, not problems


def end_to_end(w, runner, timed, setup_s) -> tuple[dict, dict]:
    """(metrics, notes) of an untraced run. The notes hold the sample count
    and percentile behind each timing, and the workload's own figures, which
    are printed but are not metrics."""
    from workloads import VALUE_UNITS

    ok = [(wall, label) for wall, label, good in timed if good]
    walls = [wall for wall, _ in ok] or [wall for wall, _, _ in timed]
    value, pct, n = tail(walls)
    metrics = {"setup_s": (setup_s, "s"),
               "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                               "MiB"),
               "op_s.p50": (statistics.median(walls), "s"),
               "op_s.tail": (value, "s"),
               "sfd": (runner.values.get("sfd", 0.0), VALUE_UNITS["sfd"])}
    notes = {"op_s.p50": {"percentile": 50.0, "n": len(walls)},
             "op_s.tail": {"percentile": pct, "n": n},
             "op_walls": [[label, wall] for wall, label in ok], "figures": {}}
    for name, (samples, unit) in w.figures(ok).items():
        if samples:
            notes["figures"][f"{name}.p50"] = [statistics.median(samples), unit, len(samples)]
    for name, value in runner.values.items():
        if name != "sfd":
            notes["figures"][name] = [value, VALUE_UNITS[name], 1]
    return metrics, notes


def probe_index(pm, w, tracer) -> bool:
    """Time PrototypeIndex.query and query_exhaustive on infer embeddings;
    True when both find the same prototypes.

    The CLI's max-prob path does not use the index; this probe keeps the
    KD-tree measured so that replacing it shows up.
    """
    ckpt = pm.model.load_checkpoint(w.checkpoint)
    rows = pm.model.leaf_prototype_rows(ckpt.taxonomy, ckpt.prototypes.class_map)
    index = pm.inference.PrototypeIndex(ckpt.prototypes.coords[rows])
    E = pm.model.forward(ckpt.model, w.X[:PROBE_QUERIES])
    found = {}
    tracer.op = "probe"
    for name in ("query", "query_exhaustive"):
        with tracer.span(f"inference.PrototypeIndex.{name}") as record:
            found[name] = [getattr(index, name)(e)[0] for e in E]
            record["queries"] = len(E)
    tracer.op = None
    return found["query"] == found["query_exhaustive"]


def per_layer(tracer, traced_ops, overheads) -> dict:
    """The per_layer metrics of BENCHMARK.json. Times, calls and work counts
    are per traced op; temp_bytes is the largest single call."""
    from spans import layer_totals

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        wanted = [(m["name"], m["unit"]) for m in json.load(fh)["per_layer"]]
    n = len(traced_ops)
    totals = layer_totals(tracer.spans, traced_ops)
    probe = {s["name"]: (s["end"] - s["start"]) / s["queries"]
             for s in tracer.spans if s["op"] == "probe"}
    metrics = {}
    for name, unit in wanted:
        if name.endswith(".s_per_query"):
            value = probe.get(name[:-len(".s_per_query")], 0.0)
        elif name == "trace.overhead_s":
            value = statistics.median(overheads)
        else:
            layer, field = name.rsplit(".", 1)
            value = totals.get(layer, {}).get(field, 0)
            if field != "temp_bytes":
                value /= n
        metrics[name] = (value, unit)
    return metrics


def run_workload(args) -> int:
    import numpy as np

    import protometric
    import protometric.cli
    from setup_probe import load_inputs
    from spans import Tracer
    from workloads import make_workloads

    w = make_workloads(tiny=args.tiny)[args.workload]
    info = manifest(np, args.workload, args.seed, bool(args.trace))
    work = os.path.join(ROOT, ".perfbench_work", f"{args.workload}-{os.getpid()}")
    results = os.path.join(ROOT, ".perfbench_out")
    os.makedirs(work)
    os.makedirs(results, exist_ok=True)
    try:
        w.generate(work, args.seed)
        runner = Runner(protometric.cli, w)
        notes = {}
        if not args.trace:
            # Set-up first, so that the warm-up op directly precedes timing.
            setup = measure_setup(w)
            notes["setup_s"] = {"percentile": 50.0, "n": len(setup)}
            runner.op(0, warmup=True)
            timed = []
            start = time.perf_counter()
            while not timed or time.perf_counter() - start < args.seconds:
                timed.append(runner.op(len(timed)))
            metrics, more = end_to_end(w, runner, timed, statistics.median(setup))
            notes.update(more)
        else:
            runner.op(0, warmup=True)
            tracer = Tracer()
            tracer.op = "setup"
            with tracer.installed():
                load_inputs(protometric, w.loaders)
            tracer.op = None
            traced_ops, overheads = [], []
            start = time.perf_counter()
            i = 0
            # Pairs of untraced and traced runs of the same op, alternating
            # which goes first; the median difference is the overhead.
            while not overheads or time.perf_counter() - start < args.seconds:
                order = (False, True) if i % 2 == 0 else (True, False)
                walls = {traced: runner.op(i, tracer if traced else None)[0]
                         for traced in order}
                traced_ops.append(i)
                overheads.append(walls[True] - walls[False])
                i += 1
            if w.kind == "infer":
                runner.attempted += 1
                if not probe_index(protometric, w, tracer):
                    runner.failures.append("probe: KD-tree and exhaustive scan disagree")
            metrics = per_layer(tracer, traced_ops, overheads)
            notes["traced_ops"] = len(traced_ops)
            with open(os.path.join(results, f"{args.workload}-seed{args.seed}-spans.json"),
                      "w", encoding="utf-8") as fh:
                json.dump(tracer.spans, fh)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = len(runner.failures)
    info.update(samples=notes, failures=runner.failures,
                error_rate=failed / runner.attempted)
    result = {"correct": failed == 0, "attempted": runner.attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    with open(os.path.join(results, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump({"manifest": info, **result}, fh, indent=2)
    for name, (value, unit) in metrics.items():
        note = notes.get(name)
        extra = f"  (p{note['percentile']:g}, n={note['n']})" if note else ""
        print(f"{args.workload}  {name} = {value:.6g} {unit}{extra}")
    for name, (value, unit, n) in notes.get("figures", {}).items():
        print(f"{args.workload}  ({name} = {value:.6g} {unit}, n={n}; not a metric)")
    print(f"{args.workload}  error_rate = {info['error_rate']:g} "
          f"({failed} of {runner.attempted} ops)")
    for failure in runner.failures:
        print(f"{args.workload}  FAILED {failure}")
    print("manifest " + json.dumps(info, sort_keys=True))
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload in its own process; sums the counts and prefixes each
    metric with its workload."""
    from workloads import make_workloads

    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in make_workloads(tiny=args.tiny):
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=1800)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            return proc.returncode or 1
        result = json.loads(lines[-1])
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for key, metric in result["metrics"].items():
            total["metrics"][f"{name}/{key}"] = metric
    print(json.dumps(total))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="workload name or 'all'")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="self-test sizes instead of benchmark sizes")
    args = parser.parse_args(argv)

    # OpenBLAS reads these when it loads, so they must be set before the
    # first numpy import; `--threads 1` inside cli.main comes too late.
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if not os.path.isfile(os.path.join(SRC, "protometric", "__init__.py")):
        print(f"error: no protometric sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.workload == "all":
        return run_all(args)
    from workloads import make_workloads

    if args.workload not in make_workloads():
        parser.error(f"unknown workload {args.workload!r}")
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
