"""Span recorder for the traced benchmark run.

The recorder wraps the public functions at each module boundary by
rebinding the module attribute through which callers look them up, keeps
spans (name, start, end, parent, op id) in memory, and derives per-layer
figures from them. Nothing under ``src/`` is modified; the originals are
restored when the ``installed()`` block exits.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time


def _sqnorm_bytes(args, kwargs, result):
    X, Y = args[0], args[1]
    return {"temp_bytes": X.shape[0] * Y.shape[0] * X.shape[1] * 8}


def _disto_pairs(args, kwargs, result):
    k = args[0].size
    return {"pairs": k * (k - 1) // 2}


def _forward_rows(args, kwargs, result):
    return {"rows": 1 if result.ndim == 1 else result.shape[0]}


def _csv_rows(args, kwargs, result):
    return {"rows": result.n}


# layer name -> (lookup sites "module:attribute", counter). A function is
# wrapped at every module that binds it at import time and at its home
# module, which is where the CLI's call-time imports read it.
LAYERS = {
    "taxonomy.parse_taxonomy": (["taxonomy:parse_taxonomy"], None),
    "taxonomy.cost_matrix": (["taxonomy:cost_matrix", "model:cost_matrix"], None),
    "geometry.pairwise_sqnorms": (["geometry:pairwise_sqnorms", "model:pairwise_sqnorms"],
                                  _sqnorm_bytes),
    "distortion.disto_loss": (["distortion:disto_loss", "model:disto_loss"], _disto_pairs),
    "distortion.distortion_report": (["distortion:distortion_report",
                                      "evaluation:distortion_report"], None),
    "model.train": (["model:train"], None),
    "model.data_loss": (["model:data_loss"], None),
    "model.forward": (["model:forward"], _forward_rows),
    "model.posterior": (["model:posterior", "inference:posterior"], None),
    "model.save_checkpoint": (["model:save_checkpoint"], None),
    "model.load_checkpoint": (["model:load_checkpoint"], None),
    "optim.Adam.step": (["optim:Adam.step"], None),
    "evaluation.evaluate": (["evaluation:evaluate"], None),
    "data.load_csv": (["data:load_csv"], _csv_rows),
}

class Tracer:
    """In-memory span recorder; one instance per traced run."""

    def __init__(self):
        self.spans: list[dict] = []
        self.op = None
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        """Record one span; yields its dict so callers can attach counts."""
        record = {"id": len(self.spans), "name": name, "op": self.op,
                  "parent": self._stack[-1] if self._stack else None,
                  "start": time.perf_counter(), "end": None}
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, name, fn, counter):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as record:
                result = fn(*args, **kwargs)
                if counter is not None:
                    record.update(counter(args, kwargs, result))
                return result
        return traced

    @contextlib.contextmanager
    def installed(self, package: str = "protometric"):
        """Rebind every site in LAYERS to a traced wrapper, restore on exit."""
        saved = []
        try:
            for name, (sites, counter) in LAYERS.items():
                for site in sites:
                    module_name, attr_path = site.split(":")
                    owner = importlib.import_module(f"{package}.{module_name}")
                    *outer, attr = attr_path.split(".")
                    for part in outer:
                        owner = getattr(owner, part)
                    original = owner.__dict__.get(attr)
                    if original is None:  # no longer bound there: nothing to wrap
                        continue
                    saved.append((owner, attr, original))
                    setattr(owner, attr, self._wrap(name, original, counter))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)


def layer_totals(spans: list[dict], ops) -> dict[str, dict]:
    """Per layer name: summed s, self_s, calls, rows and pairs over `ops`,
    and the largest temp_bytes of a single call.

    Self time is a span's duration minus the durations of its direct
    children; spans of one thread nest, so children never overlap.
    """
    ops = set(ops)
    child_time = [0.0] * len(spans)
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] += s["end"] - s["start"]
    totals: dict[str, dict] = {}
    for s in spans:
        if s["op"] not in ops:
            continue
        t = totals.setdefault(s["name"], {"s": 0.0, "self_s": 0.0, "calls": 0})
        duration = s["end"] - s["start"]
        t["s"] += duration
        t["self_s"] += duration - child_time[s["id"]]
        t["calls"] += 1
        for key in ("rows", "pairs"):
            if key in s:
                t[key] = t.get(key, 0) + s[key]
        if "temp_bytes" in s:  # a peak per call, not a sum
            t["temp_bytes"] = max(t.get("temp_bytes", 0), s["temp_bytes"])
    return totals
