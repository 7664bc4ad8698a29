"""Span tracing from outside the package.

`Tracer.installed()` rebinds public names of the ``mbrobust`` modules to
wrappers that record a span per call: name, parent span, start, end, and the
counts computed from the call's arguments and result.  The original names are
restored on exit, so untraced runs execute the package unmodified.  Spans stay
in memory; `per_layer` turns one traced unit's spans into the per-layer
metrics and `write_spans` writes them out when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import statistics
import time

from mbrobust import data, evaluation, losses, training

# ---------------------------------------------------------------------------
# Counts computed at span exit from arguments and results
# ---------------------------------------------------------------------------


def _spmm_counts(args, out) -> dict:
    """Computed (not measured) SpMM work of one propagate/adjoint call:
    L products of the (U+I)^2 CSR operator with a dense (U+I) x d block."""
    g, first, _, layers = args
    adj = g.adjacency
    nnz, d, n = adj.nnz, first.shape[1], g.num_nodes
    per_product = (
        nnz * (adj.data.itemsize + adj.indices.itemsize)
        + (n + 1) * adj.indptr.itemsize
        + (nnz + n) * d * 8  # gathered input rows + written output rows, float64
    )
    return {"flop": 2 * nnz * d * layers, "bytes": per_product * layers}


def _sample_counts(args, out) -> dict:
    sampler, batch_users = args[0], args[1]
    triplets = sum(len(t) for t in out.per_behavior.values()) + len(out.main)
    # one positive/negative draw per (user, sampled behavior) and one for main
    draws = len(batch_users) * (len(sampler.behaviors) + 1)
    return {"triplets": triplets, "draws": draws, "skipped": int(len(out.main) == 0)}


def _build_counts(args, out) -> dict:
    ds, behavior = args
    edges = ds.edges[behavior]
    # the edge set itself is returned so the tracer keeps it alive: an id can
    # then not be reused by another edge set within the same traced unit
    return {"graph_key": (id(edges), behavior), "_keep": edges}


def _edges_of(args, out) -> dict:
    ds = out.train if hasattr(out, "train") else out
    return {"edges": sum(len(ds.edges[b]) for b in ds.manifest.behaviors)}


def _perturb_counts(args, out) -> dict:
    before = args[0]
    changed = sum(
        abs(len(out.edges[b]) - len(before.edges[b])) for b in before.manifest.behaviors
    )
    return {"edges": changed}


def _ckpt_save_counts(args, out) -> dict:
    return {"bytes": os.path.getsize(args[2])}


def _ckpt_load_counts(args, out) -> dict:
    return {"bytes": os.path.getsize(args[0])}


def _train_counts(args, out) -> dict:
    rows = out[1]
    return {"epochs": len(rows), "epoch_seconds": sum(r.seconds for r in rows)}


def _sweep_counts(args, out) -> dict:
    return {"cells": len(out) - 1}  # every row but the clean baseline


# (module, attribute, span name, count function); the span name is the layer
# the called code lives in, whichever module the call goes through.
TARGETS = [
    (losses, "propagate", "graph.propagate", _spmm_counts),
    (losses, "propagate_adjoint", "graph.adjoint", _spmm_counts),
    (losses, "rrm_loss", "losses.rrm", None),
    (losses, "orm_loss", "losses.orm", None),
    (losses, "main_loss", "losses.main", None),
    (training, "build_graph", "graph.build", _build_counts),
    (training, "total_loss", "losses.total_loss", None),
    (training, "adam_step", "training.adam", None),
    (training.TripletSampler, "sample", "training.sample", _sample_counts),
    (training.TripletSampler, "__init__", "training.sampler_init", None),
    (training, "save_checkpoint", "training.ckpt_save", _ckpt_save_counts),
    (training, "load_checkpoint", "training.ckpt_load", _ckpt_load_counts),
    (training, "train", "training.train", _train_counts),
    (evaluation, "evaluate", "evaluation.evaluate", None),
    (evaluation, "fused_embeddings", "evaluation.fused", None),
    (evaluation, "held_out_rank", "evaluation.rank", None),
    (evaluation, "build_graph", "graph.build", _build_counts),
    (evaluation, "propagate", "graph.propagate", _spmm_counts),
    (evaluation, "perturb", "data.perturb", _perturb_counts),
    (evaluation, "split_leave_one_out", "data.split", None),
    (evaluation, "robustness_sweep", "evaluation.sweep", _sweep_counts),
    (data, "load_dataset", "data.load_dataset", _edges_of),
    (data, "load_split", "data.load_split", _edges_of),
    (data, "split_leave_one_out", "data.split", None),
    (data, "diagnose", "data.diagnose", None),
    (data, "perturb", "data.perturb", _perturb_counts),
    (data, "write_split", "data.write", None),
    (data, "save_dataset", "data.write", None),
]


class Span:
    __slots__ = ("name", "parent", "start", "end", "counts")

    def __init__(self, name: str, parent: int):
        self.name = name
        self.parent = parent
        self.start = time.perf_counter()
        self.end = 0.0
        self.counts: dict | None = None

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def _wrap(self, name, fn, count):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(name, self._stack[-1] if self._stack else -1)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if count is not None:
                span.counts = count(args, out)
            return out

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Trace every call to `TARGETS` made inside the block."""
        self.spans = []
        originals = [(owner, attr, getattr(owner, attr)) for owner, attr, _, _ in TARGETS]
        try:
            for owner, attr, name, count in TARGETS:
                setattr(owner, attr, self._wrap(name, getattr(owner, attr), count))
            yield self
        finally:
            for owner, attr, fn in originals:
                setattr(owner, attr, fn)


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    out = [s.seconds for s in spans]
    for s in spans:
        if s.parent >= 0:
            out[s.parent] -= s.seconds
    return out


def per_layer(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics of one traced unit (setup plus one operation)."""
    own = self_times(spans)
    secs: dict[str, float] = {}
    self_secs: dict[str, float] = {}
    calls: dict[str, int] = {}
    totals: dict[str, int] = {}
    graph_keys = set()
    for s, own_s in zip(spans, own):
        secs[s.name] = secs.get(s.name, 0.0) + s.seconds
        self_secs[s.name] = self_secs.get(s.name, 0.0) + own_s
        calls[s.name] = calls.get(s.name, 0) + 1
        for k, v in (s.counts or {}).items():
            if k == "graph_key":
                graph_keys.add(v)
            elif not k.startswith("_"):
                key = f"{s.name}.{k}"
                totals[key] = totals.get(key, 0) + v

    def t(name):
        return secs.get(name, 0.0)

    def n(name):
        return calls.get(name, 0)

    def c(key):
        return totals.get(key, 0)

    draws = c("training.sample.draws")
    epochs = c("training.train.epochs")
    return {
        "graph.propagate_s": t("graph.propagate"),
        "graph.propagate_calls": n("graph.propagate"),
        "graph.adjoint_s": t("graph.adjoint"),
        "graph.adjoint_calls": n("graph.adjoint"),
        "graph.spmm_gflop": (c("graph.propagate.flop") + c("graph.adjoint.flop")) / 1e9,
        "graph.spmm_gbytes": (c("graph.propagate.bytes") + c("graph.adjoint.bytes")) / 1e9,
        "graph.build_s": t("graph.build"),
        "graph.build_calls": n("graph.build"),
        "graph.distinct_graphs": len(graph_keys),
        "losses.total_loss_s": t("losses.total_loss"),
        "losses.total_loss_self_s": self_secs.get("losses.total_loss", 0.0),
        "losses.rrm_s": t("losses.rrm"),
        "losses.orm_s": t("losses.orm"),
        "losses.main_s": t("losses.main"),
        "losses.calls": n("losses.total_loss"),
        "training.sample_s": t("training.sample"),
        "training.sampler_init_s": t("training.sampler_init"),
        "training.triplets": c("training.sample.triplets"),
        "training.draw_yield": c("training.sample.triplets") / draws if draws else 0.0,
        "training.skipped_batches": c("training.sample.skipped"),
        "training.adam_s": t("training.adam"),
        "training.steps": n("training.adam"),
        "training.train_self_s": self_secs.get("training.train", 0.0),
        "training.epoch_s": c("training.train.epoch_seconds") / epochs if epochs else 0.0,
        "training.epochs": epochs,
        "training.ckpt_save_s": t("training.ckpt_save"),
        "training.ckpt_load_s": t("training.ckpt_load"),
        "training.ckpt_bytes": c("training.ckpt_save.bytes") + c("training.ckpt_load.bytes"),
        "evaluation.evaluate_s": t("evaluation.evaluate"),
        "evaluation.evaluate_calls": n("evaluation.evaluate"),
        "evaluation.fused_s": t("evaluation.fused"),
        "evaluation.rank_s": t("evaluation.rank"),
        "evaluation.ranked_users": n("evaluation.rank"),
        "evaluation.sweep_cells": c("evaluation.sweep.cells"),
        "data.load_dataset_s": t("data.load_dataset"),
        "data.load_split_s": t("data.load_split"),
        "data.split_s": t("data.split"),
        "data.diagnose_s": t("data.diagnose"),
        "data.perturb_s": t("data.perturb"),
        "data.write_s": t("data.write"),
        "data.edges_loaded": c("data.load_dataset.edges") + c("data.load_split.edges"),
        "data.perturb_edges": c("data.perturb.edges"),
    }


def median_metrics(units: list[dict[str, float]]) -> dict[str, float]:
    """Median of each metric over traced units; counts stay whole numbers."""
    return {
        k: (statistics.median_low if isinstance(v, int) else statistics.median)(u[k] for u in units)
        for k, v in units[0].items()
    }


def write_spans(spans: list[Span], path: str) -> None:
    """One JSON object per span, in start order, with its self time."""
    own = self_times(spans)
    t0 = spans[0].start if spans else 0.0
    with open(path, "w", encoding="utf-8") as fh:
        for k, (s, own_s) in enumerate(zip(spans, own)):
            counts = {a: b for a, b in (s.counts or {}).items() if not a.startswith("_")}
            if "graph_key" in counts:
                counts["graph_key"] = f"{counts['graph_key'][1]}@{counts['graph_key'][0]:x}"
            row = {
                "id": k,
                "parent": s.parent,
                "name": s.name,
                "start_s": s.start - t0,
                "seconds": s.seconds,
                "self_s": own_s,
                **counts,
            }
            fh.write(json.dumps(row) + "\n")
