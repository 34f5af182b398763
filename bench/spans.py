"""Spans recorded from outside the program, and the per-layer metrics derived from them.

A span has a name, start, end, parent and free-form attributes. Spans stay in
memory; the runner writes them once, at the end of a run. `Tracer.patched()`
wraps the public module-level functions of each `clustertm` layer for the
duration of a `with` block and restores the originals afterwards, so nothing
under `src/` changes and untraced rounds call the program directly.
"""

from __future__ import annotations

import os
import statistics
import time
import tracemalloc
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []

    @contextmanager
    def span(self, name: str, **attrs):
        s = Span(len(self.spans), name, self._stack[-1].id if self._stack else None,
                 time.perf_counter(), attrs=attrs)
        self.spans.append(s)
        self._stack.append(s)
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._stack.pop()

    def children(self, span: Span) -> list[Span]:
        return [s for s in self.spans[span.id + 1:] if s.parent == span.id]

    def self_time(self, span: Span) -> float:
        """Duration minus the part of the interval covered by direct children."""
        covered, reach = 0.0, span.start
        for c in sorted(self.children(span), key=lambda c: c.start):
            lo, hi = max(c.start, reach), min(c.end, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        return span.duration - covered

    def _wrap(self, fn, name, before=None, after=None):
        def wrapper(*args, **kwargs):
            with self.span(name) as s:
                if before is not None:
                    kwargs = before(s, args, kwargs)
                result = fn(*args, **kwargs)
                if after is not None:
                    after(s, args, kwargs, result)
            return result
        return wrapper

    @contextmanager
    def patched(self):
        """Wrap every layer boundary listed in `_boundaries` while the block runs."""
        saved = []
        try:
            for module, attr, name, before, after in _boundaries():
                fn = getattr(module, attr)
                saved.append((module, attr, fn))
                setattr(module, attr, self._wrap(fn, name, before, after))
            yield
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)
            if tracemalloc.is_tracing():  # a k-means call that raised left it on
                tracemalloc.stop()


# ---------------------------------------------------------------------------
# hooks that read counts at the boundaries


def _kw(args, kwargs, pos, key, default=None):
    if key in kwargs:
        return kwargs[key]
    return args[pos] if len(args) > pos else default


def _pretrain_after(s, args, kwargs, result):
    from clustertm import sgns
    config = _kw(args, kwargs, 2, "config") or sgns.SgnsConfig()
    s.attrs["tokens"] = _kw(args, kwargs, 0, "corpus").total_tokens * config.epochs


def _kmeans_before(s, args, kwargs):
    tracemalloc.start()
    tracemalloc.reset_peak()
    return kwargs


def _kmeans_after(s, args, kwargs, result):
    s.attrs["peak_mb"] = tracemalloc.get_traced_memory()[1] / 2**20
    tracemalloc.stop()
    s.attrs["lloyd_iters"] = len(result.inertia_history)


def _elbo_after(s, args, kwargs, result):
    s.attrs["docs"] = len(_kw(args, kwargs, 1, "docs"))


def _fit_after(s, args, kwargs, result):
    s.attrs["epochs"] = _kw(args, kwargs, 2, "config").epochs
    s.attrs["clipped"] = sum("clipped" in w for w in result[1].warnings)


def _save_after(s, args, kwargs, result):
    s.attrs["bytes"] = os.path.getsize(_kw(args, kwargs, 1, "path"))


def _lda_before(s, args, kwargs):
    user_cb = kwargs.get("on_sweep")
    stamps = s.attrs["sweep_ends"] = []

    def on_sweep(z):
        stamps.append(time.perf_counter())
        if user_cb is not None:
            user_cb(z)
    return {**kwargs, "on_sweep": on_sweep}


def _lda_after(s, args, kwargs, result):
    sweeps = _kw(args, kwargs, 4, "sweeps", 1000)
    s.attrs["tokens"] = _kw(args, kwargs, 0, "corpus").total_tokens * sweeps


def _boundaries():
    from clustertm import (cluster, corpus, lda_baseline, manifest, metrics, model, sgns,
                           training)
    return [
        (corpus, "preprocess", "corpus.preprocess", None, None),
        (corpus, "load_corpus", "corpus.load", None, None),
        (sgns, "pretrain", "sgns.pretrain", None, _pretrain_after),
        (cluster, "vectorize_documents", "cluster.vectorize", None, None),
        (cluster, "kmeans", "cluster.kmeans", _kmeans_before, _kmeans_after),
        (model, "elbo_and_grad", "model.elbo_and_grad", None, _elbo_after),
        (model, "save_checkpoint", "model.checkpoint_save", None, _save_after),
        (model, "load_checkpoint", "model.checkpoint_load", None, None),
        (training, "fit", "training.fit", None, _fit_after),
        (lda_baseline, "fit_lda", "lda.fit", _lda_before, _lda_after),
        (metrics, "evaluate_topics", "metrics.evaluate", None, None),
        (metrics, "cooccurrence_stats", "metrics.cooccurrence", None, None),
        (manifest, "write_manifest", "manifest.write", None, None),
    ]


# ---------------------------------------------------------------------------
# per-layer metrics of one traced round

CLI_COMMANDS = ("preprocess", "pretrain", "cluster", "train", "eval", "topics", "plot")

PER_LAYER_UNITS = {
    "sgns.pretrain_s": "s", "sgns.tokens_per_s": "tokens/s",
    "cluster.vectorize_s": "s", "cluster.kmeans_s": "s", "cluster.kmeans_peak_mb": "MB",
    "cluster.lloyd_iters": "count",
    "model.elbo_and_grad_s": "s", "model.elbo_and_grad_calls": "count",
    "model.elbo_docs_per_s": "docs/s",
    "training.fit_s": "s", "training.epoch_s": "s", "training.self_s": "s",
    "training.clipped_steps": "count",
    "lda.fit_s": "s", "lda.sweep_s": "s", "lda.tokens_per_s": "tokens/s",
    "metrics.evaluate_s": "s", "metrics.cooccurrence_s": "s",
    "corpus.preprocess_s": "s", "corpus.load_s": "s", "manifest.write_s": "s",
    "model.checkpoint_save_s": "s", "model.checkpoint_load_s": "s",
    "model.checkpoint_bytes": "bytes",
    **{f"cli.{c}_s": "s" for c in CLI_COMMANDS},
    "trace.overhead_s": "s",
}


def _rate(work: float, seconds: float) -> float:
    return work / seconds if seconds > 0 else 0.0


def _epoch_times(tracer: Tracer, fit: Span) -> list[float]:
    """Epoch k runs from the first ELBO call of epoch k to that of epoch k+1.

    Every epoch makes the same number of calls. The last epoch ends where the
    fit ends, less any checkpoint save that follows it.
    """
    kids = tracer.children(fit)
    calls = [c for c in kids if c.name == "model.elbo_and_grad"]
    epochs = fit.attrs.get("epochs", 0)
    if not calls or not epochs or len(calls) % epochs:
        return []
    per = len(calls) // epochs
    starts = [calls[k * per].start for k in range(epochs)]
    end = fit.end - sum(c.duration for c in kids if c.name == "model.checkpoint_save")
    return [b - a for a, b in zip(starts, starts[1:] + [end])]


def layer_metrics(tracer: Tracer, spans: list[Span]) -> dict[str, float]:
    """Per-layer sums, counts and rates over the given spans (one traced round).

    A layer the round does not exercise reads 0.
    """
    by: dict[str, list[Span]] = {}
    for s in spans:
        by.setdefault(s.name, []).append(s)

    def total(name):
        return sum(s.duration for s in by.get(name, []))

    def attr(name, key):
        return sum(s.attrs.get(key, 0) for s in by.get(name, []))

    fits = by.get("training.fit", [])
    epochs = [e for f in fits for e in _epoch_times(tracer, f)]
    sweeps = [b - a for s in by.get("lda.fit", [])
              for a, b in zip(s.attrs["sweep_ends"], s.attrs["sweep_ends"][1:])]
    kmeans = by.get("cluster.kmeans", [])
    out = {
        "sgns.pretrain_s": total("sgns.pretrain"),
        "sgns.tokens_per_s": _rate(attr("sgns.pretrain", "tokens"), total("sgns.pretrain")),
        "cluster.vectorize_s": total("cluster.vectorize"),
        "cluster.kmeans_s": total("cluster.kmeans"),
        "cluster.kmeans_peak_mb": max((s.attrs.get("peak_mb", 0.0) for s in kmeans),
                                      default=0.0),
        "cluster.lloyd_iters": attr("cluster.kmeans", "lloyd_iters"),
        "model.elbo_and_grad_s": total("model.elbo_and_grad"),
        "model.elbo_and_grad_calls": len(by.get("model.elbo_and_grad", [])),
        "model.elbo_docs_per_s": _rate(attr("model.elbo_and_grad", "docs"),
                                       total("model.elbo_and_grad")),
        "training.fit_s": total("training.fit"),
        "training.epoch_s": statistics.fmean(epochs) if epochs else 0.0,
        "training.self_s": sum(tracer.self_time(f) for f in fits),
        "training.clipped_steps": attr("training.fit", "clipped"),
        "lda.fit_s": total("lda.fit"),
        "lda.sweep_s": statistics.median(sweeps) if sweeps else 0.0,
        "lda.tokens_per_s": _rate(attr("lda.fit", "tokens"), total("lda.fit")),
        "metrics.evaluate_s": total("metrics.evaluate"),
        "metrics.cooccurrence_s": total("metrics.cooccurrence"),
        "corpus.preprocess_s": total("corpus.preprocess"),
        "corpus.load_s": total("corpus.load"),
        "manifest.write_s": total("manifest.write"),
        "model.checkpoint_save_s": total("model.checkpoint_save"),
        "model.checkpoint_load_s": total("model.checkpoint_load"),
        "model.checkpoint_bytes": attr("model.checkpoint_save", "bytes"),
    }
    for c in CLI_COMMANDS:
        out[f"cli.{c}_s"] = total(f"cli.{c}")
    return out
