"""Output checks computed apart from the program.

Each check takes the program's outputs and the benchmark's own ground truth
(token lists as generated, planted topics) and returns a list of failure
messages; an empty list means the outputs are correct.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
from pathlib import Path

import numpy as np
from scipy.optimize import linear_sum_assignment

METRIC_TOL = 1e-12
ROW_SUM_TOL = 1e-9
KMEANS_TOL = 1e-9


class TokenStats:
    """Background frequencies and per-word document sets from raw token lists."""

    def __init__(self, token_docs: list[list[str]]):
        self.n_docs = len(token_docs)
        counts: dict[str, int] = {}
        self.doc_sets: dict[str, set[int]] = {}
        for d, toks in enumerate(token_docs):
            for w in toks:
                counts[w] = counts.get(w, 0) + 1
                self.doc_sets.setdefault(w, set()).add(d)
        total = sum(counts.values())
        self.g0 = {w: c / total for w, c in counts.items()}

    def npmi(self, u: str, v: str) -> float:
        du, dv = self.doc_sets[u], self.doc_sets[v]
        p_u, p_v = len(du) / self.n_docs, len(dv) / self.n_docs
        p_uv = len(du & dv) / self.n_docs
        if p_uv == 0.0:
            return -1.0
        if p_uv == p_u == p_v:
            return 1.0
        return math.log(p_uv / (p_u * p_v)) / (-math.log(p_uv))


def check_report(stats: TokenStats, report) -> list[str]:
    """TC as mean NPMI over ordered pairs, WSWF as sum p ln g0, recounted by brute force."""
    out = []
    n_top = report.n_top
    for t, pairs in enumerate(report.top_words):
        words = [w for w, _ in pairs[:n_top]]
        tc = sum(stats.npmi(u, v) for u, v in itertools.permutations(words, 2))
        tc /= n_top * (n_top - 1)
        ws = sum(p * math.log(stats.g0[w]) for w, p in pairs[:n_top])
        got_tc, got_ws = report.per_topic_tc[t], report.per_topic_wswf[t]
        if abs(tc - got_tc) > METRIC_TOL:
            out.append(f"topic {t}: TC {got_tc!r} != brute force {tc!r}")
        if abs(ws - got_ws) > METRIC_TOL or got_ws > 0:
            out.append(f"topic {t}: WSWF {got_ws!r} != brute force {ws!r} or > 0")
    return out


def check_rows_sum_to_one(topic_word: np.ndarray, what: str) -> list[str]:
    err = float(np.max(np.abs(topic_word.sum(axis=1) - 1.0)))
    return [] if err <= ROW_SUM_TOL else [f"{what}: topic-word rows sum off 1 by {err:.3g}"]


def check_elbo(epoch_elbo: list[float], epochs: int, what: str) -> list[str]:
    if len(epoch_elbo) != epochs:
        return [f"{what}: {len(epoch_elbo)} epoch ELBOs for {epochs} epochs"]
    bad = [e for e in epoch_elbo if not (math.isfinite(e) and e <= 0)]
    return [f"{what}: epoch ELBO {bad} not finite and <= 0"] if bad else []


def check_kmeans(points: np.ndarray, centres: np.ndarray, labels: np.ndarray,
                 inertia: float, what: str) -> list[str]:
    """Every label is a nearest centre and the inertia is the sum of assigned distances."""
    if labels.shape != (points.shape[0],) or labels.min() < 0 or labels.max() >= len(centres):
        return [f"{what}: labels out of range"]
    sq_p = np.einsum("ij,ij->i", points, points)
    sq_c = np.einsum("ij,ij->i", centres, centres)
    d2 = sq_p[:, None] - 2.0 * points @ centres.T + sq_c[None, :]
    scale = KMEANS_TOL * (sq_p + sq_c.max())
    out = []
    worse = np.flatnonzero(d2[np.arange(len(labels)), labels] > d2.min(axis=1) + scale)
    if worse.size:
        out.append(f"{what}: {worse.size} points not at their nearest centre")
    mine = float(((points - centres[labels]) ** 2).sum())
    if abs(mine - inertia) > KMEANS_TOL * max(1.0, abs(mine)):
        out.append(f"{what}: inertia {inertia!r} != recomputed {mine!r}")
    return out


def tfidf(docs: list[np.ndarray], n_vocab: int) -> np.ndarray:
    """L2-normalised count x (ln((1+D)/(1+df)) + 1), dense (docs, vocab)."""
    counts = np.zeros((len(docs), n_vocab))
    for d, toks in enumerate(docs):
        np.add.at(counts[d], toks, 1.0)
    df = (counts > 0).sum(axis=0)
    reps = counts * (np.log((1.0 + len(docs)) / (1.0 + df)) + 1.0)
    return reps / np.linalg.norm(reps, axis=1, keepdims=True)


def check_lda_counts(state, docs: list[np.ndarray]) -> list[str]:
    """Topic-word, document-topic and topic totals recounted from the assignments z."""
    tok = np.concatenate(docs)
    z = np.concatenate(state.z)
    doc_of = np.repeat(np.arange(len(docs)), [len(d) for d in docs])
    if z.shape != tok.shape:
        return [f"lda: {z.size} assignments for {tok.size} tokens"]
    n_tv = np.zeros_like(state.n_tv)
    n_dt = np.zeros_like(state.n_dt)
    np.add.at(n_tv, (z, tok), 1)
    np.add.at(n_dt, (doc_of, z), 1)
    ok = (np.array_equal(n_tv, state.n_tv) and np.array_equal(n_dt, state.n_dt)
          and np.array_equal(n_tv.sum(axis=1), state.n_t))
    return [] if ok else ["lda: count matrices differ from a recount of z"]


def aligned_purity(found: np.ndarray, planted: np.ndarray, n: int = 10) -> float:
    """Hungarian-aligned mean overlap of the top-n word sets, found vs planted topics."""
    top_f = [set(np.argsort(-row, kind="stable")[:n]) for row in found]
    top_p = [set(np.argsort(-row, kind="stable")[:n]) for row in planted]
    overlap = np.array([[len(f & p) / n for p in top_p] for f in top_f])
    rows, cols = linear_sum_assignment(-overlap)
    return float(overlap[rows, cols].mean())


def check_manifest(artifact: Path) -> list[str]:
    """The manifest beside `artifact` names each input with its sha256."""
    manifest = json.loads(Path(str(artifact) + ".manifest.json").read_text("utf-8"))
    out = []
    for path, digest in manifest["inputs"].items():
        if hashlib.sha256(Path(path).read_bytes()).hexdigest() != digest:
            out.append(f"{artifact.name}: manifest hash of {path} is wrong")
    if not manifest["inputs"]:
        out.append(f"{artifact.name}: manifest lists no inputs")
    return out
