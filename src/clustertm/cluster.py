"""Document vectorization and k-means (k-means++ seeding, Lloyd iterations)."""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .corpus import Corpus
from .sgns import EmbeddingMatrix

logger = logging.getLogger(__name__)


class ClusterError(Exception):
    pass


@dataclass
class ClusterModel:
    centres: np.ndarray  # (k, R)
    assignment: np.ndarray  # (#D,) int
    representation: str  # "embedding" | "tfidf"
    inertia: float
    inertia_history: list[float] = field(default_factory=list, repr=False)

    @property
    def k(self) -> int:
        return self.centres.shape[0]


def vectorize_documents(corpus: Corpus, embeddings: EmbeddingMatrix | None = None) -> np.ndarray:
    """Count-weighted mean embedding per document, or L2-normalized TF-IDF without embeddings."""
    x = corpus.doc_term
    if embeddings is not None:
        return (x @ embeddings.vectors) / x.sum(axis=1).A
    df = (x > 0).sum(axis=0).A1
    idf = np.log((1.0 + corpus.n_docs) / (1.0 + df)) + 1.0  # smooth, strictly positive
    reps = x.multiply(idf).toarray()
    return reps / np.linalg.norm(reps, axis=1, keepdims=True)


def _kmeans_pp_init(points: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    n = points.shape[0]
    centres = np.empty((k, points.shape[1]))
    centres[0] = points[rng.integers(n)]
    d2 = np.sum((points - centres[0]) ** 2, axis=1)
    for j in range(1, k):
        total = d2.sum()
        if total <= 0:
            centres[j] = points[rng.integers(n)]
            continue
        idx = int(np.searchsorted(np.cumsum(d2 / total), rng.random()))
        centres[j] = points[min(idx, n - 1)]
        d2 = np.minimum(d2, np.sum((points - centres[j]) ** 2, axis=1))
    return centres


def _lloyd(points: np.ndarray, centres: np.ndarray, max_iter: int):
    labels = None
    history = []
    for _ in range(max_iter):
        dists = np.sum((points[:, None, :] - centres[None, :, :]) ** 2, axis=2)
        new_labels = np.argmin(dists, axis=1)
        history.append(float(dists[np.arange(len(points)), new_labels].sum()))
        if labels is not None and np.array_equal(new_labels, labels):
            break
        labels = new_labels
        for j in range(centres.shape[0]):
            members = points[labels == j]
            if len(members):
                centres[j] = members.mean(axis=0)
            else:
                # re-seed an empty cluster to the point farthest from its centre
                far = int(np.argmax(np.sum((points - centres[labels]) ** 2, axis=1)))
                logger.info("kmeans: re-seeding empty cluster %d to point %d", j, far)
                centres[j] = points[far]
                labels[far] = j
    dists = np.sum((points[:, None, :] - centres[None, :, :]) ** 2, axis=2)
    labels = np.argmin(dists, axis=1)
    inertia = float(dists[np.arange(len(points)), labels].sum())
    return centres, labels, inertia, history


def kmeans(points: np.ndarray, k: int, seed: int = 0, max_iter: int = 100,
           n_restarts: int = 10, representation: str = "embedding") -> ClusterModel:
    """Best of `n_restarts` k-means++/Lloyd runs; deterministic for a given seed.

    Seeding and iteration run over a lexicographically sorted copy of the
    points, so the fitted centres are independent of input point order.
    """
    points = np.asarray(points, dtype=float)
    n = points.shape[0]
    if k < 1:
        raise ClusterError("k must be >= 1")
    if k > n:
        raise ClusterError(f"k={k} exceeds number of points {n}")

    order = np.lexsort(points.T[::-1])
    sorted_points = points[order]
    rng = np.random.default_rng(seed)

    best = None
    for _ in range(n_restarts):
        init = _kmeans_pp_init(sorted_points, k, rng)
        centres, _, inertia, history = _lloyd(sorted_points, init, max_iter)
        if best is None or inertia < best[1]:
            best = (centres, inertia, history)

    centres, inertia, history = best
    dists = np.sum((points[:, None, :] - centres[None, :, :]) ** 2, axis=2)
    labels = np.argmin(dists, axis=1)
    return ClusterModel(centres, labels.astype(np.int64), representation, inertia, history)


def cluster_corpus(corpus: Corpus, n_clusters: int, embeddings: EmbeddingMatrix | None = None,
                   seed: int = 0) -> ClusterModel:
    rep = "embedding" if embeddings is not None else "tfidf"
    points = vectorize_documents(corpus, embeddings)
    return kmeans(points, n_clusters, seed=seed, representation=rep)


def save_clusters(model: ClusterModel, path) -> None:
    payload = {
        "centres": model.centres.tolist(),
        "assignment": model.assignment.tolist(),
        "representation": model.representation,
        "inertia": model.inertia,
    }
    Path(path).write_text(json.dumps(payload), "utf-8")


def load_clusters(path) -> ClusterModel:
    try:
        payload = json.loads(Path(path).read_text("utf-8"))
        return ClusterModel(
            np.asarray(payload["centres"], dtype=float),
            np.asarray(payload["assignment"], dtype=np.int64),
            payload["representation"],
            float(payload["inertia"]),
        )
    except (json.JSONDecodeError, KeyError, TypeError, ValueError) as e:
        raise ClusterError(f"{path}: malformed cluster file ({e})") from e
