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
MAX_ITER = 100  # Lloyd passes per k-means restart


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


def _kmeans_pp_init(points: np.ndarray, sq: np.ndarray, group: np.ndarray, k: int,
                    rng: np.random.Generator) -> np.ndarray:
    """k-means++ seeding (Arthur & Vassilvitskii 2007) over lexsorted points.

    A point's squared distance to centre x_i is |x|^2 - 2 x.x_i + |x_i|^2, from
    the cached row norms `sq` and one matrix-vector product. Rows identical to
    x_i (its `group`: runs of equal rows in the sorted order) get exactly 0, as
    the difference (x - x_i)^2 gives them, so a rounding residue cannot make
    the remaining D^2 mass look positive.
    """
    n = points.shape[0]
    centres = np.empty((k, points.shape[1]))

    def sq_dist(i):
        d = sq - 2.0 * (points @ points[i])
        d += sq[i]
        np.maximum(d, 0.0, out=d)
        d[group == group[i]] = 0.0
        return d

    first = rng.integers(n)
    centres[0] = points[first]
    d2 = sq_dist(first)
    for j in range(1, k):
        total = d2.sum()
        if total <= 0:
            centres[j] = points[rng.integers(n)]
            continue
        idx = min(int(np.searchsorted(np.cumsum(d2 / total), rng.random())), n - 1)
        centres[j] = points[idx]
        d2 = np.minimum(d2, sq_dist(idx))
    return centres


def _nearest(points: np.ndarray, centres: np.ndarray) -> np.ndarray:
    """Index of each point's nearest centre: argmin of |c|^2 - 2 x.c (|x|^2 is common to a row)."""
    return np.argmin(np.einsum("ij,ij->i", centres, centres) - 2.0 * points @ centres.T, axis=1)


def _lloyd(points: np.ndarray, centres: np.ndarray, max_iter: int):
    labels = None
    history = []
    for _ in range(max_iter):
        new_labels = _nearest(points, centres)
        history.append(float(np.sum((points - centres[new_labels]) ** 2, axis=1).sum()))
        # centres unchanged since labelled, or no assignment can beat inertia 0
        if history[-1] == 0.0 or (labels is not None and np.array_equal(new_labels, labels)):
            return centres, new_labels, history[-1], history
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
    labels = _nearest(points, centres)  # max_iter reached: label against the last update
    inertia = float(np.sum((points - centres[labels]) ** 2, axis=1).sum())
    return centres, labels, inertia, history


def kmeans(points: np.ndarray, k: int, seed: int = 0, n_restarts: int = 10,
           representation: str = "embedding") -> ClusterModel:
    """Best of `n_restarts` k-means++/Lloyd runs; deterministic for a given seed.

    Seeding and iteration run over a lexicographically sorted copy of the
    points, so the fitted centres are independent of input point order.
    """
    points = np.asarray(points, dtype=float)
    if points.ndim != 2:
        raise ClusterError(f"points must be a 2-D array, got shape {points.shape}")
    if not np.isfinite(points).all():
        raise ClusterError("points contain NaN or infinite values")
    n = points.shape[0]
    if k < 1:
        raise ClusterError("k must be >= 1")
    if k > n:
        raise ClusterError(f"k={k} exceeds number of points {n}")
    if n_restarts < 1:
        raise ClusterError(f"n_restarts must be >= 1, got {n_restarts!r}")

    order = np.lexsort(points.T[::-1])
    sorted_points = points[order]
    sq = np.einsum("ij,ij->i", sorted_points, sorted_points)
    new_row = np.any(sorted_points[1:] != sorted_points[:-1], axis=1)
    group = np.concatenate(([0], np.cumsum(new_row)))  # equal rows share an id
    rng = np.random.default_rng(seed)

    best = None
    for _ in range(n_restarts):
        init = _kmeans_pp_init(sorted_points, sq, group, k, rng)
        centres, sorted_labels, inertia, history = _lloyd(sorted_points, init, MAX_ITER)
        if best is None or inertia < best[2]:
            best = (centres, sorted_labels, inertia, history)

    centres, sorted_labels, inertia, history = best
    labels = np.empty(n, dtype=np.int64)
    labels[order] = sorted_labels
    return ClusterModel(centres, labels, representation, inertia, history)


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
        bad = [a for a in payload["assignment"] if type(a) is not int]  # bool is not int here
        if bad:
            raise ClusterError(f"{path}: cluster id {bad[0]!r} is not an integer")
        model = ClusterModel(
            np.asarray(payload["centres"], dtype=float),
            np.asarray(payload["assignment"], dtype=np.int64),
            payload["representation"],
            float(payload["inertia"]),
        )
    except (json.JSONDecodeError, KeyError, TypeError, ValueError) as e:
        raise ClusterError(f"{path}: malformed cluster file ({e})") from e
    if not (np.isfinite(model.centres).all() and np.isfinite(model.inertia)):
        raise ClusterError(f"{path}: cluster file holds NaN or infinite centres or inertia")
    return model
