"""Document vectorization and k-means (k-means++ seeding, Lloyd iterations)."""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from .corpus import Corpus, check_int, malformed
from .sgns import EmbeddingMatrix, check_vocabulary

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


def vectorize_documents(corpus: Corpus, embeddings: EmbeddingMatrix | None = None):
    """Count-weighted mean embedding per document (dense), or L2-normalized TF-IDF without
    embeddings (CSR with sorted column indices)."""
    x = corpus.doc_term
    if embeddings is not None:
        check_vocabulary(embeddings, corpus)
        return (x @ embeddings.vectors) / x.sum(axis=1).A
    df = (x > 0).sum(axis=0).A1
    idf = np.log((1.0 + corpus.n_docs) / (1.0 + df)) + 1.0  # smooth, strictly positive
    reps = x.copy()
    reps.data *= idf[reps.indices]
    reps.data /= np.repeat(np.sqrt(_csr_sq_norms(reps)), np.diff(reps.indptr))
    return reps


def _csr_sq_norms(x: sp.csr_matrix) -> np.ndarray:
    """Squared L2 norm of each row."""
    return x.multiply(x).sum(axis=1).A1


def _checked_points(points):
    """`points` as a float CSR matrix (duplicates summed, no stored zeros) if sparse, else as
    a float array, and its squared row norms; raises ClusterError unless 2-D, with at
    least one column, and finite."""
    if sp.issparse(points):
        points = sp.csr_matrix(points, dtype=float, copy=True)
        points.sum_duplicates()
        points.eliminate_zeros()  # the CSR sort key reads stored entries as the non-zeros
        values, sq = points.data, _csr_sq_norms(points)
    else:
        # C order: each row's norm is summed as it would be on the sorted copy
        points = values = np.asarray(points, dtype=float, order="C")
        if points.ndim != 2:
            raise ClusterError(f"points must be a 2-D array, got shape {points.shape}")
        sq = np.einsum("ij,ij->i", points, points)
    if points.shape[1] == 0:
        raise ClusterError("points have no columns")
    if not np.isfinite(values).all():
        raise ClusterError("points contain NaN or infinite values")
    return points, sq


def _row_order(points):
    """`np.lexsort` order of the rows, and ids shared by equal rows in that order.

    Dense rows are their own key. A CSR row's key is a list of its stored entries
    as (u, v) pairs, closed by (0, 0): v at column c becomes u = sign(v) * (V - c),
    then v. At the first pair where two keys differ, either both rows hold one
    column (u's sign, then v, orders them as the dense values do), or one row has
    a non-zero v where the other is still 0 (the pair with the smaller column, or
    the closing pair): u < 0 exactly when v < 0, which is when the dense row is
    the smaller. Needs sorted indices and no stored zeros.
    """
    if not sp.issparse(points):
        order = np.lexsort(points.T[::-1])
        rows = points[order]
        new_row = np.any(rows[1:] != rows[:-1], axis=1)
        return order, np.concatenate(([0], np.cumsum(new_row)))
    n, n_cols = points.shape
    ends = (2 * (points.indptr + np.arange(n + 1))).tolist()  # key i is flat[ends[i]:ends[i+1]]
    at = 2 * (np.arange(points.nnz) + np.repeat(np.arange(n), np.diff(points.indptr)))
    flat = np.zeros(ends[-1])
    flat[at] = np.sign(points.data) * (n_cols - points.indices)
    flat[at + 1] = points.data
    flat = flat.tolist()
    keys = [flat[lo:hi] for lo, hi in zip(ends[:-1], ends[1:])]
    del flat
    order = sorted(range(n), key=keys.__getitem__)
    new_row = np.fromiter((keys[i] != keys[j] for i, j in zip(order, order[1:])), bool, n - 1)
    return np.array(order), np.concatenate(([0], np.cumsum(new_row)))


def _dense(rows):
    """A block of rows as a dense array: CSR rows are made dense, dense rows pass through."""
    return rows.toarray() if sp.issparse(rows) else rows


def _kmeans_pp_init(points, sq: np.ndarray, group: np.ndarray, k: int,
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

    def take(j, i):
        """Make point i centre j; its squared distance to every point."""
        centres[j] = _dense(points[[i]])[0]
        d = sq - 2.0 * (points @ centres[j])
        d += sq[i]
        np.maximum(d, 0.0, out=d)
        d[group == group[i]] = 0.0
        return d

    d2 = take(0, rng.integers(n))
    for j in range(1, k):
        total = d2.sum()
        if total <= 0:
            centres[j] = _dense(points[[rng.integers(n)]])[0]
            continue
        idx = min(int(np.searchsorted(np.cumsum(d2 / total), rng.random())), n - 1)
        d2 = np.minimum(d2, take(j, idx))
    return centres


# |x|^2 - 2 x.c + |c|^2 at or below this share of |x|^2 + |c|^2 is rounding noise: such
# distances are recomputed from the difference, so a point equal to its centre gives 0
CANCELLATION = 1e-8
NEAR_CHUNK = 2**20  # floats of the dense difference rows made at once


def _sq_dist(points, sq: np.ndarray, centres: np.ndarray, labels=None):
    """Labels (the nearest centre, unless given) and each point's squared distance to
    its labelled centre, from one product `points @ centres.T` and the row norms."""
    prod = points @ centres.T
    cc = np.einsum("ij,ij->i", centres, centres)
    if labels is None:
        labels = np.argmin(cc - 2.0 * prod, axis=1)
    cl = cc[labels]
    d = sq - 2.0 * prod[np.arange(len(labels)), labels] + cl
    near = np.flatnonzero(d <= CANCELLATION * (sq + cl))
    step = max(1, NEAR_CHUNK // points.shape[1])
    for s in range(0, near.size, step):
        idx = near[s:s + step]
        d[idx] = np.sum((_dense(points[idx]) - centres[labels[idx]]) ** 2, axis=1)
    return labels, d


def _member_sums(points, labels: np.ndarray, k: int) -> np.ndarray:
    """(k, R) sums of each cluster's rows: one (k, n) indicator product, rows added in order.

    The indicator is built in CSR form: row j lists cluster j's points in increasing order.
    """
    n = len(labels)
    indptr = np.concatenate([[0], np.cumsum(np.bincount(labels, minlength=k))])
    indicator = sp.csr_matrix((np.ones(n), np.argsort(labels, kind="stable"), indptr),
                              shape=(k, n))
    return _dense(indicator @ points)


def _update_centres(points, sq: np.ndarray, centres: np.ndarray,
                    labels: np.ndarray) -> np.ndarray:
    """Member means; an empty cluster is re-seeded to the point farthest from its centre.

    Clusters are taken in order, as one pass over them would: a re-seed measures
    distances to the centres updated so far, and moves its point (in `labels`)
    out of its old cluster.
    """
    k = centres.shape[0]
    counts = np.bincount(labels, minlength=k)
    sums = _member_sums(points, labels, k)
    centres = centres.copy()
    for j in range(k):
        if counts[j]:
            centres[j] = sums[j] / counts[j]
            continue
        far = int(np.argmax(_sq_dist(points, sq, centres, labels)[1]))
        logger.info("kmeans: re-seeding empty cluster %d to point %d", j, far)
        centres[j] = _dense(points[[far]])[0]
        labels[far] = j
        counts = np.bincount(labels, minlength=k)
        sums = _member_sums(points, labels, k)
    return centres


def _lloyd(points, sq: np.ndarray, centres: np.ndarray, max_iter: int):
    """Lloyd passes from `centres` over dense or CSR points with squared row norms `sq`."""
    labels = None
    history = []
    for _ in range(max_iter):
        new_labels, d2 = _sq_dist(points, sq, centres)
        history.append(float(d2.sum()))
        # centres unchanged since labelled, or no assignment can beat inertia 0
        if history[-1] == 0.0 or (labels is not None and np.array_equal(new_labels, labels)):
            return centres, new_labels, history[-1], history
        labels = new_labels
        centres = _update_centres(points, sq, centres, labels)
    labels, d2 = _sq_dist(points, sq, centres)  # max_iter reached: label against the last update
    return centres, labels, float(d2.sum()), history


def kmeans(points, k: int, seed: int = 0, n_restarts: int = 10,
           representation: str = "embedding") -> ClusterModel:
    """Best of `n_restarts` k-means++/Lloyd runs; deterministic for a given seed.

    `points` is a dense (n, R) array or a scipy sparse matrix (used as CSR; the
    centres are dense). Seeding and iteration run over a lexicographically
    sorted copy of the points, so the fitted centres are independent of input
    point order.
    """
    points, sq = _checked_points(points)
    n = points.shape[0]
    check_int(ClusterError, "k", k, 1)
    if k > n:
        raise ClusterError(f"k={k} exceeds number of points {n}")
    check_int(ClusterError, "n_restarts", n_restarts, 1)
    check_int(ClusterError, "seed", seed, 0)

    order, group = _row_order(points)
    points, sq = points[order], sq[order]
    rng = np.random.default_rng(seed)

    best = None
    for _ in range(n_restarts):
        init = _kmeans_pp_init(points, sq, group, k, rng)
        centres, sorted_labels, inertia, history = _lloyd(points, sq, init, MAX_ITER)
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
    with malformed(ClusterError, path, "malformed cluster file"):
        payload = json.loads(Path(path).read_text("utf-8"))
        centres, ids = np.asarray(payload["centres"], dtype=float), payload["assignment"]
        if centres.ndim != 2:
            raise ClusterError(f"{path}: centres must be a 2-D array, got shape {centres.shape}")
        if centres.shape[1] == 0:
            raise ClusterError(f"{path}: centres must have at least one column, "
                               f"got shape {centres.shape}")
        if np.ndim(ids) != 1:
            raise ClusterError(f"{path}: assignment must be a 1-D list, got shape {np.shape(ids)}")
        bad = [a for a in ids if type(a) is not int]  # bool is not int here
        if bad:
            raise ClusterError(f"{path}: cluster id {bad[0]!r} is not an integer")
        model = ClusterModel(centres, np.asarray(ids, dtype=np.int64), payload["representation"],
                             float(payload["inertia"]))
    if not (np.isfinite(model.centres).all() and np.isfinite(model.inertia)):
        raise ClusterError(f"{path}: cluster file holds NaN or infinite centres or inertia")
    return model
