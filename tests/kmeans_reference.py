"""Reference implementation for the k-means tests.

`reference_kmeans_pp_init` is the dense-difference k-means++ seeding that
`cluster._kmeans_pp_init` replaced, kept unchanged as the oracle for its
picks. `reference_lloyd` is the dense Lloyd iteration that `cluster._lloyd`
replaced: per-cluster member means, and the inertia from the differences
`points - centres[labels]`. `reference_kmeans` runs both over the dense rows,
so `cluster.kmeans` on dense or CSR points must give the same initial centres
and labels as it, with centres, inertia and history equal up to rounding.
"""

from __future__ import annotations

import numpy as np

from clustertm.cluster import MAX_ITER, ClusterModel


def reference_kmeans_pp_init(points: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
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


def reference_nearest(points: np.ndarray, centres: np.ndarray) -> np.ndarray:
    return np.argmin(np.einsum("ij,ij->i", centres, centres) - 2.0 * points @ centres.T, axis=1)


def reference_lloyd(points: np.ndarray, centres: np.ndarray, max_iter: int):
    labels = None
    history = []
    for _ in range(max_iter):
        new_labels = reference_nearest(points, centres)
        history.append(float(np.sum((points - centres[new_labels]) ** 2, axis=1).sum()))
        if history[-1] == 0.0 or (labels is not None and np.array_equal(new_labels, labels)):
            return centres, new_labels, history[-1], history
        labels = new_labels
        for j in range(centres.shape[0]):
            members = points[labels == j]
            if len(members):
                centres[j] = members.mean(axis=0)
            else:
                far = int(np.argmax(np.sum((points - centres[labels]) ** 2, axis=1)))
                centres[j] = points[far]
                labels[far] = j
    labels = reference_nearest(points, centres)
    inertia = float(np.sum((points - centres[labels]) ** 2, axis=1).sum())
    return centres, labels, inertia, history


def reference_kmeans(points: np.ndarray, k: int, seed: int = 0, n_restarts: int = 10,
                     representation: str = "embedding") -> ClusterModel:
    points = np.asarray(points, dtype=float)
    n = points.shape[0]
    order = np.lexsort(points.T[::-1])
    sorted_points = points[order]
    rng = np.random.default_rng(seed)

    best = None
    for _ in range(n_restarts):
        init = reference_kmeans_pp_init(sorted_points, k, rng)
        centres, sorted_labels, inertia, history = reference_lloyd(sorted_points, init, MAX_ITER)
        if best is None or inertia < best[2]:
            best = (centres, sorted_labels, inertia, history)

    centres, sorted_labels, inertia, history = best
    labels = np.empty(n, dtype=np.int64)
    labels[order] = sorted_labels
    return ClusterModel(centres, labels, representation, inertia, history)
