"""Reference implementation for the k-means tests.

`reference_kmeans_pp_init` is the dense-difference k-means++ seeding that
`cluster._kmeans_pp_init` replaced, kept unchanged as the oracle for its
picks. `reference_kmeans` is `cluster.kmeans` with that seeding: same seed,
same centres, assignment, inertia and history, bit for bit.
"""

from __future__ import annotations

import numpy as np

from clustertm.cluster import MAX_ITER, ClusterModel, _lloyd


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
        centres, sorted_labels, inertia, history = _lloyd(sorted_points, init, MAX_ITER)
        if best is None or inertia < best[2]:
            best = (centres, sorted_labels, inertia, history)

    centres, sorted_labels, inertia, history = best
    labels = np.empty(n, dtype=np.int64)
    labels[order] = sorted_labels
    return ClusterModel(centres, labels, representation, inertia, history)
