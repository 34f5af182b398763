import itertools
import json
import tracemalloc

import numpy as np
import pytest

from clustertm import cluster
from clustertm.cluster import (ClusterError, _lloyd, cluster_corpus, kmeans,
                               load_clusters, save_clusters,
                               vectorize_documents)
from clustertm.sgns import EmbeddingMatrix
import kmeans_reference
from conftest import make_corpus, make_planted


def brute_force_inertia(points, k):
    """Best within-cluster sum of squares over all k^n assignments."""
    n = len(points)
    best = np.inf
    for assign in itertools.product(range(k), repeat=n):
        assign = np.asarray(assign)
        total = 0.0
        for c in range(k):
            members = points[assign == c]
            if len(members):
                total += ((members - members.mean(axis=0)) ** 2).sum()
        best = min(best, total)
    return best


def test_vectorize_mean_embedding():
    corpus = make_corpus([[0, 0], [0, 1]], words=["a", "b"])
    emb = EmbeddingMatrix(vectors=np.array([[1.0, 0.0], [0.0, 1.0]]),
                          words=["a", "b"])
    reps = vectorize_documents(corpus, emb)
    assert np.allclose(reps[0], [1.0, 0.0])
    assert np.allclose(reps[1], [0.5, 0.5])


def test_vectorize_tfidf_unit_norm():
    corpus = make_corpus([[0], [1, 0]], words=["a", "b"])
    reps = vectorize_documents(corpus)
    assert np.allclose(np.linalg.norm(reps, axis=1), 1.0)


def test_kmeans_perfectly_separated():
    points = np.array([[0.0], [0.0], [10.0], [10.0]])
    model = kmeans(points, 2, seed=0)
    assert sorted(model.centres.ravel().tolist()) == [0.0, 10.0]
    assert model.inertia == 0.0
    assert model.assignment[0] == model.assignment[1]
    assert model.assignment[2] == model.assignment[3]


def test_kmeans_identical_points_k1():
    points = np.full((6, 2), 3.7)
    model = kmeans(points, 1, seed=0)
    assert np.allclose(model.centres[0], [3.7, 3.7])
    assert model.inertia < 1e-12


def test_kmeans_rejects_bad_k():
    points = np.zeros((3, 2))
    with pytest.raises(ClusterError):
        kmeans(points, 4)
    with pytest.raises(ClusterError):
        kmeans(points, 0)
    with pytest.raises(ClusterError):
        kmeans(points, 2, n_restarts=0)


def test_kmeans_matches_brute_force_on_tiny_instances():
    rng = np.random.default_rng(9)
    for trial in range(8):
        n = int(rng.integers(4, 11))
        k = int(rng.integers(1, 4))
        points = rng.normal(size=(n, 2))
        model = kmeans(points, k, seed=trial)
        assert model.inertia <= brute_force_inertia(points, k) + 1e-9


def test_kmeans_inertia_monotone_over_iterations():
    rng = np.random.default_rng(4)
    for trial in range(100):
        points = rng.normal(size=(int(rng.integers(5, 30)), 3))
        model = kmeans(points, int(rng.integers(1, 4)), seed=trial, n_restarts=1)
        hist = model.inertia_history
        assert all(b <= a + 1e-12 for a, b in zip(hist, hist[1:]))


def test_lloyd_out_of_passes_labels_against_last_update():
    points = np.random.default_rng(7).standard_normal((40, 3))
    centres, labels, inertia, history = _lloyd(points, points[:4].copy(), max_iter=1)
    assert len(history) == 1
    d2 = ((points[:, None, :] - centres[None, :, :]) ** 2).sum(axis=2)
    assert np.array_equal(labels, d2.argmin(axis=1))
    assert inertia == np.sum((points - centres[labels]) ** 2, axis=1).sum()
    assert inertia < history[0]


def test_lloyd_stops_at_zero_inertia():
    # more clusters than distinct points: each pass re-seeds an empty cluster
    points = np.repeat(np.random.default_rng(3).normal(size=(3, 2)), 4, axis=0)
    model = kmeans(points, 5, seed=0, n_restarts=1)
    assert model.inertia == 0.0
    assert len(model.inertia_history) < cluster.MAX_ITER


def test_kmeans_invariant_to_point_order():
    rng = np.random.default_rng(5)
    points = rng.normal(size=(40, 2))
    model_a = kmeans(points, 3, seed=2)
    perm = rng.permutation(40)
    model_b = kmeans(points[perm], 3, seed=2)
    assert np.array_equal(model_a.centres, model_b.centres)
    assert np.array_equal(model_a.assignment[perm], model_b.assignment)


def test_kmeans_peak_memory_stays_near_input_size():
    # the nearest-centre search must not build an (n, k, R) difference tensor
    points = np.random.default_rng(11).random((400, 4000))
    tracemalloc.start()
    try:
        kmeans(points, 20, seed=0, n_restarts=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * points.nbytes


def test_kmeans_centres_are_member_means():
    rng = np.random.default_rng(6)
    points = rng.normal(size=(50, 2))
    model = kmeans(points, 4, seed=1)
    for c in range(4):
        members = points[model.assignment == c]
        assert len(members) > 0
        assert np.abs(model.centres[c] - members.mean(axis=0)).max() < 1e-6
    # every point sits with its nearest centre
    dists = ((points[:, None, :] - model.centres[None]) ** 2).sum(axis=2)
    assert np.array_equal(model.assignment, dists.argmin(axis=1))


def test_cluster_corpus_and_roundtrip(tmp_path):
    rng = np.random.default_rng(8)
    corpus = make_corpus([[int(x) for x in rng.integers(0, 15, size=10)]
                          for _ in range(20)])
    model = cluster_corpus(corpus, 3, seed=0)
    assert model.k == 3
    assert model.representation == "tfidf"
    path = tmp_path / "clusters.json"
    save_clusters(model, path)
    back = load_clusters(path)
    assert np.allclose(back.centres, model.centres)
    assert np.array_equal(back.assignment, model.assignment)
    assert back.representation == model.representation


def test_kmeans_rejects_non_finite_points():
    for bad in (np.nan, np.inf, -np.inf):
        points = np.random.default_rng(3).normal(size=(10, 2))
        points[4, 1] = bad
        with pytest.raises(ClusterError, match="NaN or infinite"):
            kmeans(points, 2)


def test_kmeans_rejects_one_dimensional_points():
    with pytest.raises(ClusterError, match="2-D"):
        kmeans(np.arange(6.0), 2)


def test_load_clusters_rejects_non_finite_values(tmp_path):
    model = kmeans(np.random.default_rng(2).normal(size=(8, 2)), 2, seed=0)
    path = tmp_path / "clusters.json"
    for field, value in (("centres", [[0.5, float("nan")], [1.0, 2.0]]), ("inertia", float("inf"))):
        save_clusters(model, path)
        payload = json.loads(path.read_text("utf-8"))
        payload[field] = value
        path.write_text(json.dumps(payload), "utf-8")
        with pytest.raises(ClusterError, match="NaN or infinite"):
            load_clusters(path)


@pytest.mark.parametrize("bad", [0.5, 1.7, True])
def test_load_clusters_rejects_ids_that_are_not_integers(tmp_path, bad):
    model = kmeans(np.random.default_rng(2).normal(size=(8, 2)), 2, seed=0)
    path = tmp_path / "clusters.json"
    save_clusters(model, path)
    payload = json.loads(path.read_text("utf-8"))
    payload["assignment"][1] = bad
    path.write_text(json.dumps(payload), "utf-8")
    with pytest.raises(ClusterError, match="not an integer") as err:
        load_clusters(path)
    assert repr(bad) in str(err.value) and "\n" not in str(err.value)


# ---------------------------------------------------- reference seeding oracle

def seeded_run(fit, module, points, k, seed, n_restarts):
    """`fit`'s model, plus the initial centres it handed to each Lloyd run."""
    inits = []

    def lloyd(points, centres, max_iter):
        inits.append(centres.copy())
        return _lloyd(points, centres, max_iter)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(module, "_lloyd", lloyd)
        return fit(points, k, seed=seed, n_restarts=n_restarts), inits


def assert_matches_reference(points, k, seed, n_restarts):
    got, got_inits = seeded_run(kmeans, cluster, points, k, seed, n_restarts)
    want, want_inits = seeded_run(kmeans_reference.reference_kmeans, kmeans_reference,
                                  points, k, seed, n_restarts)
    assert [c.tobytes() for c in got_inits] == [c.tobytes() for c in want_inits]
    assert got.centres.tobytes() == want.centres.tobytes()
    assert np.array_equal(got.assignment, want.assignment)
    assert got.inertia == want.inertia
    assert got.inertia_history == want.inertia_history


@pytest.fixture(scope="module")
def planted_corpora():
    return [make_planted(seed)[0] for seed in range(1, 6)]


def test_kmeans_matches_reference_on_planted_tfidf(planted_corpora):
    for seed, corpus in enumerate(planted_corpora, start=1):
        assert_matches_reference(vectorize_documents(corpus), 5, seed, n_restarts=10)


def test_kmeans_matches_reference_on_mean_embeddings(planted_corpora):
    rng = np.random.default_rng(12)
    for seed, corpus in enumerate(planted_corpora, start=1):
        emb = EmbeddingMatrix(rng.normal(size=(corpus.vocab_size, 50)), corpus.vocabulary.words)
        assert_matches_reference(vectorize_documents(corpus, emb), 5, seed, n_restarts=3)


def test_kmeans_matches_reference_on_wide_sparse_tfidf():
    corpus = make_planted(7, n_docs=300, n_vocab=2400, n_topics=20, n_common=20,
                          len_lo=10, len_hi=30)[0]
    points = vectorize_documents(corpus)
    assert points.shape[1] >= 2000 and np.mean(points > 0) < 0.02
    for seed in (0, 1):
        assert_matches_reference(points, 20, seed, n_restarts=2)


def test_kmeans_matches_reference_on_duplicate_heavy_points():
    # grid values repeat rows often; resampled normal rows with k above the number
    # of distinct rows exhaust the D^2 mass, so the re-draw branch of the seeding runs
    rng = np.random.default_rng(13)
    for trial in range(60):
        n, r = int(rng.integers(5, 40)), int(rng.integers(1, 5))
        points = 0.5 * rng.integers(0, 3, size=(n, r))
        assert_matches_reference(points, int(rng.integers(1, n + 1)), trial, n_restarts=2)
    for trial in range(60):
        distinct = int(rng.integers(1, 8))
        dim = int(rng.integers(1, 6))
        rows = rng.normal(scale=10.0 ** rng.integers(-3, 4), size=(distinct, dim))
        n = int(rng.integers(distinct + 1, 30))
        points = rows[rng.integers(distinct, size=n)]
        k = int(rng.integers(len(np.unique(points, axis=0)) + 1, n + 1))
        assert_matches_reference(points, k, trial, n_restarts=2)
