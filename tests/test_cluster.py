import itertools
import json
import logging
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

from clustertm import cluster
from clustertm.cluster import (ClusterError, _lloyd, cluster_corpus, kmeans,
                               load_clusters, save_clusters,
                               vectorize_documents)
from clustertm.sgns import EmbeddingMatrix
import kmeans_reference
from conftest import JSON, json_files, make_corpus, make_planted


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
    assert sp.isspmatrix_csr(reps) and reps.has_sorted_indices
    assert np.allclose(np.linalg.norm(reps.toarray(), axis=1), 1.0)


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


@pytest.mark.parametrize("field, value", [
    ("k", 2.5), ("k", True), ("k", "2"), ("n_restarts", 1.5), ("n_restarts", "2"),
    ("n_restarts", 0)])
def test_kmeans_integer_settings_fail_by_name(field, value):
    settings = {"k": 2, field: value}
    with pytest.raises(ClusterError, match=f"^{field} must be an integer >= 1, got .+$"):
        kmeans(np.eye(3), settings.pop("k"), **settings)


@pytest.mark.parametrize("seed", [-1, 1.5, True, "0", None])
def test_kmeans_rejects_seed_that_is_not_a_non_negative_integer(seed):
    with pytest.raises(ClusterError, match="^seed must be an integer >= 0, got .+$"):
        kmeans(np.eye(3), 2, seed=seed)


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
    sq = np.einsum("ij,ij->i", points, points)
    centres, labels, inertia, history = _lloyd(points, sq, points[:4].copy(), max_iter=1)
    assert len(history) == 1
    d2 = ((points[:, None, :] - centres[None, :, :]) ** 2).sum(axis=2)
    assert np.array_equal(labels, d2.argmin(axis=1))
    assert inertia == pytest.approx(np.sum((points - centres[labels]) ** 2, axis=1).sum(),
                                    rel=1e-12, abs=0)
    assert inertia < history[0]


def test_lloyd_stops_at_zero_inertia():
    # more clusters than distinct points: each pass re-seeds an empty cluster
    points = np.repeat(np.random.default_rng(3).normal(size=(3, 2)), 4, axis=0)
    model = kmeans(points, 5, seed=0, n_restarts=1)
    assert model.inertia == 0.0
    assert len(model.inertia_history) < cluster.MAX_ITER


def csr_order_points(rng):
    """Sparse rows with duplicates, a prefix of another row, a negative entry and a
    row holding every column."""
    dense = rng.random((40, 12)) * (rng.random((40, 12)) < 0.3)
    dense[5] = dense[4]
    dense[9, :8] = dense[8, :8] = rng.random(8) + 0.5
    dense[8, 8:], dense[9, 10] = 0.0, 0.7  # row 8's entries are the first of row 9's
    dense[10, 3] = -1.0
    dense[11] = rng.random(12) + 0.5
    return sp.csr_matrix(dense)


@pytest.mark.parametrize("make_points", [lambda rng: rng.normal(size=(40, 2)), csr_order_points],
                         ids=["dense", "csr"])
def test_kmeans_invariant_to_point_order(make_points):
    rng = np.random.default_rng(5)
    points = make_points(rng)
    model_a = kmeans(points, 3, seed=2)
    perm = rng.permutation(40)
    model_b = kmeans(points[perm], 3, seed=2)
    assert np.array_equal(model_a.centres, model_b.centres)
    assert np.array_equal(model_a.assignment[perm], model_b.assignment)


def test_kmeans_same_on_fortran_ordered_points():
    points = np.random.default_rng(5).normal(size=(120, 33))
    a = kmeans(points, 4, seed=1, n_restarts=2)
    b = kmeans(np.asfortranarray(points), 4, seed=1, n_restarts=2)
    assert a.centres.tobytes() == b.centres.tobytes()
    assert np.array_equal(a.assignment, b.assignment)
    assert a.inertia_history == b.inertia_history


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


def test_kmeans_on_csr_points_never_makes_them_dense():
    points = sp.random(2000, 5000, density=0.005, format="csr", random_state=11)
    tracemalloc.start()
    try:
        kmeans(points, 20, seed=0, n_restarts=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2000 * 5000 * 8 / 4


def test_kmeans_sort_key_memory_does_not_follow_the_longest_row():
    # one document holding half the vocabulary must not pad every row's sort key to its length
    points = sp.random(2000, 5000, density=0.005, format="lil", random_state=11)
    points[7, ::2] = 1.0
    tracemalloc.start()
    try:
        kmeans(points.tocsr(), 20, seed=0, n_restarts=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2000 * 5000 * 8 / 4


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


@pytest.mark.parametrize("sparse", [False, True])
def test_member_sums_are_byte_equal_to_the_coo_built_indicator_product(sparse):
    # k above the number of labels drawn leaves clusters empty
    rng = np.random.default_rng(14)
    for trial in range(20):
        n, k = int(rng.integers(1, 60)), int(rng.integers(1, 12))
        labels = rng.integers(0, max(1, k // 2) if trial % 2 else k, size=n)
        points = rng.normal(scale=10.0 ** rng.integers(-3, 4), size=(n, 7))
        if sparse:
            points = sp.csr_matrix(np.where(rng.random(points.shape) < 0.3, points, 0.0))
        coo = sp.coo_matrix((np.ones(n), (labels, np.arange(n))), shape=(k, n)).tocsr()
        want = coo @ points
        want = want.toarray() if sparse else want
        got = cluster._member_sums(points, labels, k)
        assert got.shape == (k, 7) and got.tobytes() == want.tobytes()


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
        with pytest.raises(ClusterError, match="NaN or infinite"):
            kmeans(sp.csr_matrix(points), 2)


def test_kmeans_rejects_one_dimensional_points():
    with pytest.raises(ClusterError, match="2-D"):
        kmeans(np.arange(6.0), 2)


@pytest.mark.parametrize("points", [np.zeros((3, 0)), sp.csr_matrix((3, 0))])
def test_kmeans_rejects_points_without_columns(points):
    with pytest.raises(ClusterError, match="no columns"):
        kmeans(points, 2)


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


@pytest.mark.parametrize("field, value, named", [
    ("centres", [1.0, 2.0], "centres must be a 2-D array, got shape (2,)"),
    ("centres", 3.0, "centres must be a 2-D array, got shape ()"),
    ("assignment", [[0, 1], [1, 0]], "assignment must be a 1-D list, got shape (2, 2)"),
    ("assignment", "01", "assignment must be a 1-D list, got shape ()"),
    ("centres", [[], [], []], "centres must have at least one column, got shape (3, 0)"),
])
def test_load_clusters_rejects_centres_or_assignment_of_another_shape(tmp_path, field, value,
                                                                      named):
    model = kmeans(np.random.default_rng(2).normal(size=(8, 2)), 2, seed=0)
    path = tmp_path / "clusters.json"
    save_clusters(model, path)
    payload = json.loads(path.read_text("utf-8"))
    path.write_text(json.dumps({**payload, field: value}), "utf-8")
    with pytest.raises(ClusterError) as err:
        load_clusters(path)
    assert str(err.value) == f"{path}: {named}"


# ---------------------------------------------------- reference seeding oracle

def seeded_run(fit, module, lloyd, points, k, seed, n_restarts):
    """`fit`'s model, plus the initial centres it handed to each run of `module.<lloyd>`."""
    inits = []
    run = getattr(module, lloyd)

    def spy(*args):
        inits.append(args[-2].copy())  # (..., centres, max_iter)
        return run(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(module, lloyd, spy)
        return fit(points, k, seed=seed, n_restarts=n_restarts), inits


def assert_matches_reference(points, k, seed, n_restarts):
    """`kmeans` on `points`, and on their dense copy if they are sparse, against the oracle.

    Seeds and labels are exact. The inertia takes the norm form |x|^2 - 2 x.c + |c|^2
    (the oracle sums the differences), so it and its history agree to a relative 1e-12.
    """
    dense = points.toarray() if sp.issparse(points) else points
    want, want_inits = seeded_run(kmeans_reference.reference_kmeans, kmeans_reference,
                                  "reference_lloyd", dense, k, seed, n_restarts)
    for fitted in ([points, dense] if sp.issparse(points) else [points]):
        got, got_inits = seeded_run(kmeans, cluster, "_lloyd", fitted, k, seed, n_restarts)
        assert [c.tobytes() for c in got_inits] == [c.tobytes() for c in want_inits]
        assert np.array_equal(got.assignment, want.assignment)
        assert np.abs(got.centres - want.centres).max() <= 1e-15
        assert got.inertia == pytest.approx(want.inertia, rel=1e-12, abs=0)
        assert got.inertia_history == pytest.approx(want.inertia_history, rel=1e-12, abs=0)


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
    assert points.shape[1] >= 2000 and points.nnz / np.prod(points.shape) < 0.02
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


@pytest.mark.parametrize("init_rows", [[0, 0, 1], [2, 5, 5, 5]])
def test_lloyd_reseeds_empty_clusters_on_csr_points_as_reference(caplog, init_rows):
    # a repeated initial centre owns no points after the first labelling
    dense = sp.random(30, 8, density=0.4, random_state=4).toarray()
    points = sp.csr_matrix(dense)
    sq = points.multiply(points).sum(axis=1).A1
    with caplog.at_level(logging.INFO, logger="clustertm.cluster"):
        centres, labels, inertia, history = _lloyd(points, sq, dense[init_rows], cluster.MAX_ITER)
    assert "re-seeding empty cluster" in caplog.text
    want = kmeans_reference.reference_lloyd(dense, dense[init_rows], cluster.MAX_ITER)
    assert np.array_equal(labels, want[1])
    assert np.abs(centres - want[0]).max() <= 1e-15
    assert inertia == pytest.approx(want[2], rel=1e-12, abs=0)
    assert history == pytest.approx(want[3], rel=1e-12, abs=0)


# ------------------------------------------------------------- CSR sort key

SORT_VALUES = st.sampled_from([-2.0, -1.0, -0.5, -0.0, 0.0, 0.0, 0.0, 0.5, 1.0, 2.0])


@st.composite
def csr_with_dense_copy(draw):
    """Rows drawn from a few base rows (duplicates), each cut after a column (so one
    row's non-zeros can be a prefix of another's, or none), with stored zeros."""
    n_cols = draw(st.integers(1, 6))
    base = draw(st.lists(st.lists(SORT_VALUES, min_size=n_cols, max_size=n_cols),
                         min_size=1, max_size=5))
    rows = []
    for _ in range(draw(st.integers(1, 14))):
        row, cut = draw(st.sampled_from(base)), draw(st.integers(0, n_cols))
        rows.append(row[:cut] + [0.0] * (n_cols - cut))
    dense = np.array(rows)
    stored = draw(st.lists(st.booleans(), min_size=dense.size, max_size=dense.size))
    r, c = np.nonzero((dense != 0) | np.reshape(stored, dense.shape))
    return dense, sp.csr_matrix((dense[r, c], (r, c)), shape=dense.shape)


@settings(max_examples=500, deadline=None)
@given(csr_with_dense_copy())
def test_csr_sort_key_orders_and_groups_rows_as_dense_lexsort(case):
    dense, points = case
    want = np.lexsort(dense.T[::-1])
    sorted_rows = dense[want]
    new_row = np.any(sorted_rows[1:] != sorted_rows[:-1], axis=1)
    for rows in (points, dense):
        order, group = cluster._row_order(cluster._checked_points(rows)[0])
        assert np.array_equal(order, want)
        assert np.array_equal(group, np.concatenate(([0], np.cumsum(new_row))))


def test_csr_sort_key_long_rows_over_many_short_negative_rows():
    rng = np.random.default_rng(12)
    dense = np.zeros((60, 40))
    for row in dense[:56]:
        cols = rng.choice(40, size=rng.integers(1, 4), replace=False)
        row[cols] = rng.choice([-1.0, -0.5, 0.5, 1.0], size=cols.size)
    dense[56] = rng.choice([-1.0, 1.0], size=40)
    dense[57:59] = dense[56]
    dense[58, -1] *= -1  # differs from the other two long rows in the last column only
    dense[59, :3] = dense[0, :3]  # starts as a short row does
    dense[59, 3:] = -1.0
    dense = dense[rng.permutation(60)]
    want = np.lexsort(dense.T[::-1])
    sorted_rows = dense[want]
    new_row = np.any(sorted_rows[1:] != sorted_rows[:-1], axis=1)
    order, group = cluster._row_order(cluster._checked_points(sp.csr_matrix(dense))[0])
    assert np.array_equal(order, want)
    assert np.array_equal(group, np.concatenate(([0], np.cumsum(new_row))))


CLUSTER_FILES = json_files({
    "centres": st.lists(st.lists(st.floats(), min_size=1, max_size=2), min_size=1, max_size=3)
    | JSON,
    "assignment": st.lists(st.integers(-1, 3) | st.integers(), max_size=4) | JSON,
    "representation": st.sampled_from(["tfidf", "embedding"]) | JSON,
    "inertia": st.floats() | st.integers() | JSON,
})


@settings(max_examples=300, deadline=None)
@given(CLUSTER_FILES)
@example(json.dumps({"centres": [[0.1], [0.2]], "assignment": [0, 2**70],
                     "representation": "tfidf", "inertia": 1.0}))
def test_load_clusters_loads_a_file_or_names_it(tmp_path_factory, text):
    path = tmp_path_factory.getbasetemp() / "fuzz_clusters.json"
    path.write_text(text, "utf-8")
    try:
        model = load_clusters(path)
    except ClusterError as err:
        assert str(err).startswith(f"{path}: ") and "\n" not in str(err)
        return
    assert model.centres.ndim == 2 and model.assignment.ndim == 1
    assert np.isfinite(model.centres).all() and np.isfinite(model.inertia)
