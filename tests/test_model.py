import dataclasses
import json
import struct
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.special

from clustertm import metrics, model
from clustertm.corpus import Document, doc_term_matrix
from conftest import make_corpus, rel_err
import oracles
from model_reference import reference_elbo_and_grad


def etm_params(n_vocab=20, n_topics=3, emb_dim=4, hidden=5, n_docs=5, seed=1,
               freeze=False):
    return model.init_params("etm", n_vocab, n_topics, emb_dim, n_docs,
                             hidden=hidden, seed=seed, freeze_word_emb=freeze)


def modified_params(n_vocab=20, n_topics=3, emb_dim=4, hidden=5, n_docs=5, seed=1,
                    rng_seed=2):
    rng = np.random.default_rng(rng_seed)
    g0 = rng.dirichlet(np.ones(n_vocab))
    return model.init_params(
        "modified", n_vocab, n_topics, emb_dim, n_docs, hidden=hidden, seed=seed,
        centres=rng.standard_normal((n_topics, emb_dim)),
        log_g0=np.log(g0),
        assignment=rng.integers(0, n_topics, size=n_docs))


def random_docs(n_docs=5, n_vocab=20, seed=0):
    rng = np.random.default_rng(seed)
    return [Document(tokens=[int(x) for x in rng.integers(0, n_vocab,
                                                          size=rng.integers(5, 12))])
            for _ in range(n_docs)]


# ---------------------------------------------------------------- topic-word

def test_topic_word_dist_zero_topic_vector_is_uniform():
    p = etm_params()
    p.arrays["topic_emb"][0] = 0.0
    dist = np.exp(model.log_topic_word_matrix(p)[0])
    assert np.allclose(dist, 1.0 / p.n_vocab, atol=1e-12)


def test_topic_word_dist_hand_softmax():
    p = etm_params(n_vocab=2, emb_dim=1)
    p.arrays["word_emb"][:] = [[0.0], [np.log(3.0)]]
    p.arrays["topic_emb"][0] = [1.0]  # logits (0, ln 3)
    assert np.allclose(np.exp(model.log_topic_word_matrix(p)[0]), [0.25, 0.75], atol=1e-12)


def test_topic_word_dist_shift_invariant():
    p = etm_params(emb_dim=3)
    base = np.exp(model.log_topic_word_matrix(p)[1])
    p.arrays["word_emb"] += 1.0  # adds topic_emb[1].sum() to every logit of topic 1
    shifted = np.exp(model.log_topic_word_matrix(p)[1])
    assert np.allclose(base, shifted, atol=1e-9)


def test_topic_word_dist_is_probability_vector():
    for p in (etm_params(seed=3), modified_params(seed=3)):
        for t in range(p.n_topics):
            dist = np.exp(model.log_topic_word_matrix(p)[t])
            assert (dist >= 0).all()
            assert abs(dist.sum() - 1.0) < 1e-9


# ----------------------------------------------------- modified topic side

def test_topic_embedding_modified_zero_final_layer():
    p = modified_params()
    p.arrays["xi.W2"][:] = 0.0
    p.arrays["xi.b2"][:] = 0.0
    emb = model.topic_embedding_modified(p)
    assert np.abs(emb).max() == 0.0
    for t in range(p.n_topics):
        assert np.abs(np.exp(model.log_topic_word_matrix(p)[t])
                      - np.exp(p.arrays["log_g0"])).max() < 1e-12


def test_topic_embedding_modified_permutes_with_centres():
    p = modified_params()
    perm = [2, 0, 1]
    base = model.topic_embedding_modified(p)
    permuted = model.topic_embedding_modified(
        dataclasses.replace(p, arrays={**p.arrays, "centres": p.arrays["centres"][perm]}))
    assert np.allclose(permuted, base[perm], atol=1e-12)


def test_topic_embedding_modified_dim_mismatch():
    p = modified_params()
    with pytest.raises(model.ModelError):
        model.topic_embedding_modified(
            dataclasses.replace(p, arrays={**p.arrays, "centres": np.zeros((3, p.emb_dim + 1))}))


def test_modified_word_dist_uniform_g0_equals_etm_form():
    p = modified_params(n_vocab=6)
    p.arrays["log_g0"] = np.full(6, np.log(1.0 / 6))
    e_t = model.topic_embedding_modified(p)
    logits = e_t[0] @ p.arrays["word_emb"].T
    expected = np.exp(logits - logits.max())
    expected /= expected.sum()
    assert np.allclose(np.exp(model.log_topic_word_matrix(p)[0]), expected, atol=1e-12)


def test_modified_word_dist_hand_computation():
    # logits (0, ln 3) with G0=(3/4, 1/4): (3/4, 3/4) normalized -> (1/2, 1/2)
    p = modified_params(n_vocab=2, emb_dim=1)
    p.arrays["word_emb"][:] = [[0.0], [1.0]]
    p.arrays["xi.W1"][:] = 0.0
    p.arrays["xi.b1"][:] = 0.0
    p.arrays["xi.W2"][:] = 0.0
    p.arrays["xi.b2"][:] = [np.log(3.0)]
    p.arrays["log_g0"] = np.log([0.75, 0.25])
    assert np.allclose(np.exp(model.log_topic_word_matrix(p)[0]), [0.5, 0.5], atol=1e-12)


def test_topic_embedding_modified_requires_modified_kind():
    with pytest.raises(model.ModelError):
        model.topic_embedding_modified(etm_params())


# ------------------------------------------------------------------ encoder

def zero_encoder(p):
    for k, v in p.arrays.items():
        if k.startswith("enc."):
            v[:] = 0.0
    return p


def test_encoder_first_layer_is_word_major_transpose_of_its_draw():
    p = etm_params(n_vocab=20, hidden=5, seed=3)
    w1 = p.arrays["enc.W1"]
    assert w1.shape == (20, 5) and w1.flags.c_contiguous
    # the first draw of the seeded stream, in the (hidden, #V) layout of the checkpoint
    assert np.array_equal(w1, np.random.default_rng(3).normal(0.0, 0.02, (5, 20)).T)


def test_encode_zero_network():
    p = zero_encoder(etm_params())
    stats = model.encode(p, Document(tokens=[1, 2, 3]))
    assert np.abs(stats.mean).max() == 0.0
    assert np.abs(stats.log_std).max() == 0.0


def test_encode_count_normalization():
    p = etm_params(seed=4)
    a = model.encode(p, Document(tokens=[0, 1]))
    b = model.encode(p, Document(tokens=[0, 0, 1, 1]))
    assert np.allclose(a.mean, b.mean, atol=1e-12)
    assert np.allclose(a.log_std, b.log_std, atol=1e-12)


def test_encode_shape_and_finiteness():
    p = etm_params(seed=5, n_topics=7)
    stats = model.encode(p, Document(tokens=[3, 3, 9]))
    assert stats.mean.shape == (7,)
    assert stats.log_std.shape == (7,)
    assert np.isfinite(stats.mean).all() and np.isfinite(stats.log_std).all()


@pytest.mark.parametrize("make", [etm_params, modified_params])
def test_encode_is_one_row_of_the_batch_encoder(make):
    p = make(seed=6)
    docs = random_docs(seed=14)
    x = doc_term_matrix(docs, p.n_vocab)
    rows = np.repeat(np.arange(len(docs)), np.diff(x.indptr))
    hist = sp.csr_matrix((x.data / x.sum(axis=1).A1[rows], x.indices, x.indptr), shape=x.shape)
    *_, mean, log_s = model._encoder(p, hist)
    for j, doc in enumerate(docs):
        stats = model.encode(p, doc)
        *_, row_mean, row_log_s = model._encoder(p, hist[j])
        assert np.array_equal(stats.mean, row_mean[0])
        assert np.array_equal(stats.log_std, row_log_s[0])
        # BLAS rounds a one-row product (gemv) differently from a batch (gemm)
        assert np.allclose(stats.mean, mean[j], rtol=0, atol=1e-15)
        assert np.allclose(stats.log_std, log_s[j], rtol=0, atol=1e-15)


# ----------------------------------------------------------------------- KL

def mc_kl(m, s, m0, n_samples=100_000, seed=0):
    """Monte-Carlo KL( N(m, diag(s^2)) || N(m0, I) ) with a standard error."""
    rng = np.random.default_rng(seed)
    x = m + s * rng.standard_normal((n_samples, len(m)))
    log_q = (-0.5 * ((x - m) / s) ** 2 - np.log(s)).sum(axis=1)
    log_p = (-0.5 * (x - m0) ** 2).sum(axis=1)
    diff = log_q - log_p
    return diff.mean(), diff.std(ddof=1) / np.sqrt(n_samples)


def test_kl_zero_for_identical_gaussians():
    stats = model.VariationalStats(mean=np.array([0.3, -1.0]),
                                   log_std=np.zeros(2))
    assert abs(model.kl_to_prior(stats, np.array([0.3, -1.0]))) < 1e-12


def test_kl_analytic_single_dimension():
    stats = model.VariationalStats(mean=np.array([1.0]), log_std=np.array([0.0]))
    assert abs(model.kl_to_prior(stats, np.zeros(1)) - 0.5) < 1e-12


def test_kl_matches_monte_carlo():
    rng = np.random.default_rng(10)
    for trial in range(5):
        t = int(rng.integers(1, 6))
        m = rng.normal(size=t)
        log_s = rng.normal(scale=0.5, size=t)
        m0 = rng.normal(size=t)
        analytic = model.kl_to_prior(model.VariationalStats(m, log_s), m0)
        est, se = mc_kl(m, np.exp(log_s), m0, seed=trial)
        assert abs(analytic - est) < 3 * se


def test_kl_nonnegative_property():
    rng = np.random.default_rng(11)
    for _ in range(200):
        t = int(rng.integers(1, 8))
        stats = model.VariationalStats(rng.normal(size=t),
                                       rng.normal(scale=1.0, size=t))
        assert model.kl_to_prior(stats, rng.normal(size=t)) >= -1e-12


def test_kl_decreases_as_mean_approaches_modified_prior():
    p = modified_params()
    d = 0
    m0 = oracles.prior_mean(p, d)
    lam = m0.max()
    j = int(m0.argmax())
    values = []
    for frac in (0.0, 0.5, 1.0):
        m = np.zeros(p.n_topics)
        m[j] = frac * lam
        values.append(model.kl_to_prior(model.VariationalStats(m, np.zeros(p.n_topics)), m0))
    assert values[0] > values[1] > values[2]


# ------------------------------------------------------------ log-likelihood

def test_doc_log_likelihood_single_topic():
    p = etm_params(n_topics=1, seed=6)
    doc = Document(tokens=[2, 5, 5])
    log_beta = model.log_topic_word_matrix(p)
    expected = log_beta[0, 2] + 2 * log_beta[0, 5]
    for x in (np.array([0.0]), np.array([4.2])):
        assert abs(oracles.doc_log_likelihood(p, doc, x) - expected) < 1e-12


def test_doc_log_likelihood_uniform_topics():
    p = etm_params(n_vocab=10)
    p.arrays["topic_emb"][:] = 0.0
    doc = Document(tokens=[1, 2, 3, 4])
    value = oracles.doc_log_likelihood(p, doc, np.array([0.5, -1.0, 2.0]))
    assert abs(value - 4 * np.log(0.1)) < 1e-12


def test_doc_log_likelihood_hand_mixture():
    # T=2, V=2, x=(0,0) -> theta=(1/2,1/2); mixture per word is the mean column
    p = etm_params(n_vocab=2, n_topics=2, emb_dim=1)
    beta = np.array([[0.9, 0.1], [0.2, 0.8]])
    log_beta = np.log(beta)
    doc = Document(tokens=[0, 1])
    expected = np.log(0.5 * 0.9 + 0.5 * 0.2) + np.log(0.5 * 0.1 + 0.5 * 0.8)
    value = oracles.doc_log_likelihood(p, doc, np.zeros(2), log_beta=log_beta)
    assert abs(value - expected) < 1e-12


# -------------------------------------------------------------------- ELBO

def test_elbo_equal_documents_equal_terms():
    p = etm_params(seed=7)
    a = Document(tokens=[1, 4, 4, 9])
    b = Document(tokens=[4, 1, 9, 4])  # same bag of words
    # identical content and noise draw give identical per-document terms
    assert abs(model.elbo_minibatch(p, [a], [0], seed=13)
               - model.elbo_minibatch(p, [b], [0], seed=13)) < 1e-12


def test_elbo_value_agrees_with_per_document_computation():
    p = modified_params(seed=8)
    docs = random_docs(n_docs=5, seed=3)
    seed = 21
    total = model.elbo_minibatch(p, docs, range(5), seed=seed)
    eps = np.random.default_rng(seed).standard_normal((5, p.n_topics))
    log_beta = model.log_topic_word_matrix(p)
    manual = 0.0
    for j, doc in enumerate(docs):
        stats = model.encode(p, doc)
        x = stats.mean + np.exp(stats.log_std) * eps[j]
        manual += oracles.doc_log_likelihood(p, doc, x, log_beta)
        manual -= model.kl_to_prior(stats, oracles.prior_mean(p, j))
    assert abs(total - manual) < 1e-8


def test_elbo_and_grad_value_matches_elbo_minibatch():
    p = modified_params(seed=9)
    docs = random_docs(n_docs=4, seed=5)
    full = model.elbo_minibatch(p, docs, range(4), seed=17)
    kl = sum(model.kl_to_prior(model.encode(p, doc), oracles.prior_mean(p, j))
             for j, doc in enumerate(docs))
    for klw in (1.0, 0.3):
        value, _ = model.elbo_and_grad(p, docs, range(4), seed=17, kl_weight=klw)
        assert abs(value - (full + (1.0 - klw) * kl)) < 1e-8


# ---------------------------------------------------------------- gradients

def fd_check(params, docs, n_coords=40, seed=19, kl_weight=1.0, h=1e-5):
    ids = list(range(len(docs)))
    _, grads = model.elbo_and_grad(params, docs, ids, seed=seed, kl_weight=kl_weight)
    blocks = model.trainable_blocks(params)
    rng = np.random.default_rng(23)
    worst = 0.0
    per_block = max(1, n_coords // len(blocks))
    for name, arr in blocks.items():
        flat = arr.ravel()
        for i in rng.choice(flat.size, size=min(per_block, flat.size), replace=False):
            old = flat[i]
            flat[i] = old + h
            fp = model.elbo_and_grad(params, docs, ids, seed=seed, kl_weight=kl_weight)[0]
            flat[i] = old - h
            fm = model.elbo_and_grad(params, docs, ids, seed=seed, kl_weight=kl_weight)[0]
            flat[i] = old
            worst = max(worst, rel_err((fp - fm) / (2 * h), grads[name].ravel()[i]))
    return worst


def test_grad_elbo_finite_differences_etm():
    assert fd_check(etm_params(seed=12), random_docs(seed=7)) < 1e-4


def test_grad_elbo_finite_differences_modified():
    assert fd_check(modified_params(seed=12), random_docs(seed=8)) < 1e-4


def test_grad_elbo_finite_differences_annealed():
    assert fd_check(modified_params(seed=13), random_docs(seed=9),
                    kl_weight=0.4) < 1e-4


def test_grad_elbo_frozen_word_embeddings():
    p = etm_params(seed=14, freeze=True)
    _, grads = model.elbo_and_grad(p, random_docs(seed=10), range(5), seed=3)
    assert "word_emb" not in grads


def test_grad_log_lambda_closed_form():
    p = modified_params(seed=15)
    docs = random_docs(seed=11)
    seed = 29
    _, grads = model.elbo_and_grad(p, docs, range(5), seed=seed)
    for d, doc in enumerate(docs):
        m = model.encode(p, doc).mean
        lam = np.exp(p.arrays["log_lambda"][d])
        expected = lam * (m[p.arrays["assignment"][d]] - lam)
        assert abs(grads["log_lambda"][d] - expected) < 1e-10


def test_elbo_and_grad_finite_with_unseen_zero_frequency_word():
    # word 0 has g0 = 0 and occurs in no document: log p(0|t) = -inf, which the
    # likelihood must never multiply by a zero count
    p = modified_params(n_vocab=6, seed=16)
    g0 = np.array([0.0, 0.3, 0.2, 0.2, 0.2, 0.1])
    with np.errstate(divide="ignore"):
        p.arrays["log_g0"] = np.log(g0)
    docs = [Document(tokens=[1, 2, 2, 5]), Document(tokens=[3, 4, 1])]
    value, grads = model.elbo_and_grad(p, docs, [0, 1], seed=4)
    assert np.isfinite(value)
    assert value == model.elbo_minibatch(p, docs, [0, 1], seed=4)
    for name, g in grads.items():
        assert np.isfinite(g).all(), name


def perturbed(params, seed):
    """`params` with every trainable block moved off its initial draw (biases off zero)."""
    rng = np.random.default_rng(seed)
    for block in model.trainable_blocks(params).values():
        block += rng.normal(scale=0.5, size=block.shape)
    return params


def test_logsumexp_matches_scipy():
    rng = np.random.default_rng(35)
    cases = [rng.normal(scale=5.0, size=(50, 20)),
             np.where(rng.random((50, 20)) < 0.3, -np.inf, rng.normal(size=(50, 20))),
             np.array([[0.0, -40.0, -80.0, -745.0], [1e3, 0.0, -1e3, 0.0]]),
             rng.uniform(-710.0, -690.0, size=(20, 8)), rng.uniform(690.0, 710.0, size=(20, 8))]
    for a in cases:
        got, want = model._logsumexp(a), scipy.special.logsumexp(a, axis=1)
        assert np.all(np.abs(got - want) <= 1e-13 * np.maximum(1.0, np.abs(want)))


def test_softplus_and_sigmoid_match_logaddexp_and_expit():
    # softplus within 4 ulps (2 seen), allowing for either side's exp and log1p. The
    # sigmoid is exp(a - softplus(a)), so the rounding of that difference, half an ulp of
    # max(1, |a|), adds to its relative error.
    special = [0.0, 1e-300, 1.0, 20.0, 36.7, 40.0, 700.0]
    grid = np.concatenate([special, np.negative(special), np.linspace(-700.0, 700.0, 200001),
                           np.random.default_rng(36).uniform(-40.0, 40.0, 100000)])
    sigmoid = grid.copy()
    softplus = model._softplus_and_sigmoid(sigmoid)
    want = np.logaddexp(0.0, grid)
    assert np.all(np.abs(softplus - want) <= 4 * np.spacing(want))
    want = scipy.special.expit(grid)
    assert np.all(np.abs(sigmoid - want)
                  <= 2 * want * np.spacing(np.maximum(1.0, np.abs(grid))) + 4 * np.spacing(want))


@pytest.mark.parametrize("kl_weight", [0.5, 1.0])
@pytest.mark.parametrize("freeze", [False, True])
@pytest.mark.parametrize("kind", ["etm", "modified"])
def test_elbo_and_grad_bit_identical_to_reference(kind, freeze, kl_weight):
    # the in-place forward and backward pass against the one it replaced
    shape = dict(n_vocab=90, n_topics=6, emb_dim=8, hidden=48, n_docs=40, seed=31)
    p = etm_params(**shape) if kind == "etm" else modified_params(**shape)
    p = perturbed(dataclasses.replace(p, freeze_word_emb=freeze), seed=32)
    docs = random_docs(n_docs=40, n_vocab=90, seed=33)
    ids = np.arange(40)[::-1]
    value, grads = model.elbo_and_grad(p, docs, ids, seed=34, kl_weight=kl_weight)
    ref_value, ref_grads = reference_elbo_and_grad(p, docs, ids, seed=34, kl_weight=kl_weight)
    assert np.float64(value).tobytes() == np.float64(ref_value).tobytes()
    assert list(grads) == list(ref_grads) == list(model.trainable_blocks(p))
    for name, g in grads.items():
        assert g.dtype == ref_grads[name].dtype and g.shape == ref_grads[name].shape, name
        assert g.tobytes() == ref_grads[name].tobytes(), name
    ref_full = reference_elbo_and_grad(p, docs, ids, seed=34, kl_weight=1.0)[0]
    assert model.elbo_minibatch(p, docs, ids, seed=34) == ref_full


def test_elbo_and_grad_peak_memory_holds_few_hidden_layer_arrays():
    # A (batch, hidden) array is 0.64 MB here and the gradients take 2.35 MB. The backward
    # pass needs the four hidden-layer arrays s1, z1, s2, z2 of the forward pass, and frees
    # each at its last use. Measured over the gradient bytes: 9.6 arrays when every forward
    # value lived until the backward pass returned, 3.3 with the activations freed.
    rng = np.random.default_rng(40)
    n_vocab, hidden, n_docs = 300, 400, 200
    p = etm_params(n_vocab=n_vocab, n_topics=10, emb_dim=16, hidden=hidden, n_docs=n_docs)
    docs = [Document(tokens=rng.integers(0, n_vocab, size=rng.integers(20, 60)).tolist())
            for _ in range(n_docs)]
    tracemalloc.start()
    try:
        _, grads = model.elbo_and_grad(p, docs, range(n_docs), seed=41)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    layer = n_docs * hidden * 8
    assert peak <= sum(g.nbytes for g in grads.values()) + 5 * layer


# ---------------------------------------------------------------- top words

def test_top_words_full_vocabulary_sorted():
    p = etm_params(seed=16)
    topic_word = np.exp(model.log_topic_word_matrix(p))
    pairs = metrics.top_words_from_matrix(topic_word, p.n_vocab)[0]
    probs = [pr for _, pr in pairs]
    assert probs == sorted(probs, reverse=True)
    assert sorted(w for w, _ in pairs) == list(range(p.n_vocab))


def test_top_words_tie_break_by_id():
    p = etm_params()
    p.arrays["topic_emb"][0] = 0.0  # uniform distribution
    topic_word = np.exp(model.log_topic_word_matrix(p))
    pairs = metrics.top_words_from_matrix(topic_word, 4)[0]
    assert [w for w, _ in pairs] == [0, 1, 2, 3]


def test_top_words_hand_sorted():
    pairs = metrics.top_words_from_matrix(np.array([[0.4, 0.3, 0.2, 0.1]]), 2)[0]
    assert [w for w, _ in pairs] == [0, 1]
    assert np.allclose([pr for _, pr in pairs], [0.4, 0.3], atol=1e-12)


# ---------------------------------------------------------------- checkpoint

def test_checkpoint_roundtrip_and_byte_identity(tmp_path):
    for p in (etm_params(seed=20), modified_params(seed=20)):
        a = tmp_path / f"{p.kind}_a.ckpt"
        b = tmp_path / f"{p.kind}_b.ckpt"
        model.save_checkpoint(p, a)
        model.save_checkpoint(p, b)
        assert a.read_bytes() == b.read_bytes()
        back, meta = model.load_checkpoint(a)
        assert back.kind == p.kind
        for name, arr in model.trainable_blocks(p).items():
            assert np.array_equal(model.trainable_blocks(back)[name], arr)
        model.save_checkpoint(back, b)
        assert b.read_bytes() == a.read_bytes()


def _hand_built_checkpoint(p):
    """Checkpoint bytes of ETM parameters, written without `save_checkpoint`: every
    array C-ordered after the header, with the encoder's W1 as (hidden, #V)."""
    arrays = {"word_emb": p.arrays["word_emb"],
              **{k: v for k, v in p.arrays.items() if k.startswith("enc.")},
              "topic_emb": p.arrays["topic_emb"]}
    arrays["enc.W1"] = np.ascontiguousarray(p.arrays["enc.W1"].T)
    header = json.dumps({
        "format": "clustertm-ckpt-v1", "kind": "etm", "n_topics": p.n_topics,
        "emb_dim": p.emb_dim, "freeze_word_emb": False,
        "arrays": [{"name": k, "shape": list(v.shape), "dtype": "float64"}
                   for k, v in arrays.items()]}, sort_keys=True).encode("utf-8")
    return struct.pack("<Q", len(header)) + header + b"".join(v.tobytes() for v in arrays.values())


def test_checkpoint_stores_encoder_first_layer_as_hidden_by_vocab(tmp_path):
    p = etm_params(n_vocab=20, hidden=5, seed=24)
    path = tmp_path / "hand.ckpt"
    path.write_bytes(_hand_built_checkpoint(p))
    back, meta = model.load_checkpoint(path)
    assert {"name": "enc.W1", "shape": [5, 20], "dtype": "float64"} in meta["arrays"]
    assert back.arrays["enc.W1"].flags.c_contiguous
    assert np.array_equal(back.arrays["enc.W1"], p.arrays["enc.W1"])
    doc = Document(tokens=[0, 4, 4, 19])
    assert np.array_equal(model.encode(back, doc).mean, model.encode(p, doc).mean)
    saved = tmp_path / "saved.ckpt"
    model.save_checkpoint(back, saved)
    assert saved.read_bytes() == path.read_bytes()


def _damaged_checkpoints(path):
    """A saved checkpoint cut or garbled in each part of its layout."""
    data = path.read_bytes()
    (hlen,) = struct.unpack_from("<Q", data)
    header = json.loads(data[8 : 8 + hlen])
    no_arrays = json.dumps({**header, "arrays": []}).encode("utf-8")
    return {
        "one byte short": data[:-1],
        "cut inside the header": data[: 8 + hlen // 2],
        "short length prefix": data[:5],
        "garbled header": data[:8] + b"x" + data[9:],
        "missing array": struct.pack("<Q", len(no_arrays)) + no_arrays,
    }


def test_load_checkpoint_rejects_damaged_file(tmp_path):
    good = tmp_path / "good.ckpt"
    model.save_checkpoint(modified_params(seed=21), good)
    for what, blob in _damaged_checkpoints(good).items():
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(blob)
        with pytest.raises(model.ModelError) as err:
            model.load_checkpoint(bad)
        assert str(bad) in str(err.value), what
        assert "\n" not in str(err.value), what


def _rewritten_checkpoint(p, path, kind=None, drop=(), extra=None, replace=None):
    """`p` saved to `path`, then written again by hand with the header kind `kind`, without
    the arrays named in `drop`, with the arrays in `replace` in place of those of the same
    name and with the arrays in `extra` appended."""
    model.save_checkpoint(p, path)
    data = path.read_bytes()
    (hlen,) = struct.unpack_from("<Q", data)
    header = json.loads(data[8 : 8 + hlen])
    specs, chunks, offset = [], [], 8 + hlen
    for spec in header["arrays"]:
        size = 8 * int(np.prod(spec["shape"]))  # float64 and int64 alike
        if spec["name"] in (replace or {}):
            arr = replace[spec["name"]]
            specs.append({**spec, "shape": list(arr.shape)})
            chunks.append(arr.tobytes())
        elif spec["name"] not in drop:
            specs.append(spec)
            chunks.append(data[offset : offset + size])
        offset += size
    for name, arr in (extra or {}).items():
        specs.append({"name": name, "shape": list(arr.shape), "dtype": "float64"})
        chunks.append(arr.tobytes())
    header = json.dumps({**header, "kind": kind or header["kind"], "arrays": specs},
                        sort_keys=True).encode("utf-8")
    path.write_bytes(struct.pack("<Q", len(header)) + header + b"".join(chunks))


@pytest.mark.parametrize("params, edit, message", [
    (etm_params, dict(kind="lda"), "unknown model kind 'lda'"),
    (etm_params, dict(drop=("topic_emb",)), "missing ['topic_emb']"),
    (modified_params, dict(drop=("xi.W1",)), "missing ['xi.W1']"),
    (etm_params, dict(extra={"enc.W3": np.ones((5, 5))}), "unexpected ['enc.W3']"),
    # the sizes come from word_emb, enc.b1, log_lambda, centres and the header; every other
    # array must have its shape in them
    (etm_params, dict(replace={"topic_emb": np.ones((4, 3))}),
     "array 'topic_emb' has shape [4, 3], expected [3, 4]"),
    (modified_params, dict(replace={"centres": np.ones((3, 5))}),
     "array 'xi.W1' has shape [4, 4], expected [4, 5]"),
    (modified_params, dict(replace={"log_lambda": np.ones(6)}),
     "array 'assignment' has shape [5], expected [6]"),
], ids=["kind lda", "etm without topic_emb", "modified without xi.W1", "etm with an extra array",
        "transposed topic_emb", "centres wider than xi.W1", "log_lambda longer than assignment"])
def test_load_checkpoint_rejects_another_kind_or_other_arrays(tmp_path, params, edit, message):
    path = tmp_path / "edited.ckpt"
    _rewritten_checkpoint(params(seed=23), path, **edit)
    with pytest.raises(model.ModelError) as err:
        model.load_checkpoint(path)
    assert str(err.value).startswith(f"{path}: ") and "\n" not in str(err.value)
    assert message in str(err.value)


def test_checkpoint_header_with_cluster_hash_still_loads(tmp_path):
    """Older checkpoints carry a `cluster_hash` header key; it is read past."""
    path = tmp_path / "new.ckpt"
    p = modified_params(seed=22)
    model.save_checkpoint(p, path)
    data = path.read_bytes()
    (hlen,) = struct.unpack_from("<Q", data)
    header = json.loads(data[8 : 8 + hlen])
    assert "cluster_hash" not in header
    old = json.dumps({**header, "cluster_hash": "ab" * 32}, sort_keys=True).encode("utf-8")
    old_path = tmp_path / "old.ckpt"
    old_path.write_bytes(struct.pack("<Q", len(old)) + old + data[8 + hlen:])
    back, meta = model.load_checkpoint(old_path)
    assert meta["cluster_hash"] == "ab" * 32
    for name, arr in model.trainable_blocks(p).items():
        assert np.array_equal(model.trainable_blocks(back)[name], arr)
