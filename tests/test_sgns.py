import numpy as np
import pytest

from clustertm import sgns
from clustertm.sgns import (EmbeddingMatrix, SgnsConfig, SgnsError,
                            load_embeddings, pretrain, save_embeddings,
                            sgns_loss_and_grad)
from conftest import make_corpus, rel_err


def test_all_zero_vectors_loss_is_1_plus_k_log2():
    w_in = np.zeros((4, 3))
    w_out = np.zeros((4, 3))
    for negatives in ([], [2], [2, 3, 2, 3, 2]):
        loss, _, _ = sgns_loss_and_grad(0, 1, negatives, w_in, w_out)
        assert abs(loss - (1 + len(negatives)) * np.log(2)) < 1e-12


def test_large_dot_product_no_negatives_loss_tends_to_zero():
    w_in = np.array([[30.0], [30.0]])
    w_out = np.array([[30.0], [30.0]])
    loss, _, _ = sgns_loss_and_grad(0, 1, [], w_in, w_out)
    assert 0 <= loss < 1e-10


def test_invalid_word_id_rejected():
    w = np.zeros((3, 2))
    with pytest.raises(SgnsError):
        sgns_loss_and_grad(0, 5, [], w, w)


def test_loss_gradient_matches_finite_differences():
    rng = np.random.default_rng(11)
    w_in = rng.normal(0, 0.5, size=(8, 4))
    w_out = rng.normal(0, 0.5, size=(8, 4))
    center, context, negatives = 0, 1, [2, 3, 3]
    loss, g_u, g_out = sgns_loss_and_grad(center, context, negatives, w_in, w_out)
    h = 1e-6
    checked = 0
    for i in range(4):  # center row
        w_in[center, i] += h
        fp = sgns_loss_and_grad(center, context, negatives, w_in, w_out)[0]
        w_in[center, i] -= 2 * h
        fm = sgns_loss_and_grad(center, context, negatives, w_in, w_out)[0]
        w_in[center, i] += h
        assert rel_err((fp - fm) / (2 * h), g_u[i]) < 1e-5
        checked += 1
    for row, grad in g_out.items():
        for i in range(4):
            w_out[row, i] += h
            fp = sgns_loss_and_grad(center, context, negatives, w_in, w_out)[0]
            w_out[row, i] -= 2 * h
            fm = sgns_loss_and_grad(center, context, negatives, w_in, w_out)[0]
            w_out[row, i] += h
            assert rel_err((fp - fm) / (2 * h), grad[i]) < 1e-5
            checked += 1
    assert checked >= 16


def test_pretrain_rejects_bad_config():
    corpus = make_corpus([[0, 1]])
    with pytest.raises(SgnsError):
        pretrain(corpus, 0)


def test_pretrain_output_shape_and_finite():
    corpus = make_corpus([[0, 1, 2, 0, 1], [2, 1, 0]])
    emb = pretrain(corpus, 7, SgnsConfig(epochs=2), seed=3)
    assert emb.vectors.shape == (3, 7)
    assert np.isfinite(emb.vectors).all()


def test_pretrain_single_token_doc_keeps_initialization():
    corpus = make_corpus([[0]], words=["a", "b"])
    emb = pretrain(corpus, 4, SgnsConfig(epochs=3, subsample=0.0), seed=5)
    # no context pairs exist, so no update can have been applied
    assert (np.abs(emb.vectors) <= 0.5 / 4 + 1e-12).all()


def test_shared_context_words_end_up_closer():
    # p and q always appear with the same context word x; r only with y
    docs = [[0, 3]] * 200 + [[1, 3]] * 200 + [[2, 4]] * 200
    corpus = make_corpus(docs, words=["p", "q", "r", "x", "y"])
    emb = pretrain(corpus, 8, SgnsConfig(epochs=5, subsample=0.0), seed=1)

    def cos(a, b):
        return float(a @ b / (np.linalg.norm(a) * np.linalg.norm(b)))

    v = emb.vectors
    assert cos(v[0], v[1]) > cos(v[0], v[2])


def test_epoch_loss_non_increasing():
    rng = np.random.default_rng(2)
    docs = [[int(x) for x in rng.integers(0, 12, size=30)] for _ in range(60)]
    corpus = make_corpus(docs)
    report = []
    pretrain(corpus, 6, SgnsConfig(epochs=4, subsample=0.0), seed=4, report=report)
    assert len(report) == 4
    assert report[-1] <= report[0] * 1.01


def test_embeddings_roundtrip(tmp_path):
    emb = EmbeddingMatrix(vectors=np.random.default_rng(0).normal(size=(4, 3)),
                          words=["a", "b", "c", "d"])
    path = tmp_path / "emb.txt"
    save_embeddings(emb, path)
    back = load_embeddings(path)
    assert back.words == emb.words
    assert np.abs(back.vectors - emb.vectors).max() < 1e-6


def test_learning_rate_decays_to_lr_min_under_subsampling(monkeypatch):
    # A unit gradient makes each step move w_in[center] by exactly -lr, so the
    # last step size is read off the input vector. The schedule runs over
    # every token read; counting only subsampling survivors (about one in
    # ten here) leaves the last step near 0.9 * lr0.
    seen = []

    def unit_gradient(center, context, negatives, w_in, w_out):
        seen.append(w_in[center, 0])
        return 0.0, np.ones(w_in.shape[1]), {}

    monkeypatch.setattr(sgns, "sgns_loss_and_grad", unit_gradient)
    corpus = make_corpus([[0] * 200 for _ in range(50)], words=["a"])
    config = SgnsConfig(epochs=1, subsample=0.01)
    emb = pretrain(corpus, 2, config, seed=0)
    last_lr = seen[-1] - emb.vectors[0, 0]
    assert abs(last_lr - config.lr_min) < 0.1 * config.lr_min
