import tracemalloc

import numpy as np
import pytest

from clustertm import sgns
from clustertm.sgns import (EmbeddingMatrix, SgnsConfig, SgnsError,
                            load_embeddings, pretrain, save_embeddings)
from conftest import make_corpus, rel_err
from oracles import sgns_loss_and_grad


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


def test_saved_embeddings_are_byte_equal_to_the_per_scalar_formatter(tmp_path):
    # the file must not change under a faster formatter: manifests hash it
    rng = np.random.default_rng(3)
    vectors = rng.normal(scale=10.0 ** rng.integers(-20, 20, size=(5, 6)))
    vectors[0, :] = [-0.0, 0.0, 1e-300, 5e-324, 2.2250738585072014e-308, -1.7976931348623157e308]
    vectors[1, :] = [0.1, 1 / 3, -2.5e-5, 1e16, 123456789.0, -1e-7]
    emb = EmbeddingMatrix(vectors, ["a", "b", "c", "d", "e"])
    path = tmp_path / "emb.txt"
    save_embeddings(emb, path)
    lines = ["5 6"] + [w + " " + " ".join(repr(float(x)) for x in row)
                       for w, row in zip(emb.words, vectors)]
    assert path.read_bytes() == ("\n".join(lines) + "\n").encode("utf-8")
    back = load_embeddings(path)
    assert back.words == emb.words and back.vectors.tobytes() == vectors.tobytes()


@pytest.mark.parametrize("text", ["", "2\n", "2 2\na 0.5 x\nb 1.0 2.0\n",
                                  "2 2\na 0.5\nb 1.0 2.0\n", "3 2\na 1 2\n"])
def test_load_embeddings_rejects_malformed_file(tmp_path, text):
    path = tmp_path / "emb.txt"
    path.write_text(text, "utf-8")
    with pytest.raises(SgnsError, match=str(path)):
        load_embeddings(path)


def test_load_embeddings_rejects_non_finite_values(tmp_path):
    path = tmp_path / "emb.txt"
    for bad in ("nan", "inf", "-inf"):
        path.write_text(f"2 2\na 0.5 {bad}\nb 1.0 2.0\n", "utf-8")
        with pytest.raises(SgnsError, match="NaN or infinite"):
            load_embeddings(path)


def test_learning_rate_decays_to_lr_min_under_subsampling(monkeypatch):
    # The batched step receives each pair's rate, in pair order; the recording
    # stand-in applies no update. The schedule runs over every token read;
    # counting only subsampling survivors (about one in ten here) leaves the
    # last rate near 0.9 * LR0.
    rates = []

    def recording_pair_step(w_in, w_out, centres, outputs, lr):
        rates.extend(lr)
        return 0.0

    monkeypatch.setattr(sgns, "_pair_step", recording_pair_step)
    corpus = make_corpus([[0] * 200 for _ in range(50)], words=["a"])
    config = SgnsConfig(epochs=1, subsample=0.01)
    pretrain(corpus, 2, config, seed=0)
    assert abs(rates[-1] - sgns.LR_MIN) < 0.1 * sgns.LR_MIN


def test_pair_step_matches_summed_per_pair_gradients():
    rng = np.random.default_rng(5)
    w_in = rng.normal(0, 0.5, size=(7, 4))
    w_out = rng.normal(0, 0.5, size=(7, 4))
    centres = np.array([0, 2, 0, 5, 6, 2])
    # context then negatives: repeated negatives, a context that is also a
    # negative, and rows shared across pairs
    outputs = np.array([[1, 3, 3, 4], [0, 3, 6, 6], [2, 2, 1, 0],
                        [5, 0, 1, 2], [0, 3, 3, 3], [4, 1, 5, 4]])
    lr = rng.uniform(0.1, 2.0, size=len(centres))
    want_loss, want_in, want_out = 0.0, np.zeros_like(w_in), np.zeros_like(w_out)
    for c, (ctx, *negs), rate in zip(centres, outputs.tolist(), lr):
        loss, g_u, g_out = sgns_loss_and_grad(int(c), ctx, negs, w_in, w_out)
        want_loss += loss
        want_in[c] += rate * g_u
        for row, g in g_out.items():
            want_out[row] += rate * g
    new_in, new_out = w_in.copy(), w_out.copy()
    loss = sgns._pair_step(new_in, new_out, centres, outputs, lr)
    assert abs(loss - want_loss) < 1e-12
    assert np.abs((w_in - new_in) - want_in).max() < 1e-12
    assert np.abs((w_out - new_out) - want_out).max() < 1e-12


def test_pretrain_same_seed_byte_identical():
    rng = np.random.default_rng(8)
    docs = [[int(x) for x in rng.integers(0, 15, size=n)] for n in (3, 40, 600)]
    corpus = make_corpus(docs)
    # without subsampling, the 600-token document spans dozens of batches
    for config in (SgnsConfig(epochs=2), SgnsConfig(epochs=2, subsample=0.0)):
        runs = [pretrain(corpus, 5, config, seed=9).vectors for _ in range(2)]
        assert runs[0].tobytes() == runs[1].tobytes()


def test_pretrain_peak_memory_bounded_on_long_document():
    # Unblocked, one (pairs, 1+K, dim) gather of these 20k tokens would be ~370 MB;
    # the bound is a few batches' worth, whatever the document length.
    dim, config = 64, SgnsConfig(epochs=1, subsample=0.0)
    corpus = make_corpus([[int(x) for x in np.random.default_rng(1).integers(0, 2000, size=20_000)]])
    tracemalloc.start()
    try:
        pretrain(corpus, dim, config, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 * sgns.MAX_SLOTS * dim * 8


def test_pretrain_stays_finite_on_long_documents_over_few_words():
    # Without subsampling, every slot of a batch is one of two rows. Batches cut by
    # MAX_SLOTS alone (68 positions, ~2000 slots per row) diverged to 1e99 here.
    corpus = make_corpus([[0, 1] * 100 for _ in range(20)], words=["a", "b"])
    report = []
    emb = pretrain(corpus, 8, SgnsConfig(epochs=2, subsample=0.0), seed=0, report=report)
    assert np.isfinite(report).all()
    assert np.abs(emb.vectors).max() < 5


@pytest.mark.parametrize("field, value", [("window", 0), ("negatives", -1), ("epochs", -1),
                                          ("subsample", -1e-4), ("subsample", float("nan")),
                                          ("subsample", float("inf"))])
def test_config_rejects_out_of_range_values(field, value):
    with pytest.raises(SgnsError) as err:
        SgnsConfig(**{field: value})
    assert field in str(err.value) and "\n" not in str(err.value)
