import builtins
import io
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse

from clustertm import metrics, model, training
from clustertm.cluster import cluster_corpus
from clustertm.corpus import Document
from clustertm.lda_baseline import fit_lda, lda_topic_word
from clustertm.sgns import EmbeddingMatrix, SgnsError
from clustertm.training import Adam, TrainConfig, TrainingError, fit
from conftest import make_corpus, make_planted


def small_corpus(seed=0, n_docs=30, n_vocab=25):
    rng = np.random.default_rng(seed)
    return make_corpus([[int(x) for x in rng.integers(0, n_vocab,
                                                      size=rng.integers(8, 20))]
                        for _ in range(n_docs)])


def small_config(**overrides):
    base = dict(model_kind="etm", n_topics=3, emb_dim=8, hidden=16, epochs=5,
                batch_size=16, learning_rate=1e-3, seed=1)
    base.update(overrides)
    return TrainConfig(**base)


@pytest.mark.parametrize("field, value", [
    ("n_topics", 0), ("emb_dim", 0), ("hidden", 0), ("kl_anneal_epochs", -5),
    ("learning_rate", float("nan")), ("learning_rate", float("inf")),
    ("n_topics", 2.5), ("emb_dim", True), ("hidden", "8"), ("epochs", 1.5), ("batch_size", 16.0),
    ("kl_anneal_epochs", 1.5), ("seed", -1), ("seed", 1.5), ("seed", True),
    ("learning_rate", "0.1"), ("learning_rate", True),
    ("freeze_word_emb", "false"), ("freeze_word_emb", 0)])
def test_config_rejects_out_of_range_values(field, value):
    with pytest.raises(TrainingError) as err:
        small_config(**{field: value})
    assert f"{field} must be" in str(err.value) and "\n" not in str(err.value)


def test_config_accepts_numpy_scalars():
    config = small_config(n_topics=np.int64(3), seed=np.int32(2), kl_anneal_epochs=np.uint8(0),
                          learning_rate=np.float32(1e-3), freeze_word_emb=np.bool_(True))
    assert config.n_topics == 3 and config.freeze_word_emb


def test_config_validation():
    with pytest.raises(TrainingError):
        small_config(epochs=0)
    with pytest.raises(TrainingError):
        small_config(batch_size=0)
    with pytest.raises(TrainingError):
        small_config(learning_rate=0.0)
    with pytest.raises(TrainingError):
        small_config(model_kind="lsa")


def test_modified_requires_clusters():
    with pytest.raises(TrainingError):
        fit(small_corpus(), None, small_config(model_kind="modified"))


def test_modified_fit_gives_unused_words_zero_probability_without_warnings():
    corpus, _ = make_planted(1, n_docs=64)
    unused = corpus.g0 == 0
    assert unused.any()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        params, _ = fit(corpus, cluster_corpus(corpus, 3, seed=0),
                        small_config(model_kind="modified", epochs=1))
    beta = np.exp(model.log_topic_word_matrix(params))
    assert np.all(beta[:, unused] == 0.0)
    assert np.all(beta[:, ~unused] > 0.0)


def test_fit_returns_one_elbo_per_epoch_and_improves():
    corpus = small_corpus()
    params, report = fit(corpus, None, small_config(epochs=30, learning_rate=5e-3))
    assert len(report.epoch_elbo) == 30
    assert report.epoch_elbo[-1] > report.epoch_elbo[0]
    assert params.kind == "etm"


def test_fit_deterministic_checkpoints(tmp_path):
    corpus = small_corpus()
    cl = cluster_corpus(corpus, 3, seed=0)
    paths = []
    for name in ("a", "b"):
        path = tmp_path / f"{name}.ckpt"
        params, _ = fit(corpus, cl, small_config(model_kind="modified"))
        model.save_checkpoint(params, path)
        paths.append(path)
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_fit_different_seeds_differ(tmp_path):
    corpus = small_corpus()
    a = tmp_path / "a.ckpt"
    b = tmp_path / "b.ckpt"
    model.save_checkpoint(fit(corpus, None, small_config(seed=1))[0], a)
    model.save_checkpoint(fit(corpus, None, small_config(seed=2))[0], b)
    assert a.read_bytes() != b.read_bytes()


def test_pretrained_embedding_mismatch_rejected():
    corpus = small_corpus()
    emb = EmbeddingMatrix(np.zeros((corpus.vocab_size, 8)), list(corpus.vocabulary.words))
    with pytest.raises(TrainingError):
        fit(corpus, None, small_config(emb_dim=16), embeddings=emb)
    bad_vocab = EmbeddingMatrix(np.zeros((2, 8)), ["x", "y"])
    with pytest.raises(SgnsError, match="vocabulary"):
        fit(corpus, None, small_config(emb_dim=8), embeddings=bad_vocab)


def test_fit_fit_lda_and_evaluate_topics_open_no_file(monkeypatch):
    corpus = small_corpus()
    cl = cluster_corpus(corpus, 2, seed=0)
    emb = EmbeddingMatrix(np.zeros((corpus.vocab_size, 6)), list(corpus.vocabulary.words))

    def refuse(*args, **kwargs):
        raise AssertionError("the training layer opened a file")

    monkeypatch.setattr(builtins, "open", refuse)
    monkeypatch.setattr(io, "open", refuse)
    for name in ("open", "read_text", "read_bytes", "write_text", "write_bytes"):
        monkeypatch.setattr(Path, name, refuse)
    shared = dict(n_topics=2, emb_dim=6, hidden=8, epochs=1, batch_size=16, seed=1)
    params, _ = fit(corpus, cl, TrainConfig(model_kind="modified", **shared), embeddings=emb)
    fit(corpus, None, TrainConfig(model_kind="etm", **shared))
    for topic_word in (np.exp(model.log_topic_word_matrix(params)),
                       lda_topic_word(fit_lda(corpus, 2, sweeps=2))):
        report = metrics.evaluate_topics(corpus, metrics.top_words_from_matrix(topic_word, 5), 5)
        assert np.isfinite(report.tc) and np.isfinite(report.wswf)


def zero_grads_like(blocks):
    return model.Gradients({k: np.zeros_like(v) for k, v in blocks.items()}, {})


def test_optimizer_zero_gradient_is_noop():
    params = model.init_params("etm", 10, 3, 4, 5, hidden=6, seed=0)
    blocks = model.trainable_blocks(params)
    before = {k: v.copy() for k, v in blocks.items()}
    Adam(1e-2).step(blocks, zero_grads_like(blocks), 1.0, ())
    for k in blocks:
        assert np.array_equal(blocks[k], before[k])


def reference_adam_step(opt, blocks, grads):
    """The out-of-place update, operation for operation: the bias corrections folded into
    the step size and epsilon (Kingma & Ba 2015, section 2)."""
    opt.t += 1
    c1, c2 = 1 - opt.beta1 ** opt.t, 1 - opt.beta2 ** opt.t
    step_size, eps_hat = opt.lr * np.sqrt(c2) / c1, opt.eps * np.sqrt(c2)
    for name, g in grads.items():
        m = opt.m.get(name, np.zeros_like(g))
        v = opt.v.get(name, np.zeros_like(g))
        opt.m[name] = opt.beta1 * m + (1 - opt.beta1) * g
        opt.v[name] = opt.beta2 * v + (1 - opt.beta2) * g * g
        blocks[name] += step_size * opt.m[name] / (np.sqrt(opt.v[name]) + eps_hat)


def test_adam_in_place_step_matches_reference_bit_for_bit():
    rng = np.random.default_rng(4)
    blocks = {"a": rng.normal(size=(30, 7)), "b": rng.normal(size=11)}
    ref_blocks = {k: v.copy() for k, v in blocks.items()}
    opt, ref = Adam(3e-3), Adam(3e-3)
    for _ in range(6):
        grads = {k: rng.normal(scale=10.0 ** rng.integers(-6, 3), size=v.shape)
                 for k, v in blocks.items()}
        opt.step(blocks, model.Gradients({k: g.copy() for k, g in grads.items()}, {}), 1.0, ())
        reference_adam_step(ref, ref_blocks, grads)
        for k in blocks:
            assert blocks[k].tobytes() == ref_blocks[k].tobytes()
            assert opt.m[k].tobytes() == ref.m[k].tobytes()
            assert opt.v[k].tobytes() == ref.v[k].tobytes()


def test_adam_step_matches_the_textbook_bias_corrected_form():
    # Algorithm 1 of Kingma & Ba (2015): lr * m_hat / (sqrt(v_hat) + eps). Each step is
    # taken from a zero block, so the block holds the step alone.
    rng = np.random.default_rng(10)
    opt = Adam(3e-3)
    m, v = np.zeros((40, 9)), np.zeros((40, 9))
    for t in range(1, 9):
        g = rng.normal(scale=10.0 ** rng.integers(-6, 3), size=m.shape)
        block = np.zeros_like(m)
        opt.step({"W": block}, model.Gradients({"W": g.copy()}, {}), 1.0, ())
        m = opt.beta1 * m + (1 - opt.beta1) * g
        v = opt.beta2 * v + (1 - opt.beta2) * g * g
        m_hat, v_hat = m / (1 - opt.beta1 ** t), v / (1 - opt.beta2 ** t)
        textbook = opt.lr * m_hat / (np.sqrt(v_hat) + opt.eps)
        assert np.all(np.abs(block - textbook) <= 1e-13 * np.abs(textbook))


def unchunked_adam_update(opt, block, g, m, v):
    """`Adam._update` before it ran in chunks: whole-array passes, same operation order."""
    tmp, den = np.empty_like(g), np.empty_like(g)
    c2 = 1 - opt.beta2 ** opt.t
    m *= opt.beta1
    m += np.multiply(g, 1 - opt.beta1, out=tmp)
    v *= opt.beta2
    np.multiply(g, 1 - opt.beta2, out=tmp)
    v += np.multiply(tmp, g, out=tmp)
    np.sqrt(v, out=den)
    den += opt.eps * np.sqrt(c2)
    np.multiply(m, opt.lr * np.sqrt(c2) / (1 - opt.beta1 ** opt.t), out=tmp)
    tmp /= den
    block += tmp


def test_chunked_adam_update_matches_unchunked_on_fortran_gradient():
    # more than two chunks, the last one partial, and a gradient in the other layout
    rng = np.random.default_rng(6)
    shape = (3, training.ADAM_CHUNK - 5)
    block = rng.normal(size=shape)
    ref_block, ref_m, ref_v = block.copy(), np.zeros(shape), np.zeros(shape)
    opt, ref = Adam(2e-3), Adam(2e-3)
    for _ in range(5):
        g = np.asfortranarray(rng.normal(scale=10.0 ** rng.integers(-6, 3), size=shape))
        opt.step({"W": block}, model.Gradients({"W": g}, {}), 1.0, ())
        ref.t += 1
        unchunked_adam_update(ref, ref_block, g, ref_m, ref_v)
        assert block.tobytes() == ref_block.tobytes()
        assert opt.m["W"].tobytes() == ref_m.tobytes()
        assert opt.v["W"].tobytes() == ref_v.tobytes()


def test_adam_clip_scale_and_decay_in_its_pass_match_separate_passes():
    # the clip scale and the weight decay ride in Adam's chunk loop, in the order of
    # g *= scale over every block, the Adam step, then the decay: bit for bit
    rng = np.random.default_rng(8)
    blocks = {"W": rng.normal(size=(3, training.ADAM_CHUNK - 5)), "b": rng.normal(size=7)}
    ref_blocks = {k: v.copy() for k, v in blocks.items()}
    opt, ref = Adam(2e-3), Adam(2e-3)
    for scale in (0.37, 1.0, 0.0, 1e-3):
        grads = {k: rng.normal(scale=10.0, size=v.shape) for k, v in blocks.items()}
        opt.step(blocks, model.Gradients({k: g.copy() for k, g in grads.items()}, {}), scale,
                 ("W",))
        for g in grads.values():
            g *= scale
        reference_adam_step(ref, ref_blocks, grads)
        ref_blocks["W"] *= 1.0 - training.WEIGHT_DECAY
        for k in blocks:
            assert blocks[k].tobytes() == ref_blocks[k].tobytes()
            assert opt.m[k].tobytes() == ref.m[k].tobytes()
            assert opt.v[k].tobytes() == ref.v[k].tobytes()


def test_adam_rejects_block_without_flat_view():
    # a flat reshape of a non-contiguous block is a copy, and the update would be lost
    block = np.asfortranarray(np.random.default_rng(7).normal(size=(4, 5)))
    with pytest.raises(TrainingError, match="C-contiguous"):
        Adam(1e-3).step({"W": block}, model.Gradients({"W": np.ones((4, 5))}, {}), 1.0, ())


def test_adam_step_peak_memory_at_most_three_blocks():
    rng = np.random.default_rng(5)
    blocks = {"big": rng.normal(size=(400, 500)), "mid": rng.normal(size=(400, 300)),
              "small": rng.normal(size=50)}
    grads = model.Gradients({k: rng.normal(size=v.shape) for k, v in blocks.items()}, {})
    opt = Adam(1e-3)
    opt.step(blocks, grads, 1.0, ())  # allocates the moment estimates
    tracemalloc.start()
    try:
        opt.step(blocks, grads, 1.0, ())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * blocks["big"].nbytes


def factored_gradient(seed, **arrays):
    """Gradients of `arrays` and of a (700, 400) `hist.T @ d_a1`-shaped product "W" of
    three row blocks, held as its factors, and that product as the model made it before."""
    rng = np.random.default_rng(seed)
    hist = scipy.sparse.random(30, 700, density=0.05, format="csr", random_state=rng)
    d_a1 = rng.normal(size=(30, 400))
    grads = model.Gradients({"W": None, **arrays}, {"W": (hist.T.tocsr(), d_a1)})
    return grads, hist.T @ d_a1


def test_gradient_row_blocks_of_the_factors_are_rows_of_the_whole_product():
    grads, whole = factored_gradient(11)
    blocks = list(grads.row_blocks("W", training.ROW_BLOCK))
    assert len(blocks) == 3 and grads._arrays["W"] is None  # made by blocks, never whole
    assert np.vstack([g for _, g in blocks]).tobytes() == whole.tobytes()
    assert grads["W"].tobytes() == whole.tobytes()
    grads["W"][0, 0] = 7.0  # a looked-up gradient is kept, and edits to it are read
    assert next(grads.row_blocks("W", training.ROW_BLOCK))[1][0, 0] == 7.0


def test_adam_through_factored_row_blocks_matches_adam_on_the_whole_gradient():
    rng = np.random.default_rng(12)
    block = rng.normal(size=(700, 400))
    blocks = {"W": block, "b": rng.normal(size=9)}
    ref_blocks = {k: v.copy() for k, v in blocks.items()}
    opt, ref = Adam(2e-3), Adam(2e-3)
    for step, scale in enumerate((0.37, 1.0, 1e-3)):
        g_b = rng.normal(size=9)
        grads, whole = factored_gradient(step, b=g_b.copy())
        opt.step(blocks, grads, scale, ("W",))
        ref.step(ref_blocks, model.Gradients({"W": whole, "b": g_b}, {}), scale, ("W",))
        for k in blocks:
            assert blocks[k].tobytes() == ref_blocks[k].tobytes(), k
            assert opt.m[k].tobytes() == ref.m[k].tobytes(), k
            assert opt.v[k].tobytes() == ref.v[k].tobytes(), k


@pytest.mark.parametrize("clip", [training.GRAD_CLIP, 1e-3])
def test_fit_does_not_depend_on_whether_the_first_layer_gradient_was_looked_up(
        monkeypatch, clip):
    # a W1 of 3000 x 200 takes 5 row blocks; a clip of 1e-3 clips every step, so the
    # parameters carry the norm's bytes as well as Adam's
    monkeypatch.setattr(training, "GRAD_CLIP", clip)
    rng = np.random.default_rng(13)
    n_vocab = 3000
    corpus = make_corpus([rng.integers(0, n_vocab, size=rng.integers(20, 60)).tolist()
                          for _ in range(48)], words=[f"w{i:04d}" for i in range(n_vocab)])
    config = small_config(n_topics=4, emb_dim=10, hidden=200, epochs=2, batch_size=16)
    factored, _ = fit(corpus, None, config)
    real = model.elbo_and_grad

    def looked_up(params, docs, ids, seed, kl_weight=1.0):
        value, grads = real(params, docs, ids, seed, kl_weight=kl_weight)
        assert grads["enc.W1"].shape == (n_vocab, 200)
        return value, grads

    monkeypatch.setattr(model, "elbo_and_grad", looked_up)
    whole, _ = fit(corpus, None, config)
    for name, block in model.trainable_blocks(factored).items():
        assert block.tobytes() == model.trainable_blocks(whole)[name].tobytes(), name


def test_global_norm_makes_no_block_sized_temporary():
    # a wide-vocabulary W1 gradient is 22.5 MB; squaring it for the norm copied all of it
    g = np.random.default_rng(9).normal(size=(3684, 800))
    tracemalloc.start()
    try:
        norm = training._global_norm(model.Gradients({"enc.W1": g, "enc.b1": g[0]}, {}), 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert abs(norm - np.sqrt((g * g).sum() + (g[0] * g[0]).sum())) <= 1e-12 * norm


def test_fit_peak_memory_holds_no_copy_of_the_encoder_first_layer():
    # The parameters and Adam's two moments take 3x the trainable bytes, and the W1 layer
    # 75% of them here. The W1 gradient is made a block of rows at a time, and the peak
    # is 3.65x; it was 4.26x with the whole W1 gradient, and so is any other W1-sized copy.
    rng = np.random.default_rng(0)
    n_vocab = 3000
    corpus = make_corpus([rng.integers(0, n_vocab, size=rng.integers(20, 60)).tolist()
                          for _ in range(192)], words=[f"w{i:04d}" for i in range(n_vocab)])
    config = small_config(n_topics=20, emb_dim=50, hidden=200, epochs=1, batch_size=64)
    tracemalloc.start()
    try:
        params, _ = fit(corpus, None, config)  # 3 steps
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4.0 * sum(b.nbytes for b in model.trainable_blocks(params).values())


def edited_step_inputs(monkeypatch, edit):
    """A small ETM, its optimizer and a batch, with `model.elbo_and_grad` patched so
    that `edit` changes the gradients in place before `_step` sees them."""
    real = model.elbo_and_grad

    def edited(params, docs, ids, seed, kl_weight=1.0):
        value, grads = real(params, docs, ids, seed, kl_weight=kl_weight)
        edit(grads)
        return value, grads

    monkeypatch.setattr(model, "elbo_and_grad", edited)
    docs = [Document(tokens=[d, d + 1, 2 * d, 11 - d]) for d in range(6)]
    return model.init_params("etm", 12, 3, 4, 6, hidden=5, seed=2), Adam(1e-3), docs


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("name", ["enc.W1", "enc.b2", "word_emb", "topic_emb"])
def test_step_names_the_block_holding_a_non_finite_gradient(monkeypatch, name, bad):
    def edit(grads):
        grads[name].flat[1] = bad
        grads["enc.Ws"].flat[0] = 1e300  # finite, though its square overflows

    params, opt, docs = edited_step_inputs(monkeypatch, edit)
    before = {k: v.copy() for k, v in model.trainable_blocks(params).items()}
    with np.errstate(over="ignore"), pytest.raises(
            TrainingError, match=f"non-finite gradient in block '{name}' at epoch 3"):
        training._step(params, opt, docs, np.arange(6), 5, 1.0, 3)
    assert opt.t == 0 and not opt.m
    for k, block in model.trainable_blocks(params).items():
        assert block.tobytes() == before[k].tobytes(), k


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_step_names_the_first_layer_gradient_made_non_finite_by_its_factors(monkeypatch, bad):
    def edit(grads):
        _, d_a1 = grads._factors["enc.W1"]
        d_a1[0, 1] = bad

    params, opt, docs = edited_step_inputs(monkeypatch, edit)
    with pytest.raises(TrainingError, match="non-finite gradient in block 'enc.W1' at epoch 2"):
        training._step(params, opt, docs, np.arange(6), 5, 1.0, 2)
    assert opt.t == 0 and not opt.m


def test_step_clips_a_finite_gradient_whose_square_overflows_to_a_zero_step(monkeypatch):
    def edit(grads):
        grads["enc.W2"].flat[0] = 1e300  # its square overflows to inf

    params, opt, docs = edited_step_inputs(monkeypatch, edit)
    before = {k: v.copy() for k, v in model.trainable_blocks(params).items()}
    with np.errstate(over="ignore"):
        value, clipped = training._step(params, opt, docs, np.arange(6), 5, 1.0, 0)
    assert np.isfinite(value) and clipped
    for name, block in model.trainable_blocks(params).items():
        expected = before[name]
        if name in ("enc.W1", "enc.W2", "enc.Wm", "enc.Ws"):
            expected = expected * (1.0 - 1.2e-6)  # the weight decay still applies
        assert np.array_equal(block, expected), name
    assert opt.t == 1
    assert not any(m.any() for m in opt.m.values())
    assert not any(v.any() for v in opt.v.values())


@pytest.mark.parametrize("mean_norm", [0.99 * training.GRAD_CLIP, 1.01 * training.GRAD_CLIP])
def test_step_clips_on_the_norm_of_the_batch_mean_gradient(monkeypatch, mean_norm):
    # the gradients are sums over the batch's 6 documents; Adam's first moment
    # shows the step's gradient, the mean (or the clip of it) times 1 - beta1
    def edit(grads):
        for g in grads.values():
            g[...] = 0.0
        grads["enc.W2"].flat[0] = 6 * mean_norm

    params, opt, docs = edited_step_inputs(monkeypatch, edit)
    _, clipped = training._step(params, opt, docs, np.arange(6), 5, 1.0, 0)
    assert clipped == (mean_norm > training.GRAD_CLIP)
    step_grad = min(mean_norm, training.GRAD_CLIP)
    assert opt.m["enc.W2"].flat[0] == pytest.approx((1 - Adam.beta1) * step_grad, rel=1e-14)


def test_step_on_a_gradient_whose_square_overflows_warns_nothing(monkeypatch):
    def edit(grads):
        grads["enc.W2"].flat[0] = 1e300

    params, opt, docs = edited_step_inputs(monkeypatch, edit)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _, clipped = training._step(params, opt, docs, np.arange(6), 5, 1.0, 0)
    assert clipped


def test_clipped_steps_give_one_warning_per_epoch(monkeypatch):
    monkeypatch.setattr(training, "GRAD_CLIP", 1e-12)
    _, report = fit(small_corpus(), None, small_config(epochs=2, batch_size=4))
    assert report.warnings == ["epoch 0: gradient clipped at 8 of 8 steps",
                               "epoch 1: gradient clipped at 8 of 8 steps"]


def test_weight_decay_shrinks_encoder_weights_only(monkeypatch):
    # With zero gradients the Adam step is a no-op, so each of the 2 x 2 steps
    # (2 epochs, 30 documents in batches of 16) only applies the decay.
    corpus = small_corpus()
    config = small_config(epochs=2)

    def zero_grad(params, docs, ids, seed, kl_weight=1.0):
        return 0.0, zero_grads_like(model.trainable_blocks(params))

    monkeypatch.setattr(model, "elbo_and_grad", zero_grad)
    trained, _ = fit(corpus, None, config)
    start = model.trainable_blocks(model.init_params(
        "etm", corpus.vocab_size, config.n_topics, config.emb_dim, corpus.n_docs,
        hidden=config.hidden, seed=config.seed))
    after = model.trainable_blocks(trained)
    for name, block in start.items():
        expected = block.copy()
        if name in ("enc.W1", "enc.W2", "enc.Wm", "enc.Ws"):
            for _ in range(4):
                expected *= 1.0 - 1.2e-6
        assert np.array_equal(after[name], expected), name


def test_benchmark_tracer_sees_every_training_step(monkeypatch):
    # bench/spans.py times the layers by wrapping module attributes; a fit that
    # stops calling the traced model.elbo_and_grad would read 0 steps there
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    import spans

    boundaries = spans._boundaries()
    assert len(boundaries) == 13
    assert all(callable(getattr(module, attr)) for module, attr, *_ in boundaries)
    corpus, _ = make_planted(1, n_docs=40)
    config = small_config(n_topics=5, epochs=2)
    tracer = spans.Tracer()
    with tracer.patched():
        training.fit(corpus, None, config)
    layers = spans.layer_metrics(tracer, tracer.spans)
    steps = config.epochs * len(range(0, corpus.n_docs, config.batch_size))
    assert layers["model.elbo_and_grad_calls"] == steps
    assert layers["training.epoch_s"] > 0
