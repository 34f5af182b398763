import itertools
from math import lgamma

import numpy as np
import pytest

from clustertm.lda_baseline import LdaError, fit_lda, lda_topic_word
from conftest import make_corpus
from lda_reference import check_consistency, reference_fit_lda


def exact_posterior_two_tokens(alpha, beta, n_vocab=2, n_topics=2):
    """Exact p(z1, z2 | w=[0,1]) for one 2-token document, by enumeration."""
    tokens = [0, 1]
    weights = {}
    for z in itertools.product(range(n_topics), repeat=2):
        n_dt = np.zeros(n_topics)
        n_tv = np.zeros((n_topics, n_vocab))
        for v, t in zip(tokens, z):
            n_dt[t] += 1
            n_tv[t, v] += 1
        log_w = sum(lgamma(alpha + n_dt[t]) - lgamma(alpha) for t in range(n_topics))
        for t in range(n_topics):
            log_w += lgamma(beta * n_vocab) - lgamma(beta * n_vocab + n_tv[t].sum())
            log_w += sum(lgamma(beta + n_tv[t, v]) - lgamma(beta) for v in range(n_vocab))
        weights[z] = np.exp(log_w)
    total = sum(weights.values())
    return {z: w / total for z, w in weights.items()}


def test_gibbs_chain_matches_exact_enumeration():
    alpha, beta = 0.7, 0.4
    corpus = make_corpus([[0, 1]], words=["a", "b"])
    counts = {z: 0 for z in itertools.product(range(2), repeat=2)}

    def record(z):
        counts[(int(z[0][0]), int(z[0][1]))] += 1

    n_sweeps = 100_000
    fit_lda(corpus, 2, alpha=alpha, beta=beta, sweeps=n_sweeps, seed=5,
            on_sweep=record)
    exact = exact_posterior_two_tokens(alpha, beta)
    tv = 0.5 * sum(abs(counts[z] / n_sweeps - exact[z]) for z in exact)
    assert tv < 0.02


def _reference_corpus():
    """Documents of 1 to 30 tokens over 12 words, two of which never occur."""
    rng = np.random.default_rng(11)
    lengths = [1, 30, 7, 2, 19, 12, 25, 3, 16, 9]
    return make_corpus([[int(x) for x in rng.integers(0, 10, size=n)] for n in lengths],
                       words=[f"w{i:02d}" for i in range(12)])


@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("sweeps", [0, 1, 7])
@pytest.mark.parametrize("alpha", [None, 0.3])
@pytest.mark.parametrize("n_topics", [1, 2, 5, 10, 50])
def test_chain_matches_reference_sampler(n_topics, alpha, sweeps, seed):
    corpus = _reference_corpus()
    runs = []
    for fit in (fit_lda, reference_fit_lda):
        snapshots = []
        state = fit(corpus, n_topics, alpha=alpha, sweeps=sweeps, seed=seed,
                    on_sweep=lambda z: snapshots.append([zs.copy() for zs in z]))
        runs.append((state, snapshots))
    (state, snapshots), (ref, ref_snapshots) = runs
    assert all(zs.dtype == np.int64 for zs in state.z)
    assert len(state.z) == len(ref.z)
    assert all(np.array_equal(a, b) for a, b in zip(state.z, ref.z))
    for name in ("n_tv", "n_dt", "n_t"):
        assert np.array_equal(getattr(state, name), getattr(ref, name)), name
    assert (state.alpha, state.beta) == (ref.alpha, ref.beta)
    assert len(snapshots) == len(ref_snapshots) == sweeps
    for snap, ref_snap in zip(snapshots, ref_snapshots):
        assert all(np.array_equal(a, b) for a, b in zip(snap, ref_snap))


def test_single_topic_assigns_everything_to_topic_zero():
    corpus = make_corpus([[0, 1, 1], [2, 0]])
    state = fit_lda(corpus, 1, sweeps=10, seed=0)
    assert all((zs == 0).all() for zs in state.z)
    phi = lda_topic_word(state)
    beta = state.beta
    expected = (np.array([2.0, 2.0, 1.0]) + beta) / (5.0 + beta * 3)
    assert np.allclose(phi[0], expected, atol=1e-12)


def test_count_consistency_every_sweep():
    rng = np.random.default_rng(3)
    corpus = make_corpus([[int(x) for x in rng.integers(0, 8, size=12)]
                          for _ in range(6)])
    docs = [np.asarray(d.tokens) for d in corpus.documents]
    for sweeps in range(21):
        check_consistency(fit_lda(corpus, 3, sweeps=sweeps, seed=1), docs)  # raises on drift


def test_rejects_bad_topic_count():
    for n_topics in (0, True, 2.0):
        with pytest.raises(LdaError, match="n_topics"):
            fit_lda(make_corpus([[0]]), n_topics)


@pytest.mark.parametrize("kwargs", [{"beta": 0.0}, {"alpha": -1.0}, {"alpha": float("nan")},
                                    {"beta": float("inf")}, {"sweeps": -1}, {"sweeps": 2.5},
                                    {"sweeps": True}, {"sweeps": False}])
def test_rejects_bad_hyperparameters(kwargs):
    with pytest.raises(LdaError):
        fit_lda(make_corpus([[0, 1], [1]]), 2, **kwargs)


def test_topic_word_uniform_when_counts_zero():
    corpus = make_corpus([[0, 1, 2]])
    state = fit_lda(corpus, 2, sweeps=0, seed=0)
    state.n_tv[:] = 0
    state.n_t[:] = 0
    phi = lda_topic_word(state)
    assert np.allclose(phi, 1.0 / 3, atol=1e-12)


def test_topic_word_hand_computed_2x2():
    corpus = make_corpus([[0, 1]], words=["a", "b"])
    state = fit_lda(corpus, 2, beta=0.5, sweeps=1, seed=0)
    state.n_tv[:] = [[3.0, 1.0], [0.0, 2.0]]
    state.n_t[:] = [4.0, 2.0]
    phi = lda_topic_word(state)
    assert np.allclose(phi, [[3.5 / 5, 1.5 / 5], [0.5 / 3, 2.5 / 3]], atol=1e-12)


def test_topic_word_rows_are_distributions():
    rng = np.random.default_rng(4)
    corpus = make_corpus([[int(x) for x in rng.integers(0, 10, size=15)]
                          for _ in range(8)])
    phi = lda_topic_word(fit_lda(corpus, 4, sweeps=30, seed=2))
    assert (phi >= 0).all()
    assert np.allclose(phi.sum(axis=1), 1.0, atol=1e-9)
