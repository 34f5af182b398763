"""Collapsed Gibbs sampling LDA, the frequency-based baseline."""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .corpus import Corpus, check_seed, is_int

SWEEPS = 1000  # Gibbs sweeps when the caller names none
BETA = 0.01  # symmetric topic-word prior


class LdaError(Exception):
    pass


@dataclass
class LdaState:
    z: list[np.ndarray]  # topic of every token, per document
    n_tv: np.ndarray  # (#T, #V) topic-word counts
    n_dt: np.ndarray  # (#D, #T) document-topic counts
    n_t: np.ndarray  # (#T,) topic totals
    alpha: float
    beta: float

    @property
    def n_topics(self) -> int:
        return self.n_tv.shape[0]


def fit_lda(corpus: Corpus, n_topics: int, alpha: float | None = None, sweeps: int = SWEEPS,
            seed: int = 0, on_sweep=None) -> LdaState:
    """Run collapsed Gibbs sweeps; last sample kept. Deterministic given the seed.

    `on_sweep(z)` is called with the assignment arrays after every sweep, for
    chain diagnostics; the same arrays are updated in place by later sweeps.

    During the sweeps the counts live in Python lists, so that sampling a token
    makes no numpy call. The draw is the same as the elementwise
    `p = (n_tv[:, v] + BETA) * (n_dt[d] + alpha) / (n_t + V * BETA)`, then
    `searchsorted(cumsum(p), u * sum, side="right")`, with one uniform `u` per
    token taken in token order: the running sum adds in `cumsum`'s order and
    `rng.random(n)` yields the doubles of n calls to `rng.random()`.
    """
    if not (is_int(n_topics) and n_topics >= 1):
        raise LdaError(f"n_topics must be an integer >= 1, got {n_topics!r}")
    if alpha is None:
        alpha = 50.0 / n_topics
    if not (is_int(sweeps) and sweeps >= 0):
        raise LdaError(f"sweeps must be an integer >= 0, got {sweeps!r}")
    if not 0 < alpha < np.inf:  # also rejects NaN
        raise LdaError(f"alpha must be finite and > 0, got {alpha!r}")
    check_seed(seed, LdaError)
    alpha, beta = float(alpha), BETA  # Python floats keep numpy scalars out of the loop

    n_v, n_d = corpus.vocab_size, corpus.n_docs
    docs = [np.asarray(d.tokens, dtype=np.int64) for d in corpus.documents]
    rng = np.random.default_rng(seed)

    z = [rng.integers(0, n_topics, size=len(toks)) for toks in docs]
    n_tv = np.zeros((n_topics, n_v))
    n_dt = np.zeros((n_d, n_topics))
    doc_of = np.repeat(np.arange(n_d), [len(toks) for toks in docs])
    z_all = np.concatenate(z)
    np.add.at(n_tv, (z_all, np.concatenate(docs)), 1.0)
    np.add.at(n_dt, (doc_of, z_all), 1.0)
    n_t = n_tv.sum(axis=1)

    word_topic = n_tv.T.tolist()  # one list of topic counts per word
    doc_topic = n_dt.tolist()
    topic_total = n_t.tolist()
    z_lists = [zs.tolist() for zs in z]
    tok_lists = [toks.tolist() for toks in docs]
    beta_v = beta * n_v
    last = int(n_topics) - 1
    for _ in range(sweeps):
        for toks, zs, nd in zip(tok_lists, z_lists, doc_topic):
            for i, u in enumerate(rng.random(len(toks)).tolist()):
                nv = word_topic[toks[i]]
                t = zs[i]
                nv[t] -= 1
                nd[t] -= 1
                topic_total[t] -= 1
                cdf = []
                total = 0.0
                for a, b, c in zip(nv, nd, topic_total):
                    total += (a + beta) * (b + alpha) / (c + beta_v)
                    cdf.append(total)
                t = bisect_right(cdf, u * total)
                if t > last:  # u * total can round up to total
                    t = last
                zs[i] = t
                nv[t] += 1
                nd[t] += 1
                topic_total[t] += 1
        if on_sweep is not None:
            _copy_into(z, z_lists)
            on_sweep(z)

    _copy_into(z, z_lists)
    n_tv[:] = np.array(word_topic).T
    n_dt[:] = doc_topic
    n_t[:] = topic_total
    return LdaState(z, n_tv, n_dt, n_t, alpha, beta)


def _copy_into(z: list[np.ndarray], z_lists: list[list[int]]) -> None:
    for zs, values in zip(z, z_lists):
        zs[:] = values


def lda_topic_word(state: LdaState) -> np.ndarray:
    """Smoothed posterior word distribution per topic, (#T, #V)."""
    n_v = state.n_tv.shape[1]
    return (state.n_tv + state.beta) / (state.n_t[:, None] + state.beta * n_v)
