"""Reference implementations for the LDA tests.

`reference_fit_lda` is the per-token numpy collapsed Gibbs sampler that
`fit_lda` replaced, kept unchanged as the oracle for its chain: same seed,
same assignments and counts, bit for bit.
"""

from __future__ import annotations

import numpy as np

from clustertm.corpus import Corpus
from clustertm.lda_baseline import LdaError, LdaState


def check_consistency(state: LdaState, docs: list[np.ndarray]) -> None:
    """Raise if the state's count matrices differ from a recount of its z."""
    n_tv = np.zeros_like(state.n_tv)
    n_dt = np.zeros_like(state.n_dt)
    for d, (toks, zs) in enumerate(zip(docs, state.z)):
        for v, t in zip(toks, zs):
            n_tv[t, v] += 1
            n_dt[d, t] += 1
    if not (np.array_equal(n_tv, state.n_tv) and np.array_equal(n_dt, state.n_dt)
            and np.array_equal(n_tv.sum(axis=1), state.n_t)):
        raise LdaError("count matrices inconsistent with assignments")


def reference_fit_lda(corpus: Corpus, n_topics: int, alpha: float | None = None,
                      beta: float = 0.01, sweeps: int = 1000, seed: int = 0,
                      on_sweep=None) -> LdaState:
    """Collapsed Gibbs sweeps with ten small numpy calls per token."""
    if n_topics < 1:
        raise LdaError("n_topics must be >= 1")
    if alpha is None:
        alpha = 50.0 / n_topics
    if not (isinstance(sweeps, (int, np.integer)) and sweeps >= 0):
        raise LdaError(f"sweeps must be an integer >= 0, got {sweeps!r}")
    if not (0 < alpha < np.inf and 0 < beta < np.inf):  # also rejects NaN
        raise LdaError(f"alpha and beta must be finite and > 0, got {alpha!r} and {beta!r}")

    n_v, n_d = corpus.vocab_size, corpus.n_docs
    docs = [np.asarray(d.tokens, dtype=np.int64) for d in corpus.documents]
    rng = np.random.default_rng(seed)

    n_tv = np.zeros((n_topics, n_v))
    n_dt = np.zeros((n_d, n_topics))
    n_t = np.zeros(n_topics)
    z = []
    for d, toks in enumerate(docs):
        zs = rng.integers(0, n_topics, size=len(toks))
        z.append(zs)
        for v, t in zip(toks, zs):
            n_tv[t, v] += 1
            n_dt[d, t] += 1
            n_t[t] += 1

    beta_v = beta * n_v
    for _ in range(sweeps):
        for d, toks in enumerate(docs):
            zs = z[d]
            nd = n_dt[d]
            for i, v in enumerate(toks):
                t_old = zs[i]
                n_tv[t_old, v] -= 1
                nd[t_old] -= 1
                n_t[t_old] -= 1
                p = (n_tv[:, v] + beta) * (nd + alpha) / (n_t + beta_v)
                cdf = np.cumsum(p)
                t_new = int(np.searchsorted(cdf, rng.random() * cdf[-1], side="right"))
                t_new = min(t_new, n_topics - 1)
                zs[i] = t_new
                n_tv[t_new, v] += 1
                nd[t_new] += 1
                n_t[t_new] += 1
        if on_sweep is not None:
            on_sweep(z)

    return LdaState(z, n_tv, n_dt, n_t, alpha, beta)
