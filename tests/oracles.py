"""Per-item reference computations that only the tests use.

`prior_mean` and `doc_log_likelihood` compute the modified model's prior and
one document's log-likelihood one document at a time, against which the
batched ELBO is checked. `sgns_loss_and_grad` is the negative-sampling loss
and gradient of one (centre, context, negatives) pair, against which the
batched SGNS update is checked.
"""

from __future__ import annotations

import numpy as np
from scipy.special import logsumexp

from clustertm.corpus import Document, doc_term_matrix
from clustertm.model import ModelParams, log_topic_word_matrix
from clustertm.sgns import SgnsError, _sigmoid


def prior_mean(params: ModelParams, doc_id: int) -> np.ndarray:
    m0 = np.zeros(params.n_topics)
    if params.kind == "modified":
        m0[params.assignment[doc_id]] = np.exp(params.log_lambda[doc_id])
    return m0


def doc_log_likelihood(params: ModelParams, doc: Document, x: np.ndarray,
                       log_beta: np.ndarray | None = None) -> float:
    """sum_i log sum_t p(w_i|t) softmax(x)_t via log-sum-exp."""
    if log_beta is None:
        log_beta = log_topic_word_matrix(params)
    log_theta = x - logsumexp(x)
    counts = doc_term_matrix([doc], params.n_vocab)
    log_p = logsumexp(log_theta[:, None] + log_beta[:, counts.indices], axis=0)
    return float(counts.data @ log_p)


def sgns_loss_and_grad(center: int, context: int, negatives, w_in: np.ndarray, w_out: np.ndarray):
    """Negative-sampling loss -log s(u.v) - sum_neg log s(-u.v_neg) and its analytic gradients.

    Returns (loss, grad_center_row, {output_row_id: grad}) without touching the matrices.
    """
    n_words = w_in.shape[0]
    for idx in (center, context, *negatives):
        if not 0 <= idx < n_words:
            raise SgnsError(f"word id {idx} out of range [0, {n_words})")
    u = w_in[center]
    loss = 0.0
    g_u = np.zeros_like(u)
    g_out: dict[int, np.ndarray] = {}
    for idx, label in [(context, 1.0)] + [(n, 0.0) for n in negatives]:
        v = w_out[idx]
        score = _sigmoid(u @ v)
        loss -= np.log(score) if label else np.log1p(-score)
        coef = score - label  # d(-log sigma(+/- u.v))/d(u.v)
        g_u += coef * v
        g_out[idx] = g_out.get(idx, 0.0) + coef * u
    return loss, g_u, g_out
