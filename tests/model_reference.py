"""Reference implementation for the model tests.

`reference_elbo_and_grad` is the forward and backward pass that
`model._forward` replaced, kept unchanged as the oracle for its arithmetic:
a fresh array for every elementwise result, the pre-activations kept and
their sigmoids taken in the backward pass, and every forward value held by
the backward closure until it returns. `model.elbo_and_grad` must give the
same ELBO and the same gradient bytes.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
from scipy.special import expit, logsumexp

from clustertm.corpus import doc_term_matrix
from clustertm.model import (ModelParams, VariationalStats, _noise, _softplus, _topic_side,
                             kl_to_prior, trainable_blocks)


def reference_encoder(params: ModelParams, hist: sp.csr_matrix):
    """(a1, z1, a2, z2, mean, log_std) of the encoder on a CSR batch of L1-normalized counts."""
    enc = params.enc
    a1 = hist @ enc["W1"] + enc["b1"]
    z1 = _softplus(a1)
    a2 = z1 @ enc["W2"].T + enc["b2"]
    z2 = _softplus(a2)
    return a1, z1, a2, z2, z2 @ enc["Wm"].T + enc["bm"], z2 @ enc["Ws"].T + enc["bs"]


def reference_forward(params: ModelParams, docs, doc_ids, seed: int, kl_weight: float):
    """The ELBO and a closure that computes its gradients from the cached values."""
    enc = params.enc
    x = doc_term_matrix(docs, params.n_vocab)
    n_docs, nnz = x.shape[0], x.nnz
    rows = np.repeat(np.arange(n_docs), np.diff(x.indptr))
    lengths = x.sum(axis=1).A1
    hist = sp.csr_matrix((x.data / lengths[rows], x.indices, x.indptr), shape=x.shape)
    ids = np.asarray(doc_ids, dtype=np.int64)
    eps = _noise(seed, n_docs, params.n_topics)

    a1, z1, a2, z2, mean, log_s = reference_encoder(params, hist)
    s = np.exp(log_s)
    xtil = mean + s * eps
    log_theta = xtil - logsumexp(xtil, axis=1, keepdims=True)
    log_beta, e_t, h1 = _topic_side(params)
    log_joint = log_theta[rows] + log_beta[:, x.indices].T
    log_p = logsumexp(log_joint, axis=1)

    m0 = np.zeros_like(mean)
    if params.kind == "modified":
        topic = params.assignment[ids]
        lam = np.exp(params.log_lambda[ids])
        m0[np.arange(n_docs), topic] = lam
    elbo = float(x.data @ log_p) - kl_weight * kl_to_prior(VariationalStats(mean, log_s), m0)

    def backward() -> dict[str, np.ndarray]:
        resp = x.data[:, None] * np.exp(log_joint - log_p[:, None])
        r = sp.csr_matrix((np.ones(nnz), np.arange(nnz), x.indptr), shape=(n_docs, nnz)) @ resp
        r_word = sp.csc_matrix((np.ones(nnz), x.indices, np.arange(nnz + 1)),
                               shape=(params.n_vocab, nnz)) @ resp

        d_xtil = r - np.exp(log_theta) * lengths[:, None]
        d_m = d_xtil + kl_weight * (m0 - mean)
        d_log_s = d_xtil * s * eps + kl_weight * (1.0 - s * s)
        grads = {}
        d_z2 = d_m @ enc["Wm"] + d_log_s @ enc["Ws"]
        grads["enc.Wm"] = d_m.T @ z2
        grads["enc.bm"] = d_m.sum(axis=0)
        grads["enc.Ws"] = d_log_s.T @ z2
        grads["enc.bs"] = d_log_s.sum(axis=0)
        d_a2 = d_z2 * expit(a2)
        grads["enc.W2"] = d_a2.T @ z1
        grads["enc.b2"] = d_a2.sum(axis=0)
        d_a1 = (d_a2 @ enc["W2"]) * expit(a1)
        grads["enc.W1"] = hist.T @ d_a1
        grads["enc.b1"] = d_a1.sum(axis=0)

        d_logits = r_word.T - np.exp(log_beta) * r.sum(axis=0)[:, None]
        if params.kind == "etm":
            grads["topic_emb"] = d_logits @ params.word_emb
        else:
            xi = params.xi
            d_e = d_logits @ params.word_emb
            grads["xi.W2"] = d_e.T @ h1
            grads["xi.b2"] = d_e.sum(axis=0)
            d_a = (d_e @ xi["W2"]) * (1.0 - h1 * h1)
            grads["xi.W1"] = d_a.T @ params.centres
            grads["xi.b1"] = d_a.sum(axis=0)
            grads["log_lambda"] = np.bincount(
                ids, weights=kl_weight * lam * (mean[np.arange(n_docs), topic] - lam),
                minlength=params.log_lambda.size)
        if not params.freeze_word_emb:
            grads["word_emb"] = d_logits.T @ e_t
        return {name: grads[name] for name in trainable_blocks(params)}

    return elbo, backward


def reference_elbo_and_grad(params: ModelParams, docs, doc_ids, seed: int,
                            kl_weight: float = 1.0):
    elbo, backward = reference_forward(params, docs, doc_ids, seed, kl_weight)
    return elbo, backward()
