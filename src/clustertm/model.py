"""Embedded topic model (baseline and cluster-regularized variant).

Forward pass, analytic Gaussian KL, single-sample reparameterized ELBO and
hand-written gradients for all trainable blocks. Everything is numpy float64
and deterministic given (params, inputs, seed).
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.sparse as sp
from scipy.special import expit, logsumexp

from .corpus import Document, doc_term_matrix


class ModelError(Exception):
    pass


def _softplus(x):
    return np.logaddexp(0.0, x)


def _softmax(x):
    z = x - np.max(x)
    e = np.exp(z)
    return e / e.sum()


@dataclass
class VariationalStats:
    mean: np.ndarray
    log_std: np.ndarray


@dataclass
class ModelParams:
    kind: str  # "etm" | "modified"
    word_emb: np.ndarray  # (#V, H)
    enc: dict  # W1,b1,W2,b2,Wm,bm,Ws,bs
    topic_emb: np.ndarray | None = None  # (#T, H), baseline only
    xi: dict | None = None  # W1,b1,W2,b2 of the centre->embedding network
    log_lambda: np.ndarray | None = None  # (#D,), modified only
    centres: np.ndarray | None = None  # (#T, R), constant
    log_g0: np.ndarray | None = None  # (#V,), constant
    assignment: np.ndarray | None = None  # (#D,) cluster of each document, constant
    freeze_word_emb: bool = False

    @property
    def n_topics(self) -> int:
        return self.enc["Wm"].shape[0]

    @property
    def n_vocab(self) -> int:
        return self.word_emb.shape[0]

    @property
    def emb_dim(self) -> int:
        return self.word_emb.shape[1]


def init_params(kind: str, n_vocab: int, n_topics: int, emb_dim: int, n_docs: int,
                hidden: int = 800, seed: int = 0, word_emb: np.ndarray | None = None,
                freeze_word_emb: bool = False, centres: np.ndarray | None = None,
                log_g0: np.ndarray | None = None, assignment: np.ndarray | None = None,
                emb_init_scale: float = 0.3) -> ModelParams:
    """Network weights start at N(0, 0.02^2); embedding tables at N(0, emb_init_scale^2).

    The larger embedding scale breaks the symmetry between topics, which
    otherwise all converge to the corpus unigram distribution.
    """
    if kind not in ("etm", "modified"):
        raise ModelError(f"unknown model kind {kind!r}")
    rng = np.random.default_rng(seed)
    scale = 0.02

    def w(*shape):
        return rng.normal(0.0, scale, size=shape)

    def emb_init(*shape):
        return rng.normal(0.0, emb_init_scale, size=shape)

    enc = {
        "W1": w(hidden, n_vocab), "b1": np.zeros(hidden),
        "W2": w(hidden, hidden), "b2": np.zeros(hidden),
        "Wm": w(n_topics, hidden), "bm": np.zeros(n_topics),
        "Ws": w(n_topics, hidden), "bs": np.zeros(n_topics),
    }
    if word_emb is not None:
        if word_emb.shape != (n_vocab, emb_dim):
            raise ModelError(f"pretrained embedding shape {word_emb.shape} != ({n_vocab}, {emb_dim})")
        word_emb = np.array(word_emb, dtype=float)
    else:
        word_emb = emb_init(n_vocab, emb_dim)

    if kind == "etm":
        return ModelParams(kind, word_emb, enc, topic_emb=emb_init(n_topics, emb_dim),
                           freeze_word_emb=freeze_word_emb)

    if centres is None or log_g0 is None or assignment is None:
        raise ModelError("modified model requires cluster centres, assignment and g0")
    if centres.shape[0] != n_topics:
        raise ModelError(f"{centres.shape[0]} cluster centres for {n_topics} topics")
    r = centres.shape[1]
    xi = {"W1": w(emb_dim, r), "b1": np.zeros(emb_dim),
          "W2": w(emb_dim, emb_dim), "b2": np.zeros(emb_dim)}
    return ModelParams(kind, word_emb, enc, xi=xi, log_lambda=np.zeros(n_docs),
                       centres=np.array(centres, dtype=float),
                       log_g0=np.array(log_g0, dtype=float),
                       assignment=np.array(assignment, dtype=np.int64),
                       freeze_word_emb=freeze_word_emb)


# ---------------------------------------------------------------------------
# forward pieces

def topic_embedding_modified(params: ModelParams, centres: np.ndarray | None = None) -> np.ndarray:
    """Apply the centre->embedding network row-wise: tanh layer then linear."""
    if params.kind != "modified":
        raise ModelError("the centre network belongs to the modified model")
    c = params.centres if centres is None else np.asarray(centres, dtype=float)
    xi = params.xi
    if c.shape[1] != xi["W1"].shape[1]:
        raise ModelError(f"centre dim {c.shape[1]} != network input dim {xi['W1'].shape[1]}")
    h1 = np.tanh(c @ xi["W1"].T + xi["b1"])
    return h1 @ xi["W2"].T + xi["b2"]


def log_topic_word_matrix(params: ModelParams) -> np.ndarray:
    """(#T, #V) log p(v|t) for the active variant."""
    if params.kind == "etm":
        logits = params.topic_emb @ params.word_emb.T
    else:
        e_t = topic_embedding_modified(params)
        logits = e_t @ params.word_emb.T + params.log_g0[None, :]
    return logits - logsumexp(logits, axis=1, keepdims=True)


def encode(params: ModelParams, doc: Document | np.ndarray) -> VariationalStats:
    """Mean and log-std of the variational Gaussian from L1-normalized counts."""
    if isinstance(doc, Document):
        x = doc_term_matrix([doc], params.n_vocab).toarray()[0]
    else:
        x = np.asarray(doc, float)
    h = x / x.sum()
    enc = params.enc
    z1 = _softplus(enc["W1"] @ h + enc["b1"])
    z2 = _softplus(enc["W2"] @ z1 + enc["b2"])
    return VariationalStats(enc["Wm"] @ z2 + enc["bm"], enc["Ws"] @ z2 + enc["bs"])


def kl_to_prior(stats: VariationalStats, prior_mean: np.ndarray) -> float:
    """KL( N(m, diag(s)^2) || N(m0, I) ), closed form."""
    m, log_s = stats.mean, stats.log_std
    if m.shape != prior_mean.shape:
        raise ModelError("prior mean dimension mismatch")
    s2 = np.exp(2.0 * log_s)
    diff = m - prior_mean
    return float(0.5 * (s2.sum() + diff @ diff - m.size) - log_s.sum())


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


def _noise(seed: int, n_docs: int, n_topics: int) -> np.ndarray:
    return np.random.default_rng(seed).standard_normal((n_docs, n_topics))


def trainable_blocks(params: ModelParams) -> dict[str, np.ndarray]:
    """Flat name -> array view of every trainable parameter block."""
    blocks = {f"enc.{k}": v for k, v in params.enc.items()}
    if not params.freeze_word_emb:
        blocks["word_emb"] = params.word_emb
    if params.kind == "etm":
        blocks["topic_emb"] = params.topic_emb
    else:
        blocks.update({f"xi.{k}": v for k, v in params.xi.items()})
        blocks["log_lambda"] = params.log_lambda
    return blocks


def _forward(params: ModelParams, docs: list[Document], doc_ids, seed: int,
             kl_weight: float):
    """Batched single-sample ELBO over the (nnz, #T) support of the batch.

    Only the words a document contains enter its likelihood (Dieng, Ruiz &
    Blei 2020), so words absent from the batch are never touched. Returns the
    ELBO and a closure that computes its gradients from the cached values.
    """
    enc = params.enc
    x = doc_term_matrix(docs, params.n_vocab)
    n_docs, nnz = x.shape[0], x.nnz
    rows = np.repeat(np.arange(n_docs), np.diff(x.indptr))
    lengths = x.sum(axis=1).A1
    hist = sp.csr_matrix((x.data / lengths[rows], x.indices, x.indptr), shape=x.shape)
    ids = np.asarray(doc_ids, dtype=np.int64)
    eps = _noise(seed, n_docs, params.n_topics)

    a1 = hist @ enc["W1"].T + enc["b1"]
    z1 = _softplus(a1)
    a2 = z1 @ enc["W2"].T + enc["b2"]
    z2 = _softplus(a2)
    mean = z2 @ enc["Wm"].T + enc["bm"]
    log_s = z2 @ enc["Ws"].T + enc["bs"]
    s = np.exp(log_s)
    xtil = mean + s * eps
    log_theta = xtil - logsumexp(xtil, axis=1, keepdims=True)
    log_beta = log_topic_word_matrix(params)
    log_joint = log_theta[rows] + log_beta[:, x.indices].T
    log_p = logsumexp(log_joint, axis=1)

    m0 = np.zeros_like(mean)
    if params.kind == "modified":
        topic = params.assignment[ids]
        lam = np.exp(params.log_lambda[ids])
        m0[np.arange(n_docs), topic] = lam
    kl = 0.5 * ((s * s).sum() + ((mean - m0) ** 2).sum() - mean.size) - log_s.sum()
    elbo = float(x.data @ log_p) - kl_weight * float(kl)

    def backward() -> dict[str, np.ndarray]:
        # responsibilities n_{d,w} p(t | w, d), summed per document and per word
        resp = x.data[:, None] * np.exp(log_joint - log_p[:, None])
        r = sp.csr_matrix((np.ones(nnz), np.arange(nnz), x.indptr), shape=(n_docs, nnz)) @ resp
        r_word = sp.csc_matrix((np.ones(nnz), x.indices, np.arange(nnz + 1)),
                               shape=(params.n_vocab, nnz)) @ resp

        # softmax backprop for theta, then heads and KL terms
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
        grads["enc.W1"] = d_a1.T @ hist
        grads["enc.b1"] = d_a1.sum(axis=0)

        d_logits = r_word.T - np.exp(log_beta) * r.sum(axis=0)[:, None]
        if params.kind == "etm":
            e_t = params.topic_emb
            grads["topic_emb"] = d_logits @ params.word_emb
        else:
            xi = params.xi
            h1 = np.tanh(params.centres @ xi["W1"].T + xi["b1"])
            e_t = h1 @ xi["W2"].T + xi["b2"]
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


def elbo_minibatch(params: ModelParams, docs: list[Document], doc_ids, seed: int,
                   kl_weight: float = 1.0) -> float:
    """Single-sample reparameterized ELBO summed over the batch.

    `kl_weight` < 1 gives the annealed objective used early in training.
    """
    return _forward(params, docs, doc_ids, seed, kl_weight)[0]


def elbo_and_grad(params: ModelParams, docs: list[Document], doc_ids, seed: int,
                  kl_weight: float = 1.0):
    """ELBO value and its gradients at the same noise draw, in one pass.

    Returns (elbo, grads) where grads has one array per trainable block.
    """
    elbo, backward = _forward(params, docs, doc_ids, seed, kl_weight)
    return elbo, backward()


def infer_doc_topics(params: ModelParams, doc: Document) -> np.ndarray:
    return _softmax(encode(params, doc).mean)


# ---------------------------------------------------------------------------
# checkpoints: length-prefixed JSON header + raw float64/int64 buffers,
# byte-deterministic for identical parameters

_CONST_ARRAYS = ("centres", "log_g0", "assignment")


def _all_arrays(params: ModelParams) -> dict[str, np.ndarray]:
    arrays = {"word_emb": params.word_emb}
    arrays.update({f"enc.{k}": v for k, v in params.enc.items()})
    if params.topic_emb is not None:
        arrays["topic_emb"] = params.topic_emb
    if params.xi is not None:
        arrays.update({f"xi.{k}": v for k, v in params.xi.items()})
    if params.log_lambda is not None:
        arrays["log_lambda"] = params.log_lambda
    for name in _CONST_ARRAYS:
        val = getattr(params, name)
        if val is not None:
            arrays[name] = val
    return arrays


def save_checkpoint(params: ModelParams, path, cluster_hash: str = "") -> None:
    arrays = _all_arrays(params)
    meta = {
        "format": "clustertm-ckpt-v1",
        "kind": params.kind,
        "n_topics": params.n_topics,
        "emb_dim": params.emb_dim,
        "freeze_word_emb": params.freeze_word_emb,
        "cluster_hash": cluster_hash,
        "arrays": [{"name": k, "shape": list(v.shape), "dtype": str(v.dtype)}
                   for k, v in arrays.items()],
    }
    header = json.dumps(meta, sort_keys=True).encode("utf-8")
    tmp = Path(str(path) + ".tmp")
    with open(tmp, "wb") as f:
        f.write(struct.pack("<Q", len(header)))
        f.write(header)
        for v in arrays.values():
            f.write(np.ascontiguousarray(v).tobytes())
    tmp.replace(path)  # write-then-rename: no partial checkpoints


def load_checkpoint(path) -> tuple[ModelParams, dict]:
    with open(path, "rb") as f:
        (hlen,) = struct.unpack("<Q", f.read(8))
        meta = json.loads(f.read(hlen).decode("utf-8"))
        if meta.get("format") != "clustertm-ckpt-v1":
            raise ModelError(f"{path}: not a clustertm checkpoint")
        arrays = {}
        for spec in meta["arrays"]:
            shape, dtype = tuple(spec["shape"]), np.dtype(spec["dtype"])
            buf = f.read(int(np.prod(shape)) * dtype.itemsize)
            arrays[spec["name"]] = np.frombuffer(buf, dtype=dtype).reshape(shape).copy()

    enc = {k.split(".", 1)[1]: v for k, v in arrays.items() if k.startswith("enc.")}
    xi = {k.split(".", 1)[1]: v for k, v in arrays.items() if k.startswith("xi.")} or None
    params = ModelParams(
        meta["kind"], arrays["word_emb"], enc,
        topic_emb=arrays.get("topic_emb"), xi=xi,
        log_lambda=arrays.get("log_lambda"), centres=arrays.get("centres"),
        log_g0=arrays.get("log_g0"), assignment=arrays.get("assignment"),
        freeze_word_emb=bool(meta["freeze_word_emb"]),
    )
    return params, meta
