"""Embedded topic model (baseline and cluster-regularized variant).

Forward pass, analytic Gaussian KL, single-sample reparameterized ELBO and
hand-written gradients for all trainable blocks. Everything is numpy float64
and deterministic given (params, inputs, seed).
"""

from __future__ import annotations

import json
import struct
from collections.abc import Mapping
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from .corpus import Document, doc_term_matrix, malformed


class ModelError(Exception):
    pass


def _softplus_and_sigmoid(a: np.ndarray) -> np.ndarray:
    """softplus(a) = max(a, 0) + log1p(exp(-|a|)), with `a` overwritten by sigmoid(a) =
    exp(a - softplus(a)): one exp of -|a| serves both, and one temporary."""
    e = np.abs(a)
    np.negative(e, out=e)
    np.exp(e, out=e)
    z = np.maximum(a, 0.0)
    z += np.log1p(e, out=e)
    a -= z
    np.exp(a, out=a)
    return z


def _logsumexp(a: np.ndarray) -> np.ndarray:
    """log(sum(exp(a))) of each row of a 2-D array, shifted by the row max; one temporary."""
    top = a.max(axis=1)
    shifted = a - top[:, None]
    np.exp(shifted, out=shifted)
    return np.log(shifted.sum(axis=1)) + top


@dataclass
class VariationalStats:
    mean: np.ndarray
    log_std: np.ndarray


_CONST_ARRAYS = ("centres", "log_g0", "assignment")


@dataclass
class ModelParams:
    """A model is one table of named arrays, in `trainable_blocks` order (`enc.*`, `word_emb`,
    then `topic_emb` or `xi.*` and `log_lambda`), then the modified model's constants
    `_CONST_ARRAYS`. The encoder's `enc.W1` is (#V, hidden), word-major."""
    kind: str  # "etm" | "modified"
    arrays: dict[str, np.ndarray]
    freeze_word_emb: bool

    @property
    def n_topics(self) -> int:
        return self.arrays["enc.Wm"].shape[0]

    @property
    def n_vocab(self) -> int:
        return self.arrays["word_emb"].shape[0]

    @property
    def emb_dim(self) -> int:
        return self.arrays["word_emb"].shape[1]


def init_params(kind: str, n_vocab: int, n_topics: int, emb_dim: int, n_docs: int,
                hidden: int, seed: int = 0, word_emb: np.ndarray | None = None,
                freeze_word_emb: bool = False, centres: np.ndarray | None = None,
                log_g0: np.ndarray | None = None,
                assignment: np.ndarray | None = None) -> ModelParams:
    """Network weights start at N(0, 0.02^2); embedding tables at N(0, 0.3^2).

    The larger embedding scale breaks the symmetry between topics, which
    otherwise all converge to the corpus unigram distribution. The encoder's W1 is
    drawn as (hidden, #V) and held as its C-ordered transpose, so no step copies it.
    """
    if kind not in ("etm", "modified"):
        raise ModelError(f"unknown model kind {kind!r}")
    rng = np.random.default_rng(seed)
    scale = 0.02

    def w(*shape):
        return rng.normal(0.0, scale, size=shape)

    def emb_init(*shape):
        return rng.normal(0.0, 0.3, size=shape)

    arrays = {
        "enc.W1": np.ascontiguousarray(w(hidden, n_vocab).T), "enc.b1": np.zeros(hidden),
        "enc.W2": w(hidden, hidden), "enc.b2": np.zeros(hidden),
        "enc.Wm": w(n_topics, hidden), "enc.bm": np.zeros(n_topics),
        "enc.Ws": w(n_topics, hidden), "enc.bs": np.zeros(n_topics),
    }
    if word_emb is not None:
        if word_emb.shape != (n_vocab, emb_dim):
            raise ModelError(f"pretrained embedding shape {word_emb.shape} != ({n_vocab}, {emb_dim})")
        arrays["word_emb"] = np.array(word_emb, dtype=float, order="C")
    else:
        arrays["word_emb"] = emb_init(n_vocab, emb_dim)

    if kind == "etm":
        arrays["topic_emb"] = emb_init(n_topics, emb_dim)
        return ModelParams(kind, arrays, freeze_word_emb)

    if centres is None or log_g0 is None or assignment is None:
        raise ModelError("modified model requires cluster centres, assignment and g0")
    if centres.shape[0] != n_topics:
        raise ModelError(f"{centres.shape[0]} cluster centres for {n_topics} topics")
    assignment = np.asarray(assignment)
    if assignment.shape != (n_docs,) or ((assignment < 0) | (assignment >= n_topics)).any():
        raise ModelError(f"cluster assignment of shape {assignment.shape} needs {n_docs} ids in [0, {n_topics})")
    arrays.update({"xi.W1": w(emb_dim, centres.shape[1]), "xi.b1": np.zeros(emb_dim),
                   "xi.W2": w(emb_dim, emb_dim), "xi.b2": np.zeros(emb_dim),
                   "log_lambda": np.zeros(n_docs), "centres": np.array(centres, dtype=float),
                   "log_g0": np.array(log_g0, dtype=float),
                   "assignment": np.array(assignment, dtype=np.int64)})
    return ModelParams(kind, arrays, freeze_word_emb)


# ---------------------------------------------------------------------------
# forward pieces

def _centre_network(params: ModelParams) -> tuple[np.ndarray, np.ndarray]:
    """Tanh layer and output (#T, H) of the centre->embedding network."""
    arrays = params.arrays
    c, w1 = arrays["centres"], arrays["xi.W1"]
    if c.shape[1] != w1.shape[1]:
        raise ModelError(f"centre dim {c.shape[1]} != network input dim {w1.shape[1]}")
    h1 = np.tanh(c @ w1.T + arrays["xi.b1"])
    return h1, h1 @ arrays["xi.W2"].T + arrays["xi.b2"]


def topic_embedding_modified(params: ModelParams) -> np.ndarray:
    """Apply the centre->embedding network row-wise: tanh layer then linear."""
    if params.kind != "modified":
        raise ModelError("the centre network belongs to the modified model")
    return _centre_network(params)[1]


def _topic_side(params: ModelParams):
    """log p(v|t), the topic embeddings and the centre network's tanh layer (None for ETM)."""
    arrays = params.arrays
    if params.kind == "etm":
        h1, e_t = None, arrays["topic_emb"]
        logits = e_t @ arrays["word_emb"].T
    else:
        h1, e_t = _centre_network(params)
        logits = e_t @ arrays["word_emb"].T + arrays["log_g0"][None, :]
    return logits - _logsumexp(logits)[:, None], e_t, h1


def log_topic_word_matrix(params: ModelParams) -> np.ndarray:
    """(#T, #V) log p(v|t) for the active variant."""
    return _topic_side(params)[0]


def _encoder(params: ModelParams, hist: sp.csr_matrix):
    """(s1, z1, s2, z2, mean, log_std) of the encoder on a CSR batch of L1-normalized counts.

    Each hidden layer's output is z = softplus(a). Once z is taken, the pre-activation a
    is overwritten by sigmoid(a), the derivative of z that the backward pass reads.
    """
    arrays = params.arrays
    s1 = hist @ arrays["enc.W1"]
    s1 += arrays["enc.b1"]
    z1 = _softplus_and_sigmoid(s1)
    s2 = z1 @ arrays["enc.W2"].T
    s2 += arrays["enc.b2"]
    z2 = _softplus_and_sigmoid(s2)
    mean = z2 @ arrays["enc.Wm"].T
    mean += arrays["enc.bm"]
    log_s = z2 @ arrays["enc.Ws"].T
    log_s += arrays["enc.bs"]
    return s1, z1, s2, z2, mean, log_s


def encode(params: ModelParams, doc: Document) -> VariationalStats:
    """Mean and log-std of the variational Gaussian: the encoder on a one-row batch."""
    x = doc_term_matrix([doc], params.n_vocab)
    hist = sp.csr_matrix((x.data / x.data.sum(), x.indices, x.indptr), shape=x.shape)
    *_, mean, log_s = _encoder(params, hist)
    return VariationalStats(mean[0], log_s[0])


def kl_to_prior(stats: VariationalStats, prior_mean: np.ndarray) -> float:
    """KL( N(m, diag(s)^2) || N(m0, I) ), closed form; summed over the rows of a batch."""
    m, log_s = stats.mean, stats.log_std
    if m.shape != prior_mean.shape:
        raise ModelError("prior mean dimension mismatch")
    s = np.exp(log_s)
    return float(0.5 * ((s * s).sum() + ((m - prior_mean) ** 2).sum() - m.size) - log_s.sum())


def _noise(seed: int, n_docs: int, n_topics: int) -> np.ndarray:
    return np.random.default_rng(seed).standard_normal((n_docs, n_topics))


def trainable_blocks(params: ModelParams) -> dict[str, np.ndarray]:
    """Name -> array of every trainable block: the model's table without its constants,
    and without `word_emb` when it is frozen."""
    fixed = _CONST_ARRAYS + (("word_emb",) if params.freeze_word_emb else ())
    return {name: v for name, v in params.arrays.items() if name not in fixed}


class Gradients(Mapping):
    """The gradients of one step by block name, in `trainable_blocks` order.

    The encoder's first-layer gradient is the product `hist.T @ d_a1` of the batch's
    (#V, batch) counts and a (batch, hidden) array: at (#V, hidden) the largest array a
    step would allocate. It is held as those two factors, and `row_blocks` makes it a
    block of rows at a time. Looking it up makes the whole array once and keeps it, so
    edits to it reach `row_blocks`. A block made from the factors has the bytes of the
    same rows of the whole product: scipy adds each row's terms in the same order.
    """

    def __init__(self, arrays: dict, factors: dict):
        self._arrays = arrays  # name -> array; a factored name maps to None until looked up
        self._factors = factors  # name -> (CSR left factor, dense right factor)

    def __getitem__(self, name) -> np.ndarray:
        g = self._arrays[name]
        if g is None:
            left, right = self._factors.pop(name)
            g = self._arrays[name] = left @ right
        return g

    def __iter__(self):
        return iter(self._arrays)

    def __len__(self) -> int:
        return len(self._arrays)

    def row_blocks(self, name, size: int):
        """(rows, gradient rows) over the block `name`, each about `size` elements and at
        least one row: views of an array, or products of the factors' rows."""
        g = self._arrays[name]
        if g is None:
            left, right = self._factors[name]
            n_rows, row_size = left.shape[0], right.shape[1]
        else:
            n_rows, row_size = len(g), g[:1].size
        step = max(1, size // max(1, row_size))
        for start in range(0, n_rows, step):
            rows = slice(start, start + step)
            yield rows, (left[rows] @ right if g is None else g[rows])


def _forward(params: ModelParams, docs: list[Document], doc_ids, seed: int,
             kl_weight: float, with_grad: bool):
    """Batched single-sample ELBO over the (nnz, #T) support of the batch, and with
    `with_grad` its `Gradients` (None without).

    Only the words a document contains enter its likelihood (Dieng, Ruiz &
    Blei 2020), so words absent from the batch are never touched. The backward
    pass overwrites the forward values in place and frees each after its last
    use (Chen et al. 2016, section 3), so it runs here, once per forward pass.
    """
    arrays = params.arrays
    x = doc_term_matrix(docs, params.n_vocab)
    n_docs, nnz = x.shape[0], x.nnz
    rows = np.repeat(np.arange(n_docs), np.diff(x.indptr))
    lengths = x.sum(axis=1).A1
    hist = sp.csr_matrix((x.data / lengths[rows], x.indices, x.indptr), shape=x.shape)
    ids = np.asarray(doc_ids, dtype=np.int64)
    eps = _noise(seed, n_docs, params.n_topics)

    s1, z1, s2, z2, mean, log_s = _encoder(params, hist)
    s = np.exp(log_s)
    xtil = mean + s * eps
    log_theta = xtil - _logsumexp(xtil)[:, None]
    log_beta, e_t, h1 = _topic_side(params)
    log_joint = log_theta[rows] + log_beta[:, x.indices].T
    log_p = _logsumexp(log_joint)

    m0 = np.zeros_like(mean)
    if params.kind == "modified":
        topic = arrays["assignment"][ids]
        lam = np.exp(arrays["log_lambda"][ids])
        m0[np.arange(n_docs), topic] = lam
    elbo = float(x.data @ log_p) - kl_weight * kl_to_prior(VariationalStats(mean, log_s), m0)
    if not with_grad:
        return elbo, None

    # responsibilities n_{d,w} p(t | w, d), written over log_joint, summed per document and per word
    resp = log_joint
    resp -= log_p[:, None]
    np.exp(resp, out=resp)
    resp *= x.data[:, None]
    r = sp.csr_matrix((np.ones(nnz), np.arange(nnz), x.indptr), shape=(n_docs, nnz)) @ resp
    r_word = sp.csc_matrix((np.ones(nnz), x.indices, np.arange(nnz + 1)),
                           shape=(params.n_vocab, nnz)) @ resp
    del resp, log_joint

    # softmax backprop for theta, then heads and KL terms
    d_xtil = r - np.exp(log_theta) * lengths[:, None]
    d_m = d_xtil + kl_weight * (m0 - mean)
    d_log_s = d_xtil * s * eps + kl_weight * (1.0 - s * s)
    grads = {}
    grads["enc.Wm"] = d_m.T @ z2
    grads["enc.bm"] = d_m.sum(axis=0)
    grads["enc.Ws"] = d_log_s.T @ z2
    grads["enc.bs"] = d_log_s.sum(axis=0)
    del z2
    d_a2 = d_m @ arrays["enc.Wm"]  # d_z2, then times the stored sigmoid
    d_a2 += d_log_s @ arrays["enc.Ws"]
    d_a2 *= s2
    del s2
    grads["enc.W2"] = d_a2.T @ z1
    grads["enc.b2"] = d_a2.sum(axis=0)
    del z1
    d_a1 = d_a2 @ arrays["enc.W2"]
    del d_a2
    d_a1 *= s1
    del s1
    grads["enc.W1"] = None  # made from its factors, a block of rows at a time
    grads["enc.b1"] = d_a1.sum(axis=0)
    factors = {"enc.W1": (hist.T.tocsr(), d_a1)}

    d_logits = r_word.T - np.exp(log_beta) * r.sum(axis=0)[:, None]
    if params.kind == "etm":
        grads["topic_emb"] = d_logits @ arrays["word_emb"]
    else:
        d_e = d_logits @ arrays["word_emb"]
        grads["xi.W2"] = d_e.T @ h1
        grads["xi.b2"] = d_e.sum(axis=0)
        d_a = (d_e @ arrays["xi.W2"]) * (1.0 - h1 * h1)
        grads["xi.W1"] = d_a.T @ arrays["centres"]
        grads["xi.b1"] = d_a.sum(axis=0)
        grads["log_lambda"] = np.bincount(
            ids, weights=kl_weight * lam * (mean[np.arange(n_docs), topic] - lam),
            minlength=arrays["log_lambda"].size)
    if not params.freeze_word_emb:
        grads["word_emb"] = d_logits.T @ e_t
    return elbo, Gradients({name: grads[name] for name in trainable_blocks(params)}, factors)


def elbo_minibatch(params: ModelParams, docs: list[Document], doc_ids, seed: int) -> float:
    """Single-sample reparameterized ELBO summed over the batch."""
    return _forward(params, docs, doc_ids, seed, 1.0, False)[0]


def elbo_and_grad(params: ModelParams, docs: list[Document], doc_ids, seed: int,
                  kl_weight: float = 1.0):
    """ELBO value and its gradients at the same noise draw, in one pass.

    `kl_weight` < 1 gives the annealed objective used early in training.
    Returns (elbo, grads) where grads maps each trainable block's name to its gradient
    (a `Gradients`; the encoder's first layer is made only when looked up).
    """
    return _forward(params, docs, doc_ids, seed, kl_weight, True)


# ---------------------------------------------------------------------------
# checkpoints: length-prefixed JSON header + raw float64/int64 buffers in C order,
# byte-deterministic for identical parameters; the encoder's W1 is stored as (hidden, #V)

def _all_arrays(params: ModelParams) -> dict[str, np.ndarray]:
    """The arrays a checkpoint stores: the word embeddings, then the model's table with
    the encoder's W1 as (hidden, #V)."""
    return {"word_emb": params.arrays["word_emb"], **params.arrays,
            "enc.W1": params.arrays["enc.W1"].T}


def save_checkpoint(params: ModelParams, path) -> None:
    arrays = _all_arrays(params)
    meta = {
        "format": "clustertm-ckpt-v1",
        "kind": params.kind,
        "n_topics": params.n_topics,
        "emb_dim": params.emb_dim,
        "freeze_word_emb": params.freeze_word_emb,
        "arrays": [{"name": k, "shape": list(v.shape), "dtype": str(v.dtype)}
                   for k, v in arrays.items()],
    }
    header = json.dumps(meta, sort_keys=True).encode("utf-8")
    tmp = Path(str(path) + ".tmp")
    with open(tmp, "wb") as f:
        f.write(struct.pack("<Q", len(header)))
        f.write(header)
        for v in arrays.values():
            f.write(v.tobytes(order="C"))
    tmp.replace(path)  # write-then-rename: no partial checkpoints


def load_checkpoint(path) -> tuple[ModelParams, dict]:
    """Parameters and header of a checkpoint. A truncated or garbled file, a kind other than
    etm and modified, arrays other than those its kind stores, an array whose shape
    disagrees with the others or whose dtype is not its kind's, bytes after the last array, or
    a NaN or infinite value raise ModelError. The one exception is -inf in `log_g0`, which
    `training.fit` writes for a vocabulary word no document uses; `log_g0` must still hold a
    finite value.

    The names, their order, the shapes and the dtypes come from a probe model of the file's
    kind whose sizes (#V, #T, H, #D, hidden, R) = (2, 3, 5, 7, 11, 13) are distinct, so each
    dimension of a probe array names one size. The file gives #V by `word_emb`, #T and H by its
    header, hidden by `enc.b1`, #D by `log_lambda` and R by `centres`."""
    data = Path(path).read_bytes()
    with malformed(ModelError, path, "truncated or malformed checkpoint"):
        (hlen,) = struct.unpack_from("<Q", data)
        meta = json.loads(data[8 : 8 + hlen].decode("utf-8"))
        if not isinstance(meta, dict) or meta.get("format") != "clustertm-ckpt-v1":
            raise ModelError(f"{path}: not a clustertm checkpoint")
        kind, names = meta["kind"], [spec["name"] for spec in meta["arrays"]]
        if kind not in ("etm", "modified"):
            raise ModelError(f"{path}: unknown model kind {kind!r}")
        probe = init_params(kind, 2, 3, 5, 7, 11, centres=np.zeros((3, 13)), log_g0=np.zeros(2),
                            assignment=np.zeros(7, dtype=np.int64))
        expected = _all_arrays(probe)
        if names != list(expected):
            raise ModelError(f"{path}: not the arrays of a {kind} checkpoint (missing "
                             f"{[n for n in expected if n not in names]}, unexpected "
                             f"{[n for n in names if n not in expected]})")
        shapes = {spec["name"]: tuple(spec["shape"]) for spec in meta["arrays"]}
        dtypes = {spec["name"]: np.dtype(spec["dtype"]) for spec in meta["arrays"]}
        size = {2: shapes["word_emb"][0], 3: meta["n_topics"], 5: meta["emb_dim"],
                11: shapes["enc.b1"][0]}
        if kind == "modified":
            size.update({7: shapes["log_lambda"][0], 13: shapes["centres"][1]})
        for name, arr in expected.items():
            want = tuple(size[n] for n in arr.shape)
            if shapes[name] != want:
                raise ModelError(f"{path}: array {name!r} has shape {list(shapes[name])}, "
                                 f"expected {list(want)} from the checkpoint's sizes")
            if dtypes[name] != arr.dtype:
                raise ModelError(f"{path}: array {name!r} has dtype {dtypes[name]}, "
                                 f"expected {arr.dtype}")
        arrays, offset = {}, 8 + hlen
        for spec in meta["arrays"]:
            shape, dtype = tuple(spec["shape"]), dtypes[spec["name"]]
            count = int(np.prod(shape))
            arr = np.frombuffer(data, dtype, count, offset).reshape(shape)
            arrays[spec["name"]] = arr.T.copy() if spec["name"] == "enc.W1" else arr.copy()
            offset += count * dtype.itemsize
        if offset != len(data):
            raise ModelError(f"{path}: {len(data) - offset} bytes after the last array")
        log_g0 = arrays.get("log_g0", np.zeros(1))
        if not (all(np.isfinite(arr).all() for name, arr in arrays.items() if name != "log_g0")
                and np.isfinite(log_g0).any()
                and (np.isfinite(log_g0) | (log_g0 == -np.inf)).all()):
            raise ModelError(f"{path}: checkpoint holds NaN or infinite values")
        return ModelParams(kind, {name: arrays[name] for name in probe.arrays},
                           bool(meta["freeze_word_emb"])), meta
