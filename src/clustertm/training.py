"""Minibatched ELBO ascent with Adam, plus the multi-model experiment driver."""

from __future__ import annotations

import json
import logging
import time
from dataclasses import dataclass, field, asdict

import numpy as np

from . import lda_baseline, metrics, model, sgns
from .cluster import ClusterModel
from .corpus import Corpus

logger = logging.getLogger(__name__)
# Adam updates a block in flat chunks of this many elements, so that its passes over
# the block, the gradient, both moments and two temporaries stay in cache.
ADAM_CHUNK = 1 << 14


class TrainingError(Exception):
    pass


@dataclass
class TrainConfig:
    model_kind: str = "modified"  # "etm" | "modified"
    n_topics: int = 50
    emb_dim: int = 200
    hidden: int = 800
    epochs: int = 100
    batch_size: int = 512
    learning_rate: float = 2e-3
    kl_anneal_epochs: int = 0  # 0 disables annealing
    seed: int = 0
    freeze_word_emb: bool = False

    def __post_init__(self):
        if self.model_kind not in ("etm", "modified"):
            raise TrainingError(f"unknown model kind {self.model_kind!r}")
        for name in ("n_topics", "emb_dim", "hidden", "epochs", "batch_size"):
            if getattr(self, name) < 1:
                raise TrainingError(f"{name} must be >= 1, got {getattr(self, name)!r}")
        if self.kl_anneal_epochs < 0:
            raise TrainingError(f"kl_anneal_epochs must be >= 0, got {self.kl_anneal_epochs!r}")
        if not 0 < self.learning_rate < np.inf:  # also rejects NaN
            raise TrainingError(f"learning_rate must be finite and > 0, got {self.learning_rate!r}")


@dataclass
class TrainReport:
    epoch_elbo: list[float] = field(default_factory=list)  # mean per document
    wall_time: float = 0.0
    warnings: list[str] = field(default_factory=list)

    def to_json(self) -> str:
        """Deterministic serialization: wall time is process noise and stays out."""
        payload = asdict(self)
        payload.pop("wall_time")
        return json.dumps(payload, sort_keys=True)


class Adam:
    beta1, beta2, eps = 0.9, 0.999, 1e-8  # the published defaults (Kingma & Ba 2015)

    def __init__(self, lr):
        self.lr = lr
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}
        self.t = 0

    def step(self, blocks: dict[str, np.ndarray], grads: dict[str, np.ndarray], scale,
             decayed):
        """Ascent step (gradients point uphill) on the gradients times `scale`, after which
        the blocks named in `decayed` shrink by the weight decay."""
        self.t += 1
        for name, g in grads.items():
            if name not in self.m:
                self.m[name] = np.zeros_like(blocks[name])
                self.v[name] = np.zeros_like(blocks[name])
            self._update(blocks[name], g, self.m[name], self.v[name], scale, name in decayed)

    def _update(self, block, g, m, v, scale, decay: bool):
        """In place, chunk by chunk, in the operation order of g *= scale,
        m = b1*m + (1-b1)*g, v = b2*v + ((1-b2)*g)*g, block += (lr*m_hat) / (sqrt(v_hat) + eps),
        then block *= 1 - WEIGHT_DECAY if `decay`: one pass over the block.

        `block`, `m` and `v` must be C-contiguous: their flat views are written. A
        gradient in another layout is copied into the block's layout first. The model's
        gradients are all C-ordered, so none is copied.
        """
        if not all(a.flags.c_contiguous for a in (block, m, v)):
            raise TrainingError("Adam updates C-contiguous blocks and moments in place")
        block, m, v, g = (a.reshape(-1) for a in (block, m, v, g))
        c1, c2 = 1 - self.beta1 ** self.t, 1 - self.beta2 ** self.t
        tmp_buf, den_buf = np.empty((2, min(ADAM_CHUNK, g.size)))
        for start in range(0, g.size, ADAM_CHUNK):
            sl = slice(start, start + ADAM_CHUNK)
            gc, mc, vc, bc = g[sl], m[sl], v[sl], block[sl]
            tmp, den = tmp_buf[: gc.size], den_buf[: gc.size]
            gc *= scale
            mc *= self.beta1
            mc += np.multiply(gc, 1 - self.beta1, out=tmp)
            vc *= self.beta2
            np.multiply(gc, 1 - self.beta2, out=tmp)
            vc += np.multiply(tmp, gc, out=tmp)
            np.divide(vc, c2, out=den)
            np.sqrt(den, out=den)
            den += self.eps
            np.divide(mc, c1, out=tmp)
            tmp *= self.lr
            tmp /= den
            bc += tmp
            if decay:
                bc *= 1.0 - WEIGHT_DECAY


# ETM's training choices (Dieng, Ruiz & Blei 2020): decay of the encoder weights only
_DECAYED = ("enc.W1", "enc.W2", "enc.Wm", "enc.Ws")
WEIGHT_DECAY = 1.2e-6
GRAD_CLIP = 5.0


def _global_norm(grads: dict[str, np.ndarray], epoch: int):
    """The gradients' global L2 norm from one dot product per block, which overflows to
    inf without a warning. The blocks are scanned only when it is not finite, and a
    block holding NaN or an infinity raises TrainingError by name."""
    norm = np.sqrt(sum(float(np.vdot(g, g)) for g in grads.values()))
    if not np.isfinite(norm):
        for name, g in grads.items():
            if not np.isfinite(g).all():
                raise TrainingError(f"non-finite gradient in block {name!r} at epoch {epoch}")
    return norm


def _step(params: model.ModelParams, opt: Adam, docs, ids, seed: int, kl_weight: float,
          epoch: int) -> tuple[float, bool]:
    """One Adam step on a batch: its ELBO and whether the gradient was clipped. The
    gradients are freed on return, before the next batch's backward pass.

    The summed gradient is clipped when its norm exceeds GRAD_CLIP per document, a bound
    on the batch mean. Adam's single chunked pass scales it to the mean, or to the clip,
    then steps and decays. An infinite norm from finite gradients clips them with scale
    0: a zero step."""
    value, grads = model.elbo_and_grad(params, docs, ids, seed, kl_weight=kl_weight)
    if not np.isfinite(value):
        raise TrainingError(f"non-finite ELBO at epoch {epoch}")
    norm = _global_norm(grads, epoch)
    clipped = bool(norm > GRAD_CLIP * len(docs))
    opt.step(model.trainable_blocks(params), grads,
             GRAD_CLIP / norm if clipped else 1.0 / len(docs), _DECAYED)
    return value, clipped


def fit(corpus: Corpus, cluster_model: ClusterModel | None, config: TrainConfig,
        embeddings: sgns.EmbeddingMatrix | None = None) -> tuple[model.ModelParams, TrainReport]:
    """Train an ETM variant by minibatched ELBO ascent; deterministic given the seed. The
    word embedding table starts from `embeddings` when given, else at random."""
    if config.model_kind == "modified" and cluster_model is None:
        raise TrainingError("modified model requires a cluster model (--clusters)")

    kw = {}
    if embeddings is not None:
        sgns.check_vocabulary(embeddings, corpus)
        if embeddings.dim != config.emb_dim:
            raise TrainingError(f"pretrained dim {embeddings.dim} != configured emb_dim "
                                f"{config.emb_dim}")
        kw["word_emb"] = embeddings.vectors
    if config.model_kind == "modified":
        kw.update(centres=cluster_model.centres,
                  log_g0=np.log(corpus.g0, out=np.full_like(corpus.g0, -np.inf),
                                where=corpus.g0 > 0),  # an unused word: -inf, no warning
                  assignment=cluster_model.assignment)
    params = model.init_params(
        config.model_kind, corpus.vocab_size, config.n_topics, config.emb_dim,
        corpus.n_docs, hidden=config.hidden, seed=config.seed,
        freeze_word_emb=config.freeze_word_emb, **kw)

    rng = np.random.default_rng(config.seed + 1)
    batch = min(config.batch_size, corpus.n_docs)
    opt = Adam(config.learning_rate)
    report = TrainReport()
    t0 = time.monotonic()
    step_seed = config.seed * 1_000_003

    for epoch in range(config.epochs):
        order = rng.permutation(corpus.n_docs)
        epoch_elbo = 0.0
        clipped = 0
        kl_w = min(1.0, (epoch + 1) / config.kl_anneal_epochs) if config.kl_anneal_epochs else 1.0
        for start in range(0, corpus.n_docs, batch):
            ids = order[start : start + batch]
            docs = [corpus.documents[d] for d in ids]
            step_seed += 1
            value, was_clipped = _step(params, opt, docs, ids, step_seed, kl_w, epoch)
            clipped += was_clipped
            epoch_elbo += value
        report.epoch_elbo.append(epoch_elbo / corpus.n_docs)
        if clipped:
            n_steps = len(range(0, corpus.n_docs, batch))
            report.warnings.append(f"epoch {epoch}: gradient clipped at {clipped} of {n_steps} steps")

    report.wall_time = time.monotonic() - t0
    return params, report


def run_experiment(corpus: Corpus, configs: list[dict], cluster_model: ClusterModel | None = None,
                   n_top: int = metrics.N_TOP) -> list[dict]:
    """Train and evaluate each requested variant; one result row per config.

    Each config dict needs `model` in {"lda", "etm", "modified"} plus keyword
    overrides for TrainConfig (neural) or fit_lda (LDA).
    """
    rows = []
    for spec in configs:
        spec = dict(spec)
        kind = spec.pop("model")
        label = spec.pop("label", kind)
        if kind == "lda":
            state = lda_baseline.fit_lda(corpus, spec.pop("n_topics", TrainConfig.n_topics), **spec)
            topic_word = lda_baseline.lda_topic_word(state)
        elif kind in ("etm", "modified"):
            params, _ = fit(corpus, cluster_model, TrainConfig(model_kind=kind, **spec))
            topic_word = np.exp(model.log_topic_word_matrix(params))
        else:
            raise TrainingError(f"unknown model kind {kind!r}")
        tops = metrics.top_words_from_matrix(topic_word, n_top)
        rep = metrics.evaluate_topics(corpus, tops, n_top)
        rows.append({"label": label, "model": kind, "tc": rep.tc, "wswf": rep.wswf,
                     "per_topic_tc": rep.per_topic_tc, "per_topic_wswf": rep.per_topic_wswf})
        logger.info("experiment %s: TC=%.4f WSWF=%.4f", label, rep.tc, rep.wswf)
    return rows
