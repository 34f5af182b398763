"""Skip-gram with negative sampling, for pretraining the word embedding table."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .corpus import Corpus


class SgnsError(Exception):
    pass


@dataclass
class SgnsConfig:
    window: int = 5
    negatives: int = 5
    subsample: float = 1e-4
    epochs: int = 5


LR0, LR_MIN = 0.025, 1e-4  # word2vec's linear learning-rate schedule (Mikolov et al. 2013)


@dataclass
class EmbeddingMatrix:
    vectors: np.ndarray  # (#V, H)
    words: list[str]

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


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


def pretrain(corpus: Corpus, dim: int, config: SgnsConfig | None = None, seed: int = 0,
             report: list | None = None) -> EmbeddingMatrix:
    """Train input vectors over the corpus, sequential and deterministic for a given seed.

    If `report` is given, the mean pair loss of each epoch is appended to it.
    """
    config = config or SgnsConfig()
    if dim < 1:
        raise SgnsError("embedding dimension must be >= 1")
    if not corpus.documents:
        raise SgnsError("empty corpus")

    rng = np.random.default_rng(seed)
    n_v = corpus.vocab_size
    w_in = rng.uniform(-0.5 / dim, 0.5 / dim, size=(n_v, dim))
    w_out = np.zeros((n_v, dim))

    g0 = corpus.g0
    # unigram^0.75 negative-sampling distribution
    neg_probs = g0 ** 0.75
    neg_probs /= neg_probs.sum()
    neg_cdf = np.cumsum(neg_probs)
    # keep-probability for frequency subsampling; threshold <= 0 disables it
    if config.subsample > 0:
        keep = np.minimum(1.0, np.sqrt(config.subsample / np.maximum(g0, 1e-300)))
    else:
        keep = np.ones(n_v)

    docs = [np.asarray(d.tokens, dtype=np.int64) for d in corpus.documents]
    total_tokens = sum(len(d) for d in docs)
    total_steps = max(1, config.epochs * total_tokens)
    step = 0

    for _ in range(config.epochs):
        epoch_loss = 0.0
        epoch_pairs = 0
        for toks in docs:
            # the schedule advances per token read, subsampled or not, as in word2vec
            read = np.flatnonzero(rng.random(len(toks)) < keep[toks])
            sent = toks[read]
            for pos, center in enumerate(sent):
                lr = max(LR_MIN, LR0 * (1.0 - (step + read[pos]) / total_steps))
                b = int(rng.integers(1, config.window + 1))
                lo, hi = max(0, pos - b), min(len(sent), pos + b + 1)
                for cpos in range(lo, hi):
                    if cpos == pos:
                        continue
                    context = int(sent[cpos])
                    negs = np.searchsorted(neg_cdf, rng.random(config.negatives)).tolist()
                    loss, g_u, g_out = sgns_loss_and_grad(int(center), context, negs, w_in, w_out)
                    w_in[center] -= lr * g_u
                    for idx, g in g_out.items():
                        w_out[idx] -= lr * g
                    epoch_loss += loss
                    epoch_pairs += 1
            step += len(toks)
        if report is not None:
            report.append(epoch_loss / epoch_pairs if epoch_pairs else 0.0)

    if not np.all(np.isfinite(w_in)):
        raise SgnsError("non-finite embedding after training")
    return EmbeddingMatrix(w_in, list(corpus.vocabulary.words))


def save_embeddings(emb: EmbeddingMatrix, path) -> None:
    lines = [f"{len(emb.words)} {emb.dim}"]
    for word, row in zip(emb.words, emb.vectors):
        lines.append(word + " " + " ".join(repr(float(x)) for x in row))
    Path(path).write_text("\n".join(lines) + "\n", "utf-8")


def load_embeddings(path) -> EmbeddingMatrix:
    lines = Path(path).read_text("utf-8").splitlines()
    try:
        n, dim = map(int, lines[0].split())
        words, rows = [], []
        for line in lines[1 : n + 1]:
            parts = line.split(" ")
            words.append(parts[0])
            rows.append([float(x) for x in parts[1 : dim + 1]])
        vectors = np.asarray(rows)
    except (IndexError, ValueError) as e:
        raise SgnsError(f"{path}: malformed embedding file ({e})") from e
    if vectors.shape != (n, dim):
        raise SgnsError(f"{path}: expected {n}x{dim} embeddings, got {vectors.shape}")
    return EmbeddingMatrix(vectors, words)
