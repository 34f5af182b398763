"""Skip-gram with negative sampling, for pretraining the word embedding table."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .corpus import MALFORMED, Corpus, check_int, read_text


class SgnsError(Exception):
    pass


@dataclass
class SgnsConfig:
    window: int = 5
    negatives: int = 5
    subsample: float = 1e-4
    epochs: int = 5

    def __post_init__(self):
        for name, low in (("window", 1), ("negatives", 0), ("epochs", 0)):
            check_int(SgnsError, name, getattr(self, name), low)
        if not 0 <= self.subsample < np.inf:  # also rejects NaN
            raise SgnsError(f"subsample must be finite and >= 0, got {self.subsample!r}")


LR0, LR_MIN = 0.025, 1e-4  # word2vec's linear learning-rate schedule (Mikolov et al. 2013)
# Output slots (contexts and negatives) per batched update. MAX_SLOTS bounds the (slots, dim)
# gathers whatever the document length. A row's step in a batch is the sum of its pairs'
# steps, all taken at the weights from the start of the batch, so a batch is also cut short
# enough that the likeliest word is expected to fill at most MAX_REPEATS of its slots.
# Without subsampling, on documents of 1000-2000 tokens over 10 to 50 words, SGD diverged
# with 850 or more such slots per batch, and did not with 256.
MAX_SLOTS, MAX_REPEATS = 4096, 64
# Tokens per span of whole documents. A span's keep mask, windows and learning rates are
# drawn at once, so its per-token arrays take about 1 MB together at any corpus size.
SPAN_TOKENS = 1 << 14


@dataclass
class EmbeddingMatrix:
    vectors: np.ndarray  # (#V, H)
    words: list[str]

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def _pair_step(w_in: np.ndarray, w_out: np.ndarray, centres: np.ndarray, outputs: np.ndarray,
               lr: np.ndarray) -> float:
    """One SGD step over a batch of pairs, all scored at the weights on entry.

    `centres` (P,) are input rows; `outputs` (P, 1+K) hold each pair's context
    then its K negatives. Pair p's gradient, that of the negative-sampling loss
    -log s(u.v) - sum_neg log s(-u.v_neg), is scaled by lr[p] and scattered with
    `np.subtract.at`, which adds repeated rows up in a fixed order. Returns the
    summed loss.
    """
    u = w_in[centres]  # (P, D)
    v = w_out[outputs]  # (P, 1+K, D)
    score = _sigmoid(np.einsum("pd,pkd->pk", u, v))
    loss = -(np.log(score[:, 0]).sum() + np.log1p(-score[:, 1:]).sum())
    coef = score
    coef[:, 0] -= 1.0  # sigma - label, with label 1 for the context only
    coef *= lr[:, None]
    _scatter_subtract(w_in, centres, np.einsum("pk,pkd->pd", coef, v))
    _scatter_subtract(w_out, outputs.ravel(), coef[:, :, None] * u[:, None, :])
    return float(loss)


def _scatter_subtract(w: np.ndarray, rows: np.ndarray, updates: np.ndarray) -> None:
    """w[rows[i]] -= updates[i], repeated rows included, through 1-D `np.subtract.at`.

    `w` must be C-contiguous, so that its flat reshape is a view.
    """
    dim = w.shape[1]
    np.subtract.at(w.reshape(-1), (rows[:, None] * dim + np.arange(dim)).ravel(), updates.ravel())


def pretrain(corpus: Corpus, dim: int, config: SgnsConfig | None = None, seed: int = 0,
             report: list | None = None) -> EmbeddingMatrix:
    """Train input vectors over the corpus; deterministic for a given seed.

    Each epoch reads the kept tokens of all documents as one sequence and
    updates the (centre, context, negatives) pairs of `block` consecutive
    centres as one batch, scored at the weights from the start of the batch;
    a batch runs across documents, but a context comes only from its centre's
    own document. A batch holds at most `MAX_SLOTS` output slots, and is cut
    short enough that the likeliest word is expected to fill at most
    `MAX_REPEATS` of them. The keep mask, the dynamic windows and the learning
    rates are drawn a span of about `SPAN_TOKENS` tokens of whole documents at
    a time, the negatives a batch at a time, and a batch ends at its span's
    end. The learning rate of a pair follows word2vec's linear schedule at its
    centre's position among the tokens read. If `report` is given, the mean
    pair loss of each epoch is appended to it.
    """
    config = config or SgnsConfig()
    check_int(SgnsError, "dim", dim, 1)
    check_int(SgnsError, "seed", seed, 0)

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

    ids, doc_starts, total_tokens = corpus.tokens, corpus.starts, corpus.total_tokens
    # spans of whole documents, [spans[i], spans[i + 1]), of at most SPAN_TOKENS tokens
    # unless one document is longer
    spans = [0]
    while spans[-1] < corpus.n_docs:
        end = np.searchsorted(doc_starts, doc_starts[spans[-1]] + SPAN_TOKENS, "right") - 1
        spans.append(max(spans[-1] + 1, int(end)))
    total_steps = max(1, config.epochs * total_tokens)
    offsets = np.concatenate([np.arange(-config.window, 0), np.arange(1, config.window + 1)])
    # centre positions per batch; p_word bounds the chance that a kept centre, a context or
    # a negative is any one word
    kept_freq = g0 * keep
    p_word = max(neg_probs.max(), kept_freq.max() / kept_freq.sum())
    slots = min(MAX_SLOTS, MAX_REPEATS / p_word)
    block = max(1, int(slots) // (len(offsets) * (1 + config.negatives)))

    for epoch in range(config.epochs):
        epoch_loss = 0.0
        epoch_pairs = 0
        for first_doc, end_doc in zip(spans, spans[1:]):
            start = doc_starts[first_doc]
            toks = ids[start:doc_starts[end_doc]]
            # the schedule advances per token read, subsampled or not, as in word2vec
            read = np.flatnonzero(rng.random(len(toks)) < keep[toks])
            sent = toks[read]
            n = len(sent)
            reach = rng.integers(1, config.window + 1, size=n)
            lr = np.maximum(LR_MIN, LR0 * (1.0 - (epoch * total_tokens + start + read)
                                           / total_steps))
            # the offsets [low, high] a kept position may reach: its window, clipped to the
            # kept positions of its document; those of the span's j-th are [edges[j], edges[j+1])
            edges = np.searchsorted(read, doc_starts[first_doc:end_doc + 1] - start)
            kept_per_doc = np.diff(edges)
            here = np.arange(n)
            low = np.maximum(-reach, np.repeat(edges[:-1], kept_per_doc) - here)
            high = np.minimum(reach, np.repeat(edges[1:], kept_per_doc) - 1 - here)
            for lo in range(0, n, block):
                hi = min(n, lo + block)
                ok = (offsets >= low[lo:hi, None]) & (offsets <= high[lo:hi, None])
                rows, cols = np.nonzero(ok)
                centre_pos = lo + rows
                negs = np.searchsorted(neg_cdf, rng.random((len(centre_pos), config.negatives)))
                outputs = np.concatenate([sent[centre_pos + offsets[cols]][:, None], negs], axis=1)
                epoch_loss += _pair_step(w_in, w_out, sent[centre_pos], outputs, lr[centre_pos])
                epoch_pairs += len(centre_pos)
        if report is not None:
            report.append(epoch_loss / epoch_pairs if epoch_pairs else 0.0)

    if not np.all(np.isfinite(w_in)):
        raise SgnsError("non-finite embedding after training")
    return EmbeddingMatrix(w_in, list(corpus.vocabulary.words))


def save_embeddings(emb: EmbeddingMatrix, path) -> None:
    lines = [f"{len(emb.words)} {emb.dim}"]
    for word, row in zip(emb.words, emb.vectors):
        lines.append(word + " " + " ".join(map(repr, row.tolist())))
    Path(path).write_text("\n".join(lines) + "\n", "utf-8")


def load_embeddings(path) -> EmbeddingMatrix:
    """Read a `save_embeddings` file: a `rows dim` header, then exactly `rows` lines of a
    word and `dim` values. Any other shape raises SgnsError naming the line."""
    lines = read_text(path, SgnsError).splitlines()
    i = 1  # the line read, for the error
    try:
        n, dim = map(int, lines[0].split())
        if len(lines) != n + 1:
            i = min(len(lines), n + 1) + 1
            raise ValueError(f"the header says {n} rows, the file holds {len(lines) - 1}")
        words, rows = [], []
        for i, line in enumerate(lines[1:], start=2):
            word, *values = line.split(" ")
            if len(values) != dim:
                raise ValueError(f"{len(values)} values, the header says {dim}")
            words.append(word)
            rows.append(list(map(float, values)))
        vectors = np.asarray(rows, dtype=float).reshape(n, dim)
    except MALFORMED as e:
        raise SgnsError(f"{path}: line {i}: malformed embedding file ({e})") from e
    if not np.isfinite(vectors).all():
        raise SgnsError(f"{path}: embedding file holds NaN or infinite values")
    return EmbeddingMatrix(vectors, words)


def check_vocabulary(emb: EmbeddingMatrix, corpus: Corpus) -> None:
    """Raise SgnsError unless the embedding rows are the corpus words, in corpus order,
    one row of `vectors` per word."""
    if emb.words != corpus.vocabulary.words:
        raise SgnsError(f"embedding vocabulary of {len(emb.words)} words does not match the "
                        f"corpus vocabulary of {corpus.vocab_size}")
    if emb.vectors.ndim != 2 or emb.vectors.shape[0] != len(emb.words):
        raise SgnsError(f"embedding vectors of shape {emb.vectors.shape} need one row for "
                        f"each of {len(emb.words)} words")
