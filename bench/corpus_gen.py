"""Planted-topic corpora for the benchmark, generated from a seed.

Every token is drawn by vectorised inverse-CDF sampling, so generation stays
a small share of set-up time. Words are letter-only syllable strings that are
not stopwords: `clustertm.corpus.tokenize` drops any token with a digit and
`preprocess` drops stopwords, so names like `w001` would vanish. The
vocabulary is re-indexed to the words that actually occur, because a word
with zero background frequency makes `fit` fail with a non-finite ELBO.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_CONSONANTS = "bdfgklmnprstvz"
_VOWELS = "aeiou"
_SYLLABLES = [c + v for c in _CONSONANTS for v in _VOWELS]


@dataclass
class PlantedCorpus:
    words: list[str]  # vocabulary, indexed by word id
    docs: list[np.ndarray]  # word ids of each document, in order
    topic_word: np.ndarray  # (topics, len(words)) planted distributions, rows sum to 1

    @property
    def n_tokens(self) -> int:
        return int(sum(len(d) for d in self.docs))

    def support_fraction(self) -> float:
        """Distinct (document, word) pairs over docs x vocabulary."""
        nnz = sum(len(np.unique(d)) for d in self.docs)
        return nnz / (len(self.docs) * len(self.words))


def make_words(n: int, exclude: set[str]) -> list[str]:
    """`n` distinct three-syllable words, none of them in `exclude`."""
    k = len(_SYLLABLES)
    out = []
    i = 0
    while len(out) < n:
        w = _SYLLABLES[i // (k * k) % k] + _SYLLABLES[i // k % k] + _SYLLABLES[i % k]
        if w not in exclude:
            out.append(w)
        i += 1
    return out


def planted_topic_word(n_topics: int, block: int, n_common: int, common_mass: float,
                       zipf_exp: float, rng: np.random.Generator) -> np.ndarray:
    """Disjoint Zipf blocks of `block` words per topic, plus shared common words.

    The common words carry `common_mass` of every topic, skewed across topics
    so that each still co-occurs preferentially with some blocks.
    """
    n_vocab = n_common + n_topics * block
    beta = np.zeros((n_topics, n_vocab))
    w = np.arange(1, block + 1, dtype=float) ** (-zipf_exp)
    w *= (1.0 - common_mass) / w.sum()
    for t in range(n_topics):
        lo = n_common + t * block
        beta[t, lo:lo + block] = w
    skew = rng.dirichlet(np.full(n_topics, 3.0), size=n_common)  # (common, topics)
    beta[:, :n_common] = (common_mass / n_common) * skew.T * n_topics
    return beta / beta.sum(axis=1, keepdims=True)


def generate(seed: int, n_docs: int, n_topics: int, block: int, len_lo: int, len_hi: int,
             exclude: set[str], n_common: int = 20, common_mass: float = 0.15,
             zipf_exp: float = 1.0, alpha: float = 0.1) -> PlantedCorpus:
    """LDA generative process over `planted_topic_word`, re-indexed to the words used."""
    rng = np.random.default_rng(seed)
    beta = planted_topic_word(n_topics, block, n_common, common_mass, zipf_exp, rng)
    theta = rng.dirichlet(np.full(n_topics, alpha), size=n_docs)
    lengths = rng.integers(len_lo, len_hi + 1, size=n_docs)
    doc_of = np.repeat(np.arange(n_docs), lengths)

    theta_cdf = np.cumsum(theta, axis=1)
    z = (theta_cdf[doc_of] < rng.random(doc_of.size)[:, None]).sum(axis=1)
    np.minimum(z, n_topics - 1, out=z)
    u = rng.random(doc_of.size)
    tokens = np.empty(doc_of.size, dtype=np.int64)
    beta_cdf = np.cumsum(beta, axis=1)
    for t in range(n_topics):
        sel = z == t
        tokens[sel] = np.searchsorted(beta_cdf[t], u[sel], side="right")
    np.minimum(tokens, beta.shape[1] - 1, out=tokens)

    used = np.unique(tokens)
    remap = np.full(beta.shape[1], -1, dtype=np.int64)
    remap[used] = np.arange(used.size)
    tokens = remap[tokens]
    topic_word = beta[:, used]
    topic_word /= topic_word.sum(axis=1, keepdims=True)
    docs = np.split(tokens, np.cumsum(lengths)[:-1])
    return PlantedCorpus(make_words(used.size, exclude), docs, topic_word)
