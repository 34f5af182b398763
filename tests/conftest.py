"""Shared fixtures: synthetic corpora with known (planted) topics and helpers."""
from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

from clustertm.corpus import Corpus, Vocabulary, token_array

# Any small JSON value, for the fuzz tests of the file readers: NaN, infinities and integers
# beyond int64 included
JSON = st.recursive(st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3),
                    lambda inner: st.lists(inner, max_size=3)
                    | st.dictionaries(st.text(max_size=3), inner, max_size=3), max_leaves=8)


def json_files(fields: dict) -> st.SearchStrategy[str]:
    """The JSON text of an object with a value drawn for each key of `fields`, less one key
    or none, or of any JSON value."""
    objects = st.fixed_dictionaries(fields).flatmap(lambda obj: st.sets(
        st.sampled_from(sorted(obj)), max_size=1).map(lambda drop: {
            k: v for k, v in obj.items() if k not in drop}))
    return (objects | JSON).map(json.dumps)

# One "PASS/FAIL criterion N: ..." line per acceptance check, echoed at the end
# of the run where pytest's capture cannot hide them.
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def make_corpus(list_of_token_lists, words=None):
    """Corpus from explicit token-id lists (vocabulary ids)."""
    docs = [list(t) for t in list_of_token_lists]
    if words is None:
        n_vocab = max(max(t) for t in list_of_token_lists) + 1
        words = [f"w{i:03d}" for i in range(n_vocab)]
    vocab = Vocabulary(words=list(words))
    return Corpus(*token_array(docs, vocab.size), vocabulary=vocab)


def make_planted(seed, n_docs=500, n_vocab=200, n_topics=5, n_common=10,
                 common_mass=0.2, zipf_exp=1.2, alpha=0.1, len_lo=25, len_hi=50):
    """LDA-generated corpus with sharply peaked (Zipf) topic-word blocks.

    A handful of shared high-frequency words carry `common_mass` of every
    topic, with a per-word skew across topics so that they still co-occur
    preferentially with one block.  Returns (corpus, true_topic_word).
    """
    rng = np.random.default_rng(seed)
    commons = np.arange(n_common)
    blocks = np.array_split(np.arange(n_common, n_vocab), n_topics)
    beta = np.zeros((n_topics, n_vocab))
    for t in range(n_topics):
        ranks = np.arange(1, len(blocks[t]) + 1, dtype=float)
        w = ranks ** (-zipf_exp)
        beta[t, blocks[t]] = (1.0 - common_mass) * w / w.sum()
    per_common = common_mass / n_common
    skew = rng.dirichlet(np.ones(n_topics) * 3.0, size=n_common)
    for t in range(n_topics):
        beta[t, commons] = per_common * skew[:, t] * n_topics
    beta /= beta.sum(axis=1, keepdims=True)

    docs = []
    for _ in range(n_docs):
        theta = rng.dirichlet(np.full(n_topics, alpha))
        length = rng.integers(len_lo, len_hi + 1)
        z = rng.choice(n_topics, size=length, p=theta)
        docs.append([int(rng.choice(n_vocab, p=beta[t])) for t in z])
    vocab = Vocabulary(words=[f"w{i:03d}" for i in range(n_vocab)])
    return Corpus(*token_array(docs, n_vocab), vocabulary=vocab), beta


def aligned_purity(top_ids, true_topic_word, n=10):
    """Hungarian-aligned mean overlap between found and true top-n word sets."""
    n_true = true_topic_word.shape[0]
    true_top = [set(np.argsort(-true_topic_word[t])[:n]) for t in range(n_true)]
    overlap = np.zeros((len(top_ids), n_true))
    for k, ids in enumerate(top_ids):
        found = set(ids[:n])
        for t in range(n_true):
            overlap[k, t] = len(found & true_top[t]) / n
    rows, cols = linear_sum_assignment(-overlap)
    return float(overlap[rows, cols].mean())


def rel_err(a, b, floor=1e-3):
    """Relative error with an absolute floor, for finite-difference checks.

    Central differences at h=1e-5 carry ~1e-9 absolute noise, so coordinates
    whose true gradient is near zero would otherwise fail on noise alone.
    """
    return abs(a - b) / max(abs(a), abs(b), floor)


@pytest.fixture(scope="session")
def tiny_corpus():
    """5 documents over a 20-word vocabulary, fixed content."""
    rng = np.random.default_rng(0)
    lists = []
    for _ in range(5):
        length = rng.integers(5, 12)
        lists.append([int(x) for x in rng.integers(0, 20, size=length)])
    return make_corpus(lists)


@pytest.fixture(scope="session")
def planted():
    corpus, beta = make_planted(seed=1)
    return corpus, beta
