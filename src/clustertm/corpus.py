"""Corpus ingestion: tokenization, filtering, vocabulary and background word frequencies."""

from __future__ import annotations

import itertools
import json
import logging
import re
from collections import Counter
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

import numpy as np
import scipy.sparse as sp

logger = logging.getLogger(__name__)

_EDGE_PUNCT = re.compile(r"^\W+|\W+$", re.UNICODE)
_HAS_DIGIT = re.compile(r"\d")


class CorpusError(Exception):
    pass


def _word_lines(text: str) -> set[str]:
    return {line.strip() for line in text.splitlines() if line.strip()}


def default_stopwords() -> set[str]:
    """Bundled pronoun/preposition/function-word list; editable by passing your own."""
    return _word_lines(resources.files("clustertm.data").joinpath("stopwords.txt").read_text("utf-8"))


def load_stopwords(paths) -> set[str]:
    """One word per line; no files give the empty set."""
    return set().union(*(_word_lines(Path(p).read_text("utf-8")) for p in paths))


def load_lemma_dict(path) -> dict[str, str]:
    """TSV file, one `word<TAB>lemma` pair per line."""
    table: dict[str, str] = {}
    for i, line in enumerate(Path(path).read_text("utf-8").splitlines(), start=1):
        if not line.strip():
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            raise CorpusError(f"{path}:{i}: expected 'word<TAB>lemma', got {line!r}")
        table[parts[0].strip()] = parts[1].strip()
    return table


@dataclass
class PreprocessOptions:
    min_freq: int = 5
    stopwords: set[str] | None = None  # None -> bundled list
    lemma: dict[str, str] | None = None


@dataclass
class Vocabulary:
    words: list[str]
    index: dict[str, int] = field(init=False)

    def __post_init__(self):
        self.index = {w: i for i, w in enumerate(self.words)}
        if len(self.index) != len(self.words):
            raise CorpusError("duplicate words in vocabulary")

    @property
    def size(self) -> int:
        return len(self.words)

    def __eq__(self, other):
        return isinstance(other, Vocabulary) and self.words == other.words


@dataclass
class Document:
    tokens: list[int]  # order preserved

    @property
    def length(self) -> int:
        return len(self.tokens)


def doc_term_matrix(documents: list[Document], n_vocab: int) -> sp.csr_matrix:
    """(#docs, n_vocab) float64 token counts, CSR with sorted column indices.

    The only place token lists become counts. Ids outside [0, n_vocab) raise
    CorpusError.
    """
    lengths = [len(d.tokens) for d in documents]
    ids = np.fromiter(itertools.chain.from_iterable(d.tokens for d in documents),
                      dtype=np.int64, count=sum(lengths))
    bad = ids[(ids < 0) | (ids >= n_vocab)]
    if bad.size:
        raise CorpusError(f"token id {bad[0]} outside vocabulary of size {n_vocab}")
    rows = np.repeat(np.arange(len(documents)), lengths)
    return sp.csr_matrix((np.ones(ids.size), (rows, ids)), shape=(len(documents), n_vocab))


@dataclass
class Corpus:
    documents: list[Document]
    vocabulary: Vocabulary
    doc_term: sp.csr_matrix = field(init=False, repr=False)  # built once from the documents
    g0: np.ndarray = field(init=False)  # relative frequency of each word over all tokens

    def __post_init__(self):
        self.doc_term = doc_term_matrix(self.documents, self.vocabulary.size)
        empty = np.flatnonzero(np.diff(self.doc_term.indptr) == 0)
        if empty.size:
            raise CorpusError(f"document {empty[0]} has no tokens")
        counts = self.doc_term.sum(axis=0).A1
        total = counts.sum()
        if total == 0:
            raise CorpusError("cannot compute background frequencies over zero tokens")
        self.g0 = counts / total

    @property
    def n_docs(self) -> int:
        return len(self.documents)

    @property
    def vocab_size(self) -> int:
        return self.vocabulary.size

    @property
    def total_tokens(self) -> int:
        return sum(d.length for d in self.documents)

    def __eq__(self, other):
        return (
            isinstance(other, Corpus)
            and self.documents == other.documents
            and self.vocabulary == other.vocabulary
        )


def _clean(raw: str) -> str:
    """`raw` (lowercase, no whitespace) with edge punctuation stripped; "" if it holds a digit."""
    tok = _EDGE_PUNCT.sub("", raw)
    return "" if _HAS_DIGIT.search(tok) else tok


def tokenize(text: str) -> list[str]:
    """Lowercase, split on whitespace, strip edge punctuation, drop tokens with digits."""
    return [tok for tok in map(_clean, text.lower().split()) if tok]


def preprocess(raw_docs: list[str], options: PreprocessOptions | None = None) -> Corpus:
    """Clean raw texts into a bag-of-words corpus.

    Pipeline: lowercase/tokenize, optional lemma lookup, stopword removal,
    corpus-frequency filter, drop emptied documents, build vocabulary and
    background frequencies. Dropped-document count is logged.
    """
    options = options or PreprocessOptions()
    if not raw_docs:
        raise CorpusError("no input documents")
    stop = options.stopwords if options.stopwords is not None else default_stopwords()
    lemma = options.lemma or {}

    kept_as: dict[str, str | None] = {}  # raw token -> token after lemma and stopwords, or None
    token_docs = []
    for text in raw_docs:
        raws = text.lower().split()
        for raw in set(raws).difference(kept_as):
            tok = _clean(raw)
            tok = lemma.get(tok, tok) if tok else None
            kept_as[raw] = None if tok in stop else tok
        token_docs.append([kept_as[raw] for raw in raws if kept_as[raw] is not None])

    freq = Counter(t for toks in token_docs for t in toks)
    kept = {w for w, c in freq.items() if c >= options.min_freq}
    token_docs = [[t for t in toks if t in kept] for toks in token_docs]

    n_dropped = sum(1 for toks in token_docs if not toks)
    if n_dropped:
        logger.info("preprocess: dropped %d empty documents", n_dropped)
    token_docs = [toks for toks in token_docs if toks]
    if not token_docs:
        raise CorpusError("all documents were filtered out")

    vocab = Vocabulary(sorted(kept))
    documents = [Document([vocab.index[t] for t in toks]) for toks in token_docs]
    return Corpus(documents, vocab)


def read_texts(path) -> list[str]:
    """Directory of .txt files (one document each) or a JSON-lines file with field `text`."""
    p = Path(path)
    if p.is_dir():
        files = sorted(p.glob("*.txt"))
        if not files:
            raise CorpusError(f"{p}: no .txt files found")
        return [f.read_text("utf-8") for f in files]
    texts = []
    for i, line in enumerate(p.read_text("utf-8").splitlines(), start=1):
        if not line.strip():
            continue
        try:
            rec = json.loads(line)
            texts.append(rec["text"])
        except (json.JSONDecodeError, KeyError, TypeError) as e:
            raise CorpusError(f"{p}:{i}: bad JSON-lines record ({e})") from e
    if not texts:
        raise CorpusError(f"{p}: no documents found")
    return texts


def save_corpus(corpus: Corpus, path) -> None:
    payload = {
        "vocab": corpus.vocabulary.words,
        "docs": [d.tokens for d in corpus.documents],
    }
    Path(path).write_text(json.dumps(payload), "utf-8")


def load_corpus(path) -> Corpus:
    try:
        payload = json.loads(Path(path).read_text("utf-8"))
        vocab = Vocabulary(payload["vocab"])
        docs = [Document(list(toks)) for toks in payload["docs"]]
    except (json.JSONDecodeError, KeyError, TypeError, ValueError) as e:
        raise CorpusError(f"{path}: malformed corpus file ({e})") from e
    bad = [t for d in docs for t in d.tokens if type(t) is not int]  # bool is not int here
    if bad:
        raise CorpusError(f"{path}: token id {bad[0]!r} is not an integer")
    try:
        return Corpus(docs, vocab)
    except CorpusError as e:
        raise CorpusError(f"{path}: {e}") from e
