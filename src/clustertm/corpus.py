"""Corpus ingestion: tokenization, filtering, vocabulary and background word frequencies."""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import logging
import re
import struct
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


# Any reader's sign of a malformed file; ValueError covers JSONDecodeError and UnicodeDecodeError
MALFORMED = (ValueError, KeyError, TypeError, IndexError, OverflowError, RecursionError, struct.error)


@contextlib.contextmanager
def malformed(error: type[Exception], path, what: str):
    """Re-raise a MALFORMED exception as `error`: "<path>: <what> (<e>)" or "missing key"."""
    try:
        yield
    except MALFORMED as e:
        reason = f"missing key {e}" if isinstance(e, KeyError) else f"{what} ({e})"
        raise error(f"{path}: {reason}") from e


def read_text(path, error: type[Exception]) -> str:
    """The text of a UTF-8 file; other bytes raise `error` naming the file."""
    with malformed(error, path, "not UTF-8 text"):
        return Path(path).read_text("utf-8")


def is_int(x) -> bool:
    """A Python or numpy integer, but not a bool."""
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def check_int(error: type[Exception], name: str, value, low: int) -> None:
    """Raise `error`, naming the setting, unless `value` is an integer >= `low`."""
    if not (is_int(value) and value >= low):
        raise error(f"{name} must be an integer >= {low}, got {value!r}")


def _word_lines(text: str) -> set[str]:
    return {line.strip() for line in text.splitlines() if line.strip()}


def default_stopwords() -> set[str]:
    """Bundled pronoun/preposition/function-word list; editable by passing your own."""
    return _word_lines(resources.files("clustertm.data").joinpath("stopwords.txt").read_text("utf-8"))


def load_stopwords(paths) -> set[str]:
    """One word per line; no files give the empty set."""
    return set().union(*(_word_lines(read_text(p, CorpusError)) for p in paths))


def load_lemma_dict(path) -> dict[str, str]:
    """TSV file, one `word<TAB>lemma` pair per line; a lemma is one word, without spaces."""
    table: dict[str, str] = {}
    for i, line in enumerate(read_text(path, CorpusError).splitlines(), start=1):
        if not line.strip():
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            raise CorpusError(f"{path}:{i}: expected 'word<TAB>lemma', got {line!r}")
        lemma = parts[1].strip()
        if not lemma or len(lemma.split()) > 1:
            raise CorpusError(f"{path}:{i}: a lemma is one word without spaces, got {lemma!r}")
        table[parts[0].strip()] = lemma
    return table


@dataclass
class PreprocessOptions:
    min_freq: int = 5
    stopwords: set[str] | None = None  # None -> bundled list
    lemma: dict[str, str] | None = None

    def __post_init__(self):
        check_int(CorpusError, "min_freq", self.min_freq, 1)


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


@dataclass
class Document:
    tokens: list[int]  # order preserved


def token_array(lists: list[list[int]], n_vocab: int) -> tuple[np.ndarray, np.ndarray]:
    """Id lists as one int64 array and (#lists + 1,) offsets, list d being tokens[starts[d]:
    starts[d + 1]]: the only place id lists become an array. An id beyond int64 raises
    CorpusError here, one outside [0, n_vocab) when the counts are made."""
    starts = np.cumsum([0] + [len(t) for t in lists])
    try:
        tokens = np.fromiter(itertools.chain.from_iterable(lists), dtype=np.int64,
                             count=int(starts[-1]))
    except OverflowError as e:
        raise CorpusError(f"token id outside vocabulary of size {n_vocab} ({e})") from e
    return tokens, starts


def _doc_term(tokens: np.ndarray, starts: np.ndarray, n_vocab: int) -> sp.csr_matrix:
    """(#docs, n_vocab) float64 token counts, CSR with sorted column indices.

    The only place token ids become counts. The distinct keys row * n_vocab + id, in
    sorted order, give the columns row by row, and their multiplicities the counts. Ids
    outside [0, n_vocab) raise CorpusError.
    """
    bad = tokens[(tokens < 0) | (tokens >= n_vocab)]
    if bad.size:
        raise CorpusError(f"token id {bad[0]} outside vocabulary of size {n_vocab}")
    n_docs = len(starts) - 1
    keys, counts = np.unique(np.repeat(np.arange(n_docs) * n_vocab, np.diff(starts)) + tokens,
                             return_counts=True)
    indptr = np.searchsorted(keys, np.arange(n_docs + 1) * n_vocab)
    return sp.csr_matrix((counts, keys % n_vocab, indptr), shape=(n_docs, n_vocab),
                         dtype=np.float64)


def doc_term_matrix(documents: list[Document], n_vocab: int) -> sp.csr_matrix:
    """The token counts of `documents`, as `Corpus.doc_term` holds those of a corpus."""
    return _doc_term(*token_array([d.tokens for d in documents], n_vocab), n_vocab)


@dataclass(eq=False)
class Corpus:
    tokens: np.ndarray  # int64 ids; document d is tokens[starts[d]:starts[d + 1]]
    starts: np.ndarray  # (#docs + 1,) int64 offsets
    vocabulary: Vocabulary
    doc_term: sp.csr_matrix = field(init=False, repr=False)  # built once from `tokens`
    g0: np.ndarray = field(init=False)  # relative frequency of each word over all tokens

    def __post_init__(self):
        if len(self.starts) < 2 or self.starts[0] != 0 or self.starts[-1] != len(self.tokens):
            raise CorpusError(f"need a document or more, and offsets from 0 to {len(self.tokens)}")
        empty = np.flatnonzero(np.diff(self.starts) <= 0)
        if empty.size:
            raise CorpusError(f"document {empty[0]} has no tokens")
        self.doc_term = _doc_term(self.tokens, self.starts, self.vocabulary.size)
        self.g0 = np.bincount(self.tokens, minlength=self.vocab_size) / self.total_tokens

    @functools.cached_property
    def documents(self) -> list[Document]:
        """Each document's ids as Python ints, made on first use; one int object per word."""
        flat = np.arange(self.vocab_size).astype(object)[self.tokens].tolist()
        return [Document(flat[a:b]) for a, b in itertools.pairwise(self.starts.tolist())]

    @property
    def n_docs(self) -> int:
        return len(self.starts) - 1

    @property
    def vocab_size(self) -> int:
        return self.vocabulary.size

    @property
    def total_tokens(self) -> int:
        return len(self.tokens)


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
    background frequencies. Dropped-document count is logged. Each distinct raw
    token is cleaned once; numpy counts, filters and renumbers the term ids.
    """
    options = options or PreprocessOptions()
    if not raw_docs:
        raise CorpusError("no input documents")
    stop = options.stopwords if options.stopwords is not None else default_stopwords()
    lemma = options.lemma or {}

    terms: dict[str, int] = {}  # kept token -> provisional term id, in the order first seen
    lengths: list[int] = []  # raw tokens per document

    @functools.cache  # each distinct raw token is cleaned once
    def term_id(raw: str) -> int:  # -1 for a stopword or a token that cleans to nothing
        tok = _clean(raw)
        tok = lemma.get(tok, tok) if tok else None
        return -1 if tok is None or tok in stop else terms.setdefault(tok, len(terms))

    def split(text: str) -> list[str]:
        raws = text.lower().split()
        lengths.append(len(raws))
        return raws

    tokens = itertools.chain.from_iterable(map(split, raw_docs))
    ids = np.fromiter(map(term_id, tokens), dtype=np.int64)
    freq = np.bincount(ids[ids >= 0], minlength=len(terms))
    words = sorted(w for w, c in zip(terms, freq.tolist()) if c >= options.min_freq)
    renumber = np.full(len(terms) + 1, -1)  # the last slot keeps a dropped token's -1
    renumber[[terms[w] for w in words]] = np.arange(len(words))
    ids = renumber[ids]
    kept = ids >= 0
    # an emptied document repeats its start, and `unique` drops it
    starts = np.unique(np.concatenate(([0], np.cumsum(kept)))[np.cumsum([0] + lengths)])

    n_dropped = len(raw_docs) + 1 - len(starts)
    if n_dropped:
        logger.info("preprocess: dropped %d empty documents", n_dropped)
    if len(starts) == 1:
        raise CorpusError("all documents were filtered out")
    return Corpus(ids[kept], starts, Vocabulary(words))


def read_texts(path) -> list[str]:
    """Directory of .txt files (one document each) or a JSON-lines file with field `text`."""
    p = Path(path)
    if p.is_dir():
        files = sorted(p.glob("*.txt"))
        if not files:
            raise CorpusError(f"{p}: no .txt files found")
        return [read_text(f, CorpusError) for f in files]
    texts = []
    for i, line in enumerate(read_text(p, CorpusError).splitlines(), start=1):
        if not line.strip():
            continue
        try:
            text = json.loads(line)["text"]
            if not isinstance(text, str):
                raise TypeError(f"'text' holds {type(text).__name__}, not a string")
            texts.append(text)
        except MALFORMED as e:
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
    with malformed(CorpusError, path, "malformed corpus file"):
        payload = json.loads(Path(path).read_text("utf-8"))
        words, docs = payload["vocab"], [list(toks) for toks in payload["docs"]]
    if not (isinstance(words, list) and all(isinstance(w, str) for w in words)):
        raise CorpusError(f"{path}: vocab must be a list of strings, got {words!r:.60}")
    bad = [t for toks in docs for t in toks if type(t) is not int]  # bool is not int here
    if bad:
        raise CorpusError(f"{path}: token id {bad[0]!r} is not an integer")
    try:
        return Corpus(*token_array(docs, len(words)), Vocabulary(words))
    except CorpusError as e:
        raise CorpusError(f"{path}: {e}") from e
