import json
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clustertm.corpus import (Corpus, CorpusError, Document, PreprocessOptions,
                              Vocabulary, doc_term_matrix, load_corpus,
                              preprocess, read_texts, save_corpus, tokenize)
from conftest import make_corpus


def test_tokenize_lowercases_and_strips_punctuation():
    assert tokenize("The cat, the CAT!") == ["the", "cat", "the", "cat"]


def test_tokenize_drops_digit_and_symbol_tokens():
    assert tokenize("route 66 -- ok?") == ["route", "ok"]


def test_preprocess_stopwords_and_counts():
    corpus = preprocess(["The cat, the CAT!"],
                        PreprocessOptions(min_freq=1, stopwords={"the"}))
    assert corpus.vocabulary.words == ["cat"]
    assert corpus.n_docs == 1
    assert corpus.documents[0].tokens == [0, 0]


RAW_TOKENS = st.sampled_from(["Cat,", "cat", "CAT!", "(cat)", "r2d2", "66", "--", "...",
                               "Über", "über.", "naïve", "ΣΊΣΥΦΟΣ", "日本語", "'quoted'",
                               "e.g.", "_x_", "dog", "Dogs", "the", "a"])
TEXTS = st.lists(st.lists(RAW_TOKENS | st.text(max_size=6), max_size=12).map(" ".join)
                 | st.text(max_size=30), min_size=1, max_size=6)


def token_by_token(texts, stop, lemma, min_freq):
    """Word lists that `preprocess` keeps, from `tokenize` called on each text."""
    docs = [[t for t in (lemma.get(t, t) for t in tokenize(text)) if t not in stop]
            for text in texts]
    freq = Counter(t for doc in docs for t in doc)
    return [d for d in ([t for t in doc if freq[t] >= min_freq] for doc in docs) if d]


@settings(max_examples=300, deadline=None)
@given(TEXTS, st.sampled_from([set(), {"the", "a", "dog"}]),
       st.sampled_from([{}, {"dogs": "dog", "cat": "feline", "über": ""}]), st.integers(1, 2))
def test_preprocess_matches_token_by_token_tokenize(texts, stop, lemma, min_freq):
    want = token_by_token(texts, stop, lemma, min_freq)
    options = PreprocessOptions(min_freq=min_freq, stopwords=stop, lemma=lemma)
    if not want:
        with pytest.raises(CorpusError):
            preprocess(texts, options)
        return
    corpus = preprocess(texts, options)
    assert corpus.vocabulary.words == sorted({t for doc in want for t in doc})
    assert [[corpus.vocabulary.words[i] for i in d.tokens] for d in corpus.documents] == want


def test_preprocess_single_token_corpus():
    corpus = preprocess(["a"], PreprocessOptions(min_freq=1, stopwords=set()))
    assert corpus.vocabulary.words == ["a"]
    assert corpus.g0.tolist() == [1.0]


def test_preprocess_lemma_dictionary():
    corpus = preprocess(["cats cat"], PreprocessOptions(
        min_freq=1, stopwords=set(), lemma={"cats": "cat"}))
    assert corpus.vocabulary.words == ["cat"]
    assert corpus.documents[0].length == 2


def test_preprocess_min_freq_filter_and_document_drop():
    corpus = preprocess(["apple apple apple", "zebra", "apple zebra"],
                        PreprocessOptions(min_freq=3, stopwords=set()))
    assert corpus.vocabulary.words == ["apple"]
    assert corpus.n_docs == 2  # the zebra-only document is dropped


def test_preprocess_all_filtered_raises():
    with pytest.raises(CorpusError):
        preprocess(["the the"], PreprocessOptions(min_freq=1, stopwords={"the"}))
    with pytest.raises(CorpusError):
        preprocess([], PreprocessOptions(min_freq=1, stopwords=set()))


def test_preprocess_idempotent_on_own_output():
    corpus = preprocess(["apple orange apple", "orange pear orange apple"],
                        PreprocessOptions(min_freq=2, stopwords=set()))
    texts = [" ".join(corpus.vocabulary.words[v] for v in d.tokens)
             for d in corpus.documents]
    again = preprocess(texts, PreprocessOptions(min_freq=1, stopwords=set()))
    assert again.vocabulary.words == corpus.vocabulary.words
    assert [d.tokens for d in again.documents] == [d.tokens for d in corpus.documents]


def test_compute_g0_hand_counted():
    assert Corpus([Document([0, 0, 1])],
                  Vocabulary(["a", "b"])).g0.tolist() == [2 / 3, 1 / 3]
    assert Corpus([Document([0])], Vocabulary(["a"])).g0.tolist() == [1.0]
    g0 = Corpus([Document([0]), Document([1, 1, 1])], Vocabulary(["a", "b"])).g0
    assert g0.tolist() == [0.25, 0.75]


def test_g0_invariants_on_random_corpus():
    rng = np.random.default_rng(7)
    corpus = make_corpus([[int(x) for x in rng.integers(0, 30, size=rng.integers(1, 40))]
                          for _ in range(25)])
    assert abs(corpus.g0.sum() - 1.0) < 1e-9
    present = np.unique([t for d in corpus.documents for t in d.tokens])
    assert (corpus.g0[present] >= 1.0 / corpus.total_tokens - 1e-15).all()


def test_document_counts_match_length():
    doc = Document([3, 1, 3, 3])
    counts = doc_term_matrix([doc], 5)
    assert counts.toarray().tolist() == [[0.0, 1.0, 0.0, 3.0, 0.0]]
    assert counts.sum() == doc.length == 4


def test_doc_term_matrix_hand_counted():
    x = doc_term_matrix([Document([2, 0, 2]), Document([1]), Document([])], 3)
    assert x.shape == (3, 3)
    assert x.toarray().tolist() == [[1.0, 0.0, 2.0], [0.0, 1.0, 0.0], [0.0, 0.0, 0.0]]
    assert x.indices.tolist() == [0, 2, 1]  # sorted within each row


def test_doc_term_matrix_rejects_ids_outside_vocabulary():
    for bad in ([-1, 0], [0, 3]):
        with pytest.raises(CorpusError):
            doc_term_matrix([Document(bad)], 3)


def test_corpus_roundtrip(tmp_path):
    corpus = make_corpus([[0, 1, 1], [2, 0]])
    path = tmp_path / "corpus.json"
    save_corpus(corpus, path)
    back = load_corpus(path)
    assert back.vocabulary.words == corpus.vocabulary.words
    assert [d.tokens for d in back.documents] == [d.tokens for d in corpus.documents]
    assert np.allclose(back.g0, corpus.g0, atol=1e-12)


def test_corpus_file_holds_vocab_and_docs_and_ignores_stored_g0(tmp_path):
    path = tmp_path / "corpus.json"
    save_corpus(make_corpus([[0, 1, 1]], words=["a", "b"]), path)
    payload = json.loads(path.read_text("utf-8"))
    assert sorted(payload) == ["docs", "vocab"]
    # an older file also stored g0; it is derived from the documents instead
    path.write_text(json.dumps({**payload, "g0": [0.5, 0.5]}), "utf-8")
    assert load_corpus(path).g0.tolist() == [1 / 3, 2 / 3]


def test_load_corpus_malformed_file(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json", "utf-8")
    with pytest.raises(CorpusError):
        load_corpus(path)


# older-layout files: the stored g0 is ignored, the ids are not
@pytest.mark.parametrize("docs,g0", [
    ([[0, -1]], [0.5, 0.5]),  # negative id
    ([[0, 2]], [0.5, 0.5]),  # id past the vocabulary
])
def test_load_corpus_rejects_inconsistent_content(tmp_path, docs, g0):
    path = tmp_path / "corpus.json"
    path.write_text(json.dumps({"vocab": ["a", "b"], "docs": docs, "g0": g0}), "utf-8")
    with pytest.raises(CorpusError) as err:
        load_corpus(path)
    assert "\n" not in str(err.value)


@pytest.mark.parametrize("bad", [1.7, "2", True])
def test_load_corpus_rejects_token_ids_that_are_not_integers(tmp_path, bad):
    path = tmp_path / "corpus.json"
    path.write_text(json.dumps({"vocab": ["a", "b", "c"], "docs": [[0, 1], [bad, 2]]}), "utf-8")
    with pytest.raises(CorpusError, match="not an integer") as err:
        load_corpus(path)
    assert repr(bad) in str(err.value) and "\n" not in str(err.value)


def test_read_texts_directory_and_jsonl(tmp_path):
    d = tmp_path / "docs"
    d.mkdir()
    (d / "b.txt").write_text("second doc", "utf-8")
    (d / "a.txt").write_text("first doc", "utf-8")
    assert read_texts(d) == ["first doc", "second doc"]

    j = tmp_path / "docs.jsonl"
    j.write_text("\n".join(json.dumps({"text": t}) for t in ["x", "y"]), "utf-8")
    assert read_texts(j) == ["x", "y"]
