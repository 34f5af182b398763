import json
from collections import Counter

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from clustertm.corpus import (Corpus, CorpusError, Document, PreprocessOptions,
                              Vocabulary, doc_term_matrix, load_corpus,
                              preprocess, read_texts, save_corpus, token_array, tokenize)
from conftest import JSON, make_corpus


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


def test_preprocess_matches_token_by_token_tokenize_on_a_large_corpus():
    """1000 documents over 400 Zipf-weighted words, some capitalised or punctuated, with
    noise tokens, stopwords, a lemma table and min_freq 5, so that rare words are
    filtered and some documents empty."""
    rng = np.random.default_rng(11)
    words = sorted({"".join(rng.choice(list("abcdefghijklmnopqrstuvwxyz"), size=rng.integers(2, 7)))
                    for _ in range(400)})
    noise = ["The", "of", "A", "and", "r2d2", "1999", "--", "...", "(x)", "e.g."]
    raw = words + noise
    weights = 1.0 / np.arange(1, len(raw) + 1)
    forms = ["{}", "{},", "({})", "{}!", "'{}'", "{}.", "{}s"]
    texts = []
    for n in rng.integers(0, 30, size=1000):
        toks = [forms[f].format(raw[i]) for i, f in
                zip(rng.choice(len(raw), size=n, p=weights / weights.sum()),
                    rng.integers(0, len(forms), size=n))]
        texts.append(" ".join(t.upper() if rng.random() < 0.1 else t for t in toks))
    stop = {"the", "of", "a", "and", *words[:5]}
    lemma = {w + "s": w for w in words[::3]} | {words[7]: words[8]}
    want = token_by_token(texts, stop, lemma, 5)
    assert 0 < len(want) < 1000
    corpus = preprocess(texts, PreprocessOptions(min_freq=5, stopwords=stop, lemma=lemma))
    assert corpus.vocabulary.words == sorted({t for doc in want for t in doc})
    assert [[corpus.vocabulary.words[i] for i in d.tokens] for d in corpus.documents] == want


@pytest.mark.parametrize("min_freq", ["5", 2.5, True, 0, None])
def test_preprocess_options_take_min_freq_as_an_integer_of_at_least_one(min_freq):
    with pytest.raises(CorpusError, match=f"min_freq must be an integer >= 1, got {min_freq!r}"):
        PreprocessOptions(min_freq=min_freq)


def test_preprocess_single_token_corpus():
    corpus = preprocess(["a"], PreprocessOptions(min_freq=1, stopwords=set()))
    assert corpus.vocabulary.words == ["a"]
    assert corpus.g0.tolist() == [1.0]


def test_preprocess_lemma_dictionary():
    corpus = preprocess(["cats cat"], PreprocessOptions(
        min_freq=1, stopwords=set(), lemma={"cats": "cat"}))
    assert corpus.vocabulary.words == ["cat"]
    assert len(corpus.documents[0].tokens) == 2


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
    assert Corpus(*token_array([[0, 0, 1]], 2),
                  Vocabulary(["a", "b"])).g0.tolist() == [2 / 3, 1 / 3]
    assert Corpus(*token_array([[0]], 1), Vocabulary(["a"])).g0.tolist() == [1.0]
    g0 = Corpus(*token_array([[0], [1, 1, 1]], 2), Vocabulary(["a", "b"])).g0
    assert g0.tolist() == [0.25, 0.75]


@pytest.mark.parametrize("tokens, starts, named", [
    ([0, 1], [0, 1], "offsets from 0 to 2"), ([0, 1], [0, 3], "offsets from 0 to 2"),
    ([0, 1], [1, 2], "offsets from 0 to 2"), ([], [0], "a document or more"),
    ([0, 1, 1], [0, 2, 1, 3], "document 1 has no tokens"),
    ([0, 1], [0, 0, 2], "document 0 has no tokens")])
def test_corpus_rejects_offsets_that_do_not_cut_its_tokens_into_documents(tokens, starts, named):
    with pytest.raises(CorpusError, match=named):
        Corpus(np.array(tokens, dtype=np.int64), np.array(starts), Vocabulary(["a", "b"]))


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
    assert counts.sum() == len(doc.tokens) == 4


def test_doc_term_matrix_hand_counted():
    x = doc_term_matrix([Document([2, 0, 2]), Document([1]), Document([])], 3)
    assert x.shape == (3, 3)
    assert x.toarray().tolist() == [[1.0, 0.0, 2.0], [0.0, 1.0, 0.0], [0.0, 0.0, 0.0]]
    assert x.indices.tolist() == [0, 2, 1]  # sorted within each row


def test_doc_term_matrix_rejects_ids_outside_vocabulary():
    for bad in ([-1, 0], [0, 3]):
        with pytest.raises(CorpusError):
            doc_term_matrix([Document(bad)], 3)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 3000).flatmap(lambda v: st.tuples(st.just(v), st.lists(
    st.lists(st.integers(0, min(v - 1, 4)) | st.integers(0, v - 1), max_size=8), max_size=12))))
def test_doc_term_matrix_matches_scipy_coo_construction(case):
    n_vocab, docs = case
    got = doc_term_matrix([Document(d) for d in docs], n_vocab)
    rows = np.repeat(np.arange(len(docs)), [len(d) for d in docs])
    ids = np.array([t for d in docs for t in d], dtype=np.int64)
    want = sp.csr_matrix((np.ones(ids.size), (rows, ids)), shape=(len(docs), n_vocab))
    assert got.shape == want.shape
    for name in ("data", "indices", "indptr"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name


def _letters(i: int) -> str:
    """A word without digits for id i; the words sort as their ids do."""
    return "".join(chr(97 + i // 26 ** k % 26) for k in (2, 1, 0))


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 3000).flatmap(lambda v: st.tuples(st.just(v), st.lists(
    st.lists(st.integers(0, v - 1) | st.just(v - 1), min_size=1, max_size=1)
    | st.lists(st.integers(max(0, v - 20), v - 1) | st.integers(0, v - 1), min_size=1,
               max_size=10), min_size=1, max_size=12))))
def test_corpus_holds_one_token_array_and_gives_the_lists_back(tmp_path_factory, case):
    n_vocab, lists = case
    corpus = Corpus(*token_array(lists, n_vocab), Vocabulary([_letters(i) for i in range(n_vocab)]))
    assert corpus.tokens.dtype == corpus.starts.dtype == np.int64
    assert corpus.tokens.tolist() == [t for toks in lists for t in toks]
    assert corpus.starts.tolist() == np.cumsum([0] + [len(toks) for toks in lists]).tolist()
    assert "documents" not in corpus.__dict__
    docs = [d.tokens for d in corpus.documents]
    assert docs == lists and all(type(t) is int for toks in docs for t in toks)
    first: dict[int, int] = {}
    assert all(first.setdefault(t, t) is t for toks in docs for t in toks)  # one object per word
    want = doc_term_matrix(corpus.documents, n_vocab)
    for name in ("data", "indices", "indptr"):
        a, b = getattr(corpus.doc_term, name), getattr(want, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name

    path = tmp_path_factory.getbasetemp() / "array_corpus.json"
    save_corpus(corpus, path)
    saved = path.read_bytes()
    loaded = load_corpus(path)
    assert "documents" not in loaded.__dict__
    save_corpus(loaded, path)
    assert path.read_bytes() == saved

    texts = [" ".join(_letters(t) for t in toks) for toks in lists]
    again = preprocess(texts, PreprocessOptions(min_freq=1, stopwords=set()))
    assert "documents" not in again.__dict__
    words = again.vocabulary.words
    assert [[words[t] for t in d.tokens] for d in again.documents] == [
        [_letters(t) for t in toks] for toks in lists]


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


@pytest.mark.parametrize("vocab", [[1, 2], "ab", ["a", None], {"a": 0, "b": 1}])
def test_load_corpus_rejects_vocab_that_is_not_a_list_of_strings(tmp_path, vocab):
    path = tmp_path / "corpus.json"
    path.write_text(json.dumps({"vocab": vocab, "docs": [[0, 1], [1]]}), "utf-8")
    with pytest.raises(CorpusError, match="vocab must be a list of strings") as err:
        load_corpus(path)
    assert str(err.value).startswith(f"{path}: ") and "\n" not in str(err.value)


def test_load_corpus_names_the_file_for_a_repeated_word(tmp_path):
    path = tmp_path / "corpus.json"
    path.write_text(json.dumps({"vocab": ["a", "a"], "docs": [[0, 1]]}), "utf-8")
    with pytest.raises(CorpusError) as err:
        load_corpus(path)
    assert str(err.value) == f"{path}: duplicate words in vocabulary"


def test_load_corpus_rejects_a_token_id_beyond_int64(tmp_path):
    path = tmp_path / "corpus.json"
    path.write_text(json.dumps({"vocab": ["a", "b"], "docs": [[0, 2**64]]}), "utf-8")
    with pytest.raises(CorpusError, match="token id outside vocabulary of size 2") as err:
        load_corpus(path)
    assert str(err.value).startswith(f"{path}: ") and "\n" not in str(err.value)


def test_load_corpus_names_the_file_for_json_nested_too_deep_to_parse(tmp_path):
    path = tmp_path / "corpus.json"
    path.write_text("[" * 100_000 + "]" * 100_000, "utf-8")
    with pytest.raises(CorpusError) as err:
        load_corpus(path)
    assert str(err.value).startswith(f"{path}: malformed corpus file")


TOKEN_IDS = (st.integers(-2, 4) | st.integers() | st.booleans() | st.floats() | st.text(max_size=2)
             | st.lists(st.integers(0, 2), max_size=2) | st.none())
CORPUS_FILES = st.fixed_dictionaries({}, optional={
    "vocab": st.lists(st.sampled_from("abcd"), min_size=3, max_size=4, unique=True)
    | st.lists(st.sampled_from("abcd"), max_size=5) | JSON,
    "docs": st.lists(st.lists(st.integers(0, 2), min_size=1, max_size=4)
                     | st.lists(TOKEN_IDS, max_size=4) | JSON, max_size=4) | JSON,
    "g0": JSON,
}) | JSON


def well_formed(payload) -> bool:
    """A corpus file `load_corpus` must accept: distinct words, and documents that are
    non-empty lists of integer ids into them."""
    if not (isinstance(payload, dict) and "vocab" in payload and "docs" in payload):
        return False
    words, docs = payload["vocab"], payload["docs"]
    return (isinstance(words, list) and all(isinstance(w, str) for w in words)
            and len(set(words)) == len(words) and isinstance(docs, list) and len(docs) > 0
            and all(isinstance(d, list) and d and all(type(t) is int and 0 <= t < len(words)
                                                      for t in d) for d in docs))


@settings(max_examples=400, deadline=None)
@given(CORPUS_FILES)
def test_load_corpus_accepts_a_well_formed_file_and_names_the_file_otherwise(
        tmp_path_factory, payload):
    path = tmp_path_factory.getbasetemp() / "fuzz_corpus.json"
    path.write_text(json.dumps(payload), "utf-8")
    if well_formed(payload):
        corpus = load_corpus(path)
        assert corpus.vocabulary.words == payload["vocab"]
        assert [d.tokens for d in corpus.documents] == payload["docs"]
        return
    with pytest.raises(CorpusError) as err:
        load_corpus(path)
    assert str(err.value).startswith(f"{path}: ") and "\n" not in str(err.value)


def test_read_texts_directory_and_jsonl(tmp_path):
    d = tmp_path / "docs"
    d.mkdir()
    (d / "b.txt").write_text("second doc", "utf-8")
    (d / "a.txt").write_text("first doc", "utf-8")
    assert read_texts(d) == ["first doc", "second doc"]

    j = tmp_path / "docs.jsonl"
    j.write_text("\n".join(json.dumps({"text": t}) for t in ["x", "y"]), "utf-8")
    assert read_texts(j) == ["x", "y"]


@pytest.mark.parametrize("record, reason", [
    ('{"text": 5}', "'text' holds int, not a string"),
    ('{"text": ["a b"]}', "'text' holds list, not a string"),
    ('{"txt": "a b"}', "'text'"),
    ('["text"]', "list indices must be integers"),
], ids=["number", "list", "missing-key", "not-an-object"])
def test_read_texts_names_the_line_of_a_record_without_a_text_string(tmp_path, record, reason):
    path = tmp_path / "docs.jsonl"
    path.write_text(json.dumps({"text": "first doc"}) + "\n" + record + "\n", "utf-8")
    with pytest.raises(CorpusError) as err:
        read_texts(path)
    assert str(err.value).startswith(f"{path}:2: bad JSON-lines record (" + reason)
