import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from clustertm import metrics
from conftest import JSON, json_files, make_corpus


# --------------------------------------------------------------- presence

def test_cooccurrence_hand_counted():
    corpus = make_corpus([[0, 1], [0]], words=["u", "v"])
    p_u, p_uv = metrics.cooccurrence_stats(corpus, [0, 1])
    assert p_u[0] == 1.0 and p_u[1] == 0.5
    assert p_uv[0, 1] == 0.5 and p_uv[1, 0] == 0.5


def test_cooccurrence_absent_word_zero():
    corpus = make_corpus([[0]], words=["u", "v"])
    p_u, _ = metrics.cooccurrence_stats(corpus, [0, 1])
    assert p_u[1] == 0.0


def test_cooccurrence_diagonal_equals_marginal():
    rng = np.random.default_rng(2)
    corpus = make_corpus([[int(x) for x in rng.integers(0, 6, size=8)]
                          for _ in range(10)])
    ids = list(range(6))
    p_u, p_uv = metrics.cooccurrence_stats(corpus, ids)
    assert np.allclose(np.diag(p_uv), p_u, atol=1e-12)
    assert np.allclose(p_uv, p_uv.T, atol=1e-12)


# -------------------------------------------------------------------- NPMI

def test_npmi_independent_pair_is_zero():
    assert abs(metrics.npmi(1.0, 0.5, 0.5)) < 1e-12


def test_npmi_perfect_cooccurrence_is_one():
    for p in (0.1, 0.5, 0.9):
        assert metrics.npmi(p, p, p) == 1.0


def test_npmi_zero_cooccurrence_is_minus_one():
    assert metrics.npmi(0.5, 0.5, 0.0) == -1.0


def test_npmi_errors_on_never_seen_word():
    with pytest.raises(metrics.MetricsError):
        metrics.npmi(0.0, 0.5, 0.0)


def test_npmi_symmetric_and_bounded():
    rng = np.random.default_rng(3)
    for _ in range(300):
        p_u, p_v = rng.uniform(0.05, 1.0, size=2)
        p_uv = rng.uniform(0.0, min(p_u, p_v))
        a = metrics.npmi(p_u, p_v, p_uv)
        assert abs(a - metrics.npmi(p_v, p_u, p_uv)) < 1e-12
        assert -1.0 - 1e-12 <= a <= 1.0 + 1e-12

    # the array form equals its scalar calls, boundary cases included
    p_u = np.concatenate([rng.uniform(0.05, 1.0, size=50), [0.5, 0.3, 1.0]])
    p_v = np.concatenate([rng.uniform(0.05, 1.0, size=50), [0.5, 0.3, 0.5]])
    p_uv = np.concatenate([rng.uniform(0.0, np.minimum(p_u[:50], p_v[:50])), [0.0, 0.3, 0.5]])
    arr = metrics.npmi(p_u, p_v, p_uv)
    assert arr.shape == p_u.shape
    assert arr.tolist() == [metrics.npmi(*args) for args in zip(p_u, p_v, p_uv)]
    assert arr[-3] == -1.0 and arr[-2] == 1.0 and abs(arr[-1]) < 1e-12
    assert np.array_equal(metrics.npmi(p_u[:, None], p_v[None, :], 0.0),
                          np.full((53, 53), -1.0))
    with pytest.raises(metrics.MetricsError):
        metrics.npmi(np.array([0.5, 0.0]), 0.5, 0.0)


# ---------------------------------------------------------- topic coherence

def brute_force_tc(corpus, top_ids, n_top):
    """Independent recount: presence sets per document, all ordered pairs."""
    doc_sets = [set(d.tokens) for d in corpus.documents]
    n_docs = len(doc_sets)
    per_topic = []
    for ids in top_ids:
        total = 0.0
        for u, v in itertools.permutations(ids[:n_top], 2):
            p_u = sum(u in s for s in doc_sets) / n_docs
            p_v = sum(v in s for s in doc_sets) / n_docs
            p_uv = sum(u in s and v in s for s in doc_sets) / n_docs
            if p_uv == 0.0:
                total += -1.0
            elif p_uv == p_u == p_v:
                total += 1.0
            else:
                total += math.log(p_uv / (p_u * p_v)) / (-math.log(p_uv))
        per_topic.append(total / (n_top * (n_top - 1)))
    return per_topic, sum(per_topic) / len(per_topic)


def test_tc_always_cooccurring_words_is_one():
    corpus = make_corpus([[0, 1, 2]] * 4 + [[3]], words=list("abcd"))
    per_topic, tc = metrics.topic_coherence(corpus, [[0, 1, 2]], 3)
    assert abs(tc - 1.0) < 1e-12
    assert per_topic == [tc]


def _random_topics(rng, present, kind):
    """Four 5-word topics: distinct words, words shared across topics, or a repeated word."""
    if kind == "shared":
        pool = list(rng.choice(present, size=8, replace=False))
        return [list(rng.choice(pool, size=5, replace=False)) for _ in range(4)]
    tops = [list(rng.choice(present, size=5, replace=False)) for _ in range(4)]
    if kind == "repeated":
        tops[2][3] = tops[2][0]
    return tops


@pytest.mark.parametrize("kind", ["distinct", "shared", "repeated"])
def test_tc_matches_brute_force_on_random_corpus(kind):
    rng = np.random.default_rng(5)
    corpus = make_corpus([[int(x) for x in rng.integers(0, 30, size=rng.integers(3, 15))]
                          for _ in range(20)])
    present = sorted({t for d in corpus.documents for t in d.tokens})
    top_ids = _random_topics(rng, present, kind)
    got_per, got = metrics.topic_coherence(corpus, top_ids, 5)
    want_per, want = brute_force_tc(corpus, top_ids, 5)
    assert np.allclose(got_per, want_per, atol=1e-12)
    assert abs(got - want) < 1e-12


def test_tc_counts_cooccurrence_once_for_all_topics(monkeypatch):
    rng = np.random.default_rng(6)
    corpus = make_corpus([[int(x) for x in rng.integers(0, 12, size=6)] for _ in range(15)])
    present = sorted({t for d in corpus.documents for t in d.tokens})
    top_ids = [list(rng.choice(present, size=4, replace=False)) for _ in range(4)]
    calls = []
    counted = metrics.cooccurrence_stats
    monkeypatch.setattr(metrics, "cooccurrence_stats",
                        lambda *args: calls.append(args) or counted(*args))
    per_topic, _ = metrics.topic_coherence(corpus, top_ids, 4)
    assert len(per_topic) == 4
    assert len(calls) == 1


def test_tc_three_doc_hand_example():
    corpus = make_corpus([[0, 1, 2], [0, 1], [2]], words=list("abc"))
    got_per, got = metrics.topic_coherence(corpus, [[0, 1, 2]], 3)
    want_per, want = brute_force_tc(corpus, [[0, 1, 2]], 3)
    assert abs(got_per[0] - want_per[0]) < 1e-12
    assert abs(got - want) < 1e-12


def test_tc_requires_at_least_two_words():
    corpus = make_corpus([[0]])
    with pytest.raises(metrics.MetricsError):
        metrics.topic_coherence(corpus, [[0]], 1)


# -------------------------------------------------------------------- WSWF

def test_wswf_single_word_hand_value():
    g0 = np.array([0.5, 0.5])
    per_topic, value = metrics.wswf(g0, [[(0, 1.0)]], 1)
    assert abs(value - math.log(0.5)) < 1e-12
    assert per_topic == [value]


def test_wswf_degenerate_certain_word_is_zero():
    g0 = np.array([1.0])
    _, value = metrics.wswf(g0, [[(0, 0.7)]], 1)
    assert value == 0.0


def test_wswf_is_mean_over_topics_and_not_renormalized():
    g0 = np.array([0.5, 0.25, 0.25])
    tops = [[(0, 0.4), (1, 0.1)], [(2, 0.2), (0, 0.2)]]
    per_topic, value = metrics.wswf(g0, tops, 2)
    t0 = 0.4 * math.log(0.5) + 0.1 * math.log(0.25)
    t1 = 0.2 * math.log(0.25) + 0.2 * math.log(0.5)
    assert abs(per_topic[0] - t0) < 1e-12
    assert abs(per_topic[1] - t1) < 1e-12
    assert abs(value - (t0 + t1) / 2) < 1e-12


def test_wswf_names_the_topic_and_word_of_zero_background_frequency():
    g0 = np.array([0.5, 0.0, 0.5])
    tops = [[(0, 0.5), (2, 0.3)], [(2, 0.4), (1, 0.2)]]
    with pytest.raises(metrics.MetricsError,
                       match="^topic 1: word id 1 has zero background frequency$"):
        metrics.wswf(g0, tops, 2)


def test_wswf_rejects_a_topic_with_fewer_than_n_top_words():
    g0 = np.array([0.5, 0.25, 0.25])
    with pytest.raises(metrics.MetricsError, match="^topic 1 has 1 top words, fewer than n_top=2$"):
        metrics.wswf(g0, [[(0, 0.4), (1, 0.1)], [(2, 0.2)]], 2)


@settings(max_examples=1000, deadline=None)
@given(st.data())
def test_wswf_nonpositive_and_swap_monotone(data):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    n_vocab = int(rng.integers(3, 20))
    g0 = rng.dirichlet(np.ones(n_vocab))
    n_top = int(rng.integers(1, min(6, n_vocab)))
    ids = rng.choice(n_vocab, size=n_top, replace=False)
    weights = rng.uniform(0.01, 1.0, size=n_top)
    tops = [list(zip((int(i) for i in ids), (float(w) for w in weights)))]
    per_topic, value = metrics.wswf(g0, tops, n_top)
    assert value <= 1e-15  # nonpositivity

    # swap one top word for a strictly more frequent out-of-list word
    outside = [v for v in range(n_vocab) if v not in set(ids.tolist())]
    pos = int(rng.integers(0, n_top))
    better = [v for v in outside if g0[v] > g0[ids[pos]]]
    if better:
        swapped = list(tops[0])
        swapped[pos] = (better[0], swapped[pos][1])
        _, value2 = metrics.wswf(g0, [swapped], n_top)
        assert value2 > value


# ------------------------------------------------------------ report/export

def make_report():
    corpus = make_corpus([[0, 1, 2, 3], [0, 1], [2, 3], [0, 2]], words=list("abcd"))
    tops = [[(0, 0.5), (1, 0.3)], [(2, 0.6), (3, 0.2)]]
    return corpus, metrics.evaluate_topics(corpus, tops, 2)


def test_report_means_match_per_topic_values():
    _, report = make_report()
    assert abs(report.tc - np.mean(report.per_topic_tc)) < 1e-12
    assert abs(report.wswf - np.mean(report.per_topic_wswf)) < 1e-12
    assert all(len(t) == 2 for t in report.top_words)


def test_scatter_pairs_and_csv_roundtrip(tmp_path):
    _, report = make_report()
    pairs = metrics.per_topic_scatter(report)
    assert len(pairs) == 2
    assert pairs == list(zip(report.per_topic_tc, report.per_topic_wswf))
    cols = np.array(pairs)
    assert abs(cols[:, 0].mean() - report.tc) < 1e-12
    assert abs(cols[:, 1].mean() - report.wswf) < 1e-12

    path = tmp_path / "scatter.csv"
    metrics.write_scatter_csv(report, path)
    back = metrics.read_scatter_csv(path)
    assert np.allclose(np.array(back), np.array(pairs), atol=0)


def test_scatter_svg_written(tmp_path):
    _, report = make_report()
    path = tmp_path / "scatter.svg"
    metrics.write_scatter_svg(report, path)
    text = path.read_text("utf-8")
    assert text.startswith("<svg") or "<svg" in text
    assert text.count("<circle") == 3  # two topics plus the legend marker


def test_topics_file_roundtrip(tmp_path):
    corpus, report = make_report()
    tops = [[(0, 0.5), (1, 0.3)], [(2, 0.6), (3, 0.2)]]
    path = tmp_path / "topics.json"
    metrics.save_topics(tops, corpus.vocabulary.words, 2, path)
    back_tops, n_top = metrics.load_topics(path, corpus.vocabulary.index)
    assert n_top == 2
    assert back_tops == tops


@pytest.mark.parametrize("topic", [
    {"words": ["a", "b", "c"], "probs": [0.5, 0.3]},
    {"words": ["a"], "probs": [0.5, 0.3]},
    {"words": ["a", "b"], "probs": [float("nan"), 0.2]},
    {"words": ["a", "b"], "probs": [float("inf"), 0.2]},
    {"words": ["a", "b"], "probs": [-0.1, 0.2]},
    {"words": ["a", "b"], "probs": [1.5, 0.2]},
], ids=["more-words", "more-probs", "nan", "inf", "negative", "above-one"])
def test_load_topics_rejects_mismatched_or_invalid_probabilities(tmp_path, topic):
    corpus, _ = make_report()
    path = tmp_path / "topics.json"
    path.write_text(json.dumps({"topics": [{"words": ["d", "c"], "probs": [0.4, 0.2]}, topic],
                                "N": 2}), "utf-8")
    with pytest.raises(metrics.MetricsError, match="topic 1"):
        metrics.load_topics(path, corpus.vocabulary.index)


@pytest.mark.parametrize("payload, message", [
    ({"N": 2}, "missing key 'topics'"),
    ({"topics": []}, "missing key 'N'"),
    ({"topics": [{"probs": [0.5, 0.5]}], "N": 2}, "missing key 'words'"),
    ({"topics": [{"words": ["a", "b"]}], "N": 2}, "missing key 'probs'"),
    ({"topics": [{"words": ["a", "zz"], "probs": [0.5, 0.5]}], "N": 2},
     "word 'zz' not in the corpus vocabulary"),
], ids=["topics", "N", "words", "probs", "unknown-word"])
def test_load_topics_names_a_missing_key_apart_from_an_unknown_word(tmp_path, payload, message):
    corpus, _ = make_report()
    path = tmp_path / "topics.json"
    path.write_text(json.dumps(payload), "utf-8")
    with pytest.raises(metrics.MetricsError) as err:
        metrics.load_topics(path, corpus.vocabulary.index)
    assert str(err.value) == f"{path}: {message}"


def test_report_json_roundtrip():
    _, report = make_report()
    back = metrics.MetricsReport.from_json(report.to_json())
    assert back.per_topic_tc == report.per_topic_tc
    assert back.per_topic_wswf == report.per_topic_wswf
    assert back.top_words == report.top_words


NUMBERS = st.floats() | st.integers()
TOPIC_FILES = json_files({
    "topics": st.lists(st.fixed_dictionaries({
        "words": st.lists(st.sampled_from(["a", "b", "c", "zz"]), max_size=3) | JSON,
        "probs": st.lists(NUMBERS, max_size=3) | JSON}) | JSON, max_size=3) | JSON,
    "N": NUMBERS | JSON,
})
PER_TOPIC = st.lists(NUMBERS, min_size=2, max_size=2) | st.lists(NUMBERS, max_size=3) | JSON
REPORT_FILES = json_files({
    "per_topic_tc": PER_TOPIC,
    "per_topic_wswf": PER_TOPIC,
    "top_words": st.lists(st.lists(st.tuples(st.text(max_size=2), NUMBERS), max_size=2),
                          max_size=2) | JSON,
    "n_top": st.integers() | JSON,
})


@settings(max_examples=300, deadline=None)
@given(TOPIC_FILES)
@example('{"topics": [], "N": 1e400}')
def test_load_topics_loads_a_file_or_names_it(tmp_path_factory, text):
    path = tmp_path_factory.getbasetemp() / "fuzz_topics.json"
    path.write_text(text, "utf-8")
    try:
        tops, n_top = metrics.load_topics(path, {"a": 0, "b": 1, "c": 2})
    except metrics.MetricsError as err:
        assert str(err).startswith(f"{path}: ") and "\n" not in str(err)
        return
    assert isinstance(n_top, int)
    assert all(v in (0, 1, 2) and 0 <= p <= 1 for pairs in tops for v, p in pairs)


@settings(max_examples=300, deadline=None)
@given(REPORT_FILES)
@example('{"per_topic_tc": [], "per_topic_wswf": [], "top_words": [], "n_top": 3}')
@example('{"per_topic_tc": [0.1, NaN], "per_topic_wswf": [0.2, 0.3], "top_words": [], "n_top": 3}')
def test_load_report_loads_a_file_or_names_it(tmp_path_factory, text):
    path = tmp_path_factory.getbasetemp() / "fuzz_report.json"
    path.write_text(text, "utf-8")
    try:
        report = metrics.load_report(path)
    except metrics.MetricsError as err:
        assert str(err).startswith(f"{path}: ") and "\n" not in str(err)
        return
    assert 0 < len(report.per_topic_tc) == len(report.per_topic_wswf)
    assert all(type(x) is float and np.isfinite(x)
               for x in report.per_topic_tc + report.per_topic_wswf)
    assert isinstance(report.n_top, int) and report.n_top >= 1
