"""Topic quality metrics: NPMI topic coherence and the weighted sum of word familiarity."""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .corpus import Corpus, check_int, is_int, malformed

N_TOP = 10  # top words per topic scored by TC and WSWF unless the caller names another count


class MetricsError(Exception):
    pass


@dataclass
class MetricsReport:
    per_topic_tc: list[float]
    per_topic_wswf: list[float]
    top_words: list[list[tuple[str, float]]]
    n_top: int

    @property
    def tc(self) -> float:
        return float(np.mean(self.per_topic_tc))

    @property
    def wswf(self) -> float:
        return float(np.mean(self.per_topic_wswf))

    def to_json(self) -> str:
        return json.dumps({
            "n_top": self.n_top,
            "tc": self.tc,
            "wswf": self.wswf,
            "per_topic_tc": self.per_topic_tc,
            "per_topic_wswf": self.per_topic_wswf,
            "top_words": [[[w, p] for w, p in topic] for topic in self.top_words],
        }, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "MetricsReport":
        """The report `to_json` wrote; ValueError unless it holds one finite TC and WSWF per
        topic, for one topic or more, (word, probability) pairs as top words and an integer
        n_top >= 1. A number is a JSON int or float, not a string or a bool."""
        data = json.loads(text)
        tc, wswf = data["per_topic_tc"], data["per_topic_wswf"]
        if not (isinstance(tc, list) and isinstance(wswf, list) and 0 < len(tc) == len(wswf)
                and all(_is_number(x) and np.isfinite(float(x)) for x in tc + wswf)):
            raise ValueError("per_topic_tc and per_topic_wswf need one finite number per topic")
        top_words = [[(w, p) for w, p in topic] for topic in data["top_words"]]
        if not all(isinstance(w, str) and _is_number(p) for topic in top_words for w, p in topic):
            raise ValueError("top_words needs (word, probability) pairs")
        check_int(ValueError, "n_top", data["n_top"], 1)
        return cls([float(x) for x in tc], [float(x) for x in wswf], top_words, data["n_top"])


def _is_number(x) -> bool:
    """A JSON number: an int or a float, but not a bool."""
    return isinstance(x, float) or is_int(x)


def top_words_from_matrix(topic_word: np.ndarray, n: int) -> list[list[tuple[int, float]]]:
    """Per topic: n (word-id, probability) pairs, descending, ties by id ascending."""
    order = np.argsort(-topic_word, axis=1, kind="stable")[:, :n]
    return [[(int(v), float(row[v])) for v in ids] for row, ids in zip(topic_word, order)]


def cooccurrence_stats(corpus: Corpus, word_ids) -> tuple[np.ndarray, np.ndarray]:
    """Document-presence probabilities P(u) and P(u, v) over the given word ids."""
    presence = (corpus.doc_term[:, list(word_ids)] > 0).astype(float)
    p_u = presence.sum(axis=0).A1 / corpus.n_docs
    p_uv = (presence.T @ presence).toarray() / corpus.n_docs
    return p_u, p_uv


def npmi(p_u, p_v, p_uv):
    """Normalized PMI in [-1, 1], elementwise; -1 at zero co-occurrence, 1 at p_uv = p_u = p_v."""
    p_u, p_v, p_uv = (np.asarray(x, dtype=float) for x in (p_u, p_v, p_uv))
    if np.any(p_u <= 0) or np.any(p_v <= 0):
        raise MetricsError("word never appears in the corpus")
    with np.errstate(divide="ignore", invalid="ignore"):
        value = np.log(p_uv / (p_u * p_v)) / -np.log(p_uv)
    value = np.where(p_uv == 0, -1.0, np.where((p_uv == p_u) & (p_uv == p_v), 1.0, value))
    return float(value) if value.ndim == 0 else value


def topic_coherence(corpus: Corpus, top_word_ids: list[list[int]],
                    n_top: int) -> tuple[list[float], float]:
    """Mean NPMI over ordered pairs of distinct top-word positions, per topic and averaged."""
    if n_top < 2:
        raise MetricsError("topic coherence needs at least two top words")
    _check_topic_sizes(top_word_ids, n_top)
    ids = np.array([list(words)[:n_top] for words in top_word_ids], dtype=np.int64)
    union, local = np.unique(ids, return_inverse=True)  # one count serves every topic
    p_u, p_uv = cooccurrence_stats(corpus, union)
    u = local.reshape(len(top_word_ids), n_top)[:, :, None]
    v = u.transpose(0, 2, 1)
    pairs = npmi(p_u[u], p_u[v], p_uv[u, v])
    per_topic = pairs[:, ~np.eye(n_top, dtype=bool)].sum(axis=1) / (n_top * (n_top - 1))
    return per_topic.tolist(), float(np.mean(per_topic))


def wswf(g0: np.ndarray, top_words: list[list[tuple[int, float]]],
         n_top: int) -> tuple[list[float], float]:
    """Per topic: sum over the top-n words of p(v|t) * ln g0(v), then averaged over topics.

    The probabilities are the model's, not renormalized over the top-n set.
    """
    _check_topic_sizes(top_words, n_top)
    shape = (len(top_words), n_top)
    ids = np.array([[v for v, _ in pairs[:n_top]] for pairs in top_words], np.int64).reshape(shape)
    probs = np.array([[p for _, p in pairs[:n_top]] for pairs in top_words], float).reshape(shape)
    g = g0[ids]
    zero = np.argwhere(g <= 0)
    if len(zero):
        t, i = zero[0]
        raise MetricsError(f"topic {t}: word id {ids[t, i]} has zero background frequency")
    per_topic = (probs * np.log(g)).sum(axis=1)
    return per_topic.tolist(), float(np.mean(per_topic))


def _check_topic_sizes(topics, n_top: int) -> None:
    for t, words in enumerate(topics):
        if len(words) < n_top:
            raise MetricsError(f"topic {t} has {len(words)} top words, fewer than n_top={n_top}")


def evaluate_topics(corpus: Corpus, top_words: list[list[tuple[int, float]]],
                    n_top: int) -> MetricsReport:
    """Full report (TC, WSWF, surface-form top words) for one fitted model."""
    if not top_words:
        raise MetricsError("no topics to evaluate")
    ids = [[v for v, _ in pairs] for pairs in top_words]
    per_tc, _ = topic_coherence(corpus, ids, n_top)
    per_wswf, _ = wswf(corpus.g0, top_words, n_top)
    surface = [[(corpus.vocabulary.words[v], p) for v, p in pairs] for pairs in top_words]
    return MetricsReport(per_tc, per_wswf, surface, n_top)


def save_topics(top_words: list[list[tuple[int, float]]], vocab_words: list[str],
                n_top: int, path) -> None:
    """Shared topic export: `{"topics": [{"words": [...], "probs": [...]}], "N": n}`."""
    payload = {
        "topics": [{"words": [vocab_words[v] for v, _ in pairs],
                    "probs": [p for _, p in pairs]} for pairs in top_words],
        "N": n_top,
    }
    Path(path).write_text(json.dumps(payload, sort_keys=True), "utf-8")


def load_topics(path, word_index: dict[str, int]) -> tuple[list[list[tuple[int, float]]], int]:
    with malformed(MetricsError, path, "malformed topics file"):
        payload = json.loads(Path(path).read_text("utf-8"))
        tops = []
        for t, topic in enumerate(payload["topics"]):
            words, probs = topic["words"], [float(p) for p in topic["probs"]]
            if len(words) != len(probs) or not all(0.0 <= p <= 1.0 for p in probs):
                raise MetricsError(f"{path}: topic {t} needs one probability in [0, 1] per word")
            unknown = [w for w in words if w not in word_index]
            if unknown:
                raise MetricsError(f"{path}: word {unknown[0]!r} not in the corpus vocabulary")
            tops.append([(word_index[w], p) for w, p in zip(words, probs)])
        return tops, int(payload["N"])


def load_report(path) -> MetricsReport:
    with malformed(MetricsError, path, "malformed report file"):
        return MetricsReport.from_json(Path(path).read_text("utf-8"))


# ---------------------------------------------------------------------------
# per-topic scatter exports

def per_topic_scatter(report: MetricsReport) -> list[tuple[float, float]]:
    return list(zip(report.per_topic_tc, report.per_topic_wswf))


def write_scatter_csv(report: MetricsReport, path) -> None:
    lines = ["topic,tc,wswf"]
    for t, (tc_t, wswf_t) in enumerate(per_topic_scatter(report)):
        lines.append(f"{t},{tc_t!r},{wswf_t!r}")
    Path(path).write_text("\n".join(lines) + "\n", "utf-8")


def read_scatter_csv(path) -> list[tuple[float, float]]:
    lines = Path(path).read_text("utf-8").splitlines()
    return [(float(a), float(b)) for _, a, b in (ln.split(",") for ln in lines[1:])]


def write_scatter_svg(report: MetricsReport, path, label="model") -> None:
    """Minimal self-contained scatter: axes, points, one legend entry."""
    width, height = 480, 360
    pts = per_topic_scatter(report)
    xs = [p[0] for p in pts]
    ys = [p[1] for p in pts]
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    xpad = (x1 - x0) or 1.0
    ypad = (y1 - y0) or 1.0
    x0, x1 = x0 - 0.05 * xpad, x1 + 0.05 * xpad
    y0, y1 = y0 - 0.05 * ypad, y1 + 0.05 * ypad
    ml, mr, mt, mb = 55, 15, 15, 40

    def sx(x):
        return ml + (x - x0) / (x1 - x0) * (width - ml - mr)

    def sy(y):
        return height - mb - (y - y0) / (y1 - y0) * (height - mt - mb)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{ml}" y1="{height - mb}" x2="{width - mr}" y2="{height - mb}" stroke="black"/>',
        f'<line x1="{ml}" y1="{mt}" x2="{ml}" y2="{height - mb}" stroke="black"/>',
        f'<text x="{(ml + width - mr) / 2}" y="{height - 8}" text-anchor="middle" font-size="12">topic coherence</text>',
        f'<text x="14" y="{(mt + height - mb) / 2}" text-anchor="middle" font-size="12" transform="rotate(-90 14 {(mt + height - mb) / 2})">WSWF</text>',
    ]
    for tick in (x0, (x0 + x1) / 2, x1):
        parts.append(f'<text x="{sx(tick):.1f}" y="{height - mb + 16}" text-anchor="middle" font-size="10">{tick:.3f}</text>')
    for tick in (y0, (y0 + y1) / 2, y1):
        parts.append(f'<text x="{ml - 6}" y="{sy(tick):.1f}" text-anchor="end" font-size="10">{tick:.3f}</text>')
    for x, y in pts:
        parts.append(f'<circle cx="{sx(x):.2f}" cy="{sy(y):.2f}" r="3.5" fill="steelblue" fill-opacity="0.8"/>')
    parts.append(f'<circle cx="{width - mr - 110}" cy="{mt + 10}" r="3.5" fill="steelblue"/>')
    parts.append(f'<text x="{width - mr - 100}" y="{mt + 14}" font-size="11">{label}</text>')
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts) + "\n", "utf-8")
