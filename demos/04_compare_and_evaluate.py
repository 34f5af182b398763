"""Compare LDA, ETM, and the modified model on the same corpus.

Each variant is trained (`fit_lda` or `fit`), its top words are read off the
topic-word matrix, and `evaluate_topics` scores them with the two topic-quality
metrics: topic coherence (TC, mean NPMI over top-word pairs) and the weighted
sum of word familiarity (WSWF, which rewards topics whose mass sits on common
words).  The modified model's per-topic pairs are then written out as a CSV
and an SVG scatter.

Run with:  python demos/04_compare_and_evaluate.py
"""
import tempfile
from importlib.resources import files
from pathlib import Path

import numpy as np

from clustertm import (PreprocessOptions, TrainConfig, cluster_corpus, evaluate_topics, fit,
                       fit_lda, lda_topic_word, log_topic_word_matrix, preprocess,
                       top_words_from_matrix)
from clustertm.corpus import read_texts
from clustertm.metrics import read_scatter_csv, write_scatter_csv, write_scatter_svg

TOY = str(files("clustertm").joinpath("data/toy_corpus.jsonl"))
N_TOP = 6


def main() -> None:
    corpus = preprocess(read_texts(TOY), PreprocessOptions(min_freq=2))
    clusters = cluster_corpus(corpus, 4, seed=0)

    topic_word = {"lda": lda_topic_word(fit_lda(corpus, 4, sweeps=200, seed=0))}
    for kind in ("etm", "modified"):
        config = TrainConfig(model_kind=kind, n_topics=4, emb_dim=16, hidden=32, epochs=60,
                             batch_size=32, learning_rate=5e-3, kl_anneal_epochs=20, seed=0)
        params, _ = fit(corpus, clusters if kind == "modified" else None, config)
        topic_word[kind] = np.exp(log_topic_word_matrix(params))

    print(f"{'model':<10}{'TC':>8}{'WSWF':>9}")
    reports = {}
    for kind, matrix in topic_word.items():
        reports[kind] = evaluate_topics(corpus, top_words_from_matrix(matrix, N_TOP), N_TOP)
        print(f"{kind:<10}{reports[kind].tc:>8.3f}{reports[kind].wswf:>9.3f}")

    # Per-topic scatter for the modified model: one (TC, WSWF) point per topic.
    with tempfile.TemporaryDirectory() as tmp:
        csv_path, svg_path = Path(tmp) / "scatter.csv", Path(tmp) / "scatter.svg"
        write_scatter_csv(reports["modified"], csv_path)
        write_scatter_svg(reports["modified"], svg_path, label="modified")
        pts = read_scatter_csv(csv_path)
        print(f"\nscatter CSV round-trips {len(pts)} points; "
              f"SVG is {svg_path.stat().st_size} bytes")
        print("first CSV lines:")
        for line in csv_path.read_text().splitlines()[:3]:
            print(" ", line)


if __name__ == "__main__":
    main()
