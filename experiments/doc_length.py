"""Criterion 6's comparison of ETM and the modified model at many seeds (not a test gate).

Each seed builds criterion 5/6's planted corpus (`tests/conftest.make_planted`:
500 documents of 25-50 tokens, 5 topics over 200 words), clusters it with
`cluster_corpus` and fits ETM (500 epochs, KL annealed over 150) and the
modified model (400 epochs, annealed over 120) at the criterion's budgets.
Prints one JSON object: per-seed TC, WSWF and planted purity of both fits,
and the share of seeds where the modified model wins on TC, on WSWF and on
both (criterion 6's test), each with an exact binomial 95% interval
(`scipy.stats.binomtest`). The two fits take about 20 s per seed on one thread.

    OPENBLAS_NUM_THREADS=1 python3 experiments/doc_length.py --seeds 20
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import numpy as np  # noqa: E402
from scipy.stats import binomtest  # noqa: E402

from clustertm import metrics, model  # noqa: E402
from clustertm.cluster import cluster_corpus  # noqa: E402
from clustertm.training import TrainConfig, fit  # noqa: E402
from conftest import aligned_purity, make_planted  # noqa: E402

N_TOPICS, N_TOP = 5, 10
BUDGETS = {"etm": (500, 150), "modified": (400, 120)}  # (epochs, kl_anneal_epochs)


def measure(seed: int) -> dict:
    corpus, beta_true = make_planted(seed)
    clusters = cluster_corpus(corpus, N_TOPICS, seed=seed)
    row = {"seed": seed}
    for kind, (epochs, anneal) in BUDGETS.items():
        config = TrainConfig(model_kind=kind, n_topics=N_TOPICS, emb_dim=16, hidden=64,
                             epochs=epochs, batch_size=128, learning_rate=5e-3,
                             kl_anneal_epochs=anneal, seed=seed)
        params, _ = fit(corpus, clusters if kind == "modified" else None, config)
        tops = metrics.top_words_from_matrix(np.exp(model.log_topic_word_matrix(params)), N_TOP)
        rep = metrics.evaluate_topics(corpus, tops, N_TOP)
        row[kind] = {"tc": rep.tc, "wswf": rep.wswf,
                     "purity": aligned_purity([[v for v, _ in t] for t in tops], beta_true)}
    return row


def win_share(wins: int, n: int) -> dict:
    ci = binomtest(wins, n).proportion_ci(confidence_level=0.95)
    return {"wins": wins, "share": wins / n, "ci95": [ci.low, ci.high]}


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, default=20, help="fit seeds 1..SEEDS")
    args = ap.parse_args(argv)
    rows = [measure(seed) for seed in range(1, args.seeds + 1)]
    tc = [r["modified"]["tc"] >= r["etm"]["tc"] for r in rows]
    wswf = [r["modified"]["wswf"] >= r["etm"]["wswf"] for r in rows]
    print(json.dumps({
        "regime": "medium, 25-50 tokens", "budgets": BUDGETS, "seeds": rows,
        "win_tc": win_share(sum(tc), len(rows)),
        "win_wswf": win_share(sum(wswf), len(rows)),
        "win_both": win_share(sum(a and b for a, b in zip(tc, wswf)), len(rows)),
    }, indent=1))


if __name__ == "__main__":
    main()
