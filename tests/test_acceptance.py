"""Acceptance suite: ten go/no-go checks, one PASS/FAIL line each.

The planted-corpus checks (5 and 6) train all three models at five seeds and
take a few minutes single-threaded; everything else is fast.
"""
import itertools
import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from clustertm import cli, metrics, model
from clustertm.cluster import cluster_corpus, kmeans
from clustertm.corpus import Document
from clustertm.lda_baseline import fit_lda, lda_topic_word
from clustertm.training import TrainConfig, fit
import conftest
from conftest import aligned_purity, make_corpus, make_planted, rel_err


def verdict(n, label, ok):
    line = f"{'PASS' if ok else 'FAIL'} criterion {n}: {label}"
    print(line)
    # Captured stdout is hidden for passing tests, so also queue the line for
    # the end-of-run summary (see pytest_terminal_summary in conftest).
    conftest.ACCEPTANCE_LINES.append(line)
    assert ok, f"criterion {n} failed: {label}"


# ---------------------------------------------------------------------------
# criterion 1: hand-written gradients vs central finite differences

def test_criterion_1_gradient_correctness():
    t0 = time.monotonic()
    rng = np.random.default_rng(0)
    n_vocab, n_topics, hidden, emb_dim, n_docs = 20, 3, 5, 4, 5
    docs = [Document(tokens=[int(x) for x in rng.integers(0, n_vocab,
                                                          size=rng.integers(5, 12))])
            for _ in range(n_docs)]
    params = model.init_params(
        "modified", n_vocab, n_topics, emb_dim, n_docs, hidden=hidden, seed=1,
        centres=rng.standard_normal((n_topics, emb_dim)),
        log_g0=np.log(rng.dirichlet(np.ones(n_vocab))),
        assignment=rng.integers(0, n_topics, size=n_docs))
    ids = list(range(n_docs))
    seed = 7
    _, grads = model.elbo_and_grad(params, docs, ids, seed=seed)
    blocks = model.trainable_blocks(params)
    # every block (encoder eta, centre-network xi, word embeddings, log_lambda)
    assert {"word_emb", "log_lambda"} <= set(blocks)
    assert any(k.startswith("xi.") for k in blocks)

    h = 1e-5
    coords = 0
    worst = 0.0
    pick = np.random.default_rng(1)
    per_block = 12  # small blocks cap at their size; the total still tops 100
    for name, arr in blocks.items():
        flat = arr.ravel()
        for i in pick.choice(flat.size, size=min(per_block, flat.size), replace=False):
            old = flat[i]
            flat[i] = old + h
            fp = model.elbo_minibatch(params, docs, ids, seed=seed)
            flat[i] = old - h
            fm = model.elbo_minibatch(params, docs, ids, seed=seed)
            flat[i] = old
            worst = max(worst, rel_err((fp - fm) / (2 * h), grads[name].ravel()[i]))
            coords += 1
    elapsed = time.monotonic() - t0
    verdict(1, f"gradcheck {coords} coords, worst rel err {worst:.2e}, {elapsed:.1f}s",
            coords >= 100 and worst < 1e-4 and elapsed < 30)


# ---------------------------------------------------------------------------
# criterion 2: analytic KL vs Monte Carlo

def test_criterion_2_kl_correctness():
    t0 = time.monotonic()
    rng = np.random.default_rng(2)
    n_samples = 100_000
    failures = 0
    for trial in range(50):
        dim = int(rng.integers(1, 8))
        m = rng.normal(size=dim)
        log_s = rng.normal(scale=0.5, size=dim)
        m0 = rng.normal(size=dim)
        s = np.exp(log_s)
        analytic = model.kl_to_prior(model.VariationalStats(m, log_s), m0)
        x = m + s * rng.standard_normal((n_samples, dim))
        diff = ((-0.5 * ((x - m) / s) ** 2 - log_s).sum(axis=1)
                - (-0.5 * (x - m0) ** 2).sum(axis=1))
        se = diff.std(ddof=1) / math.sqrt(n_samples)
        if abs(analytic - diff.mean()) > 3 * se:
            failures += 1
    elapsed = time.monotonic() - t0
    verdict(2, f"50 KL triples vs 1e5-sample MC, {failures} outside 3 SE, {elapsed:.1f}s",
            failures == 0 and elapsed < 10)


# ---------------------------------------------------------------------------
# criterion 3: single-sample ELBO is below the log marginal likelihood

def test_criterion_3_elbo_bound():
    rng = np.random.default_rng(3)
    params = model.init_params("etm", 3, 2, 2, 1, hidden=4, seed=5)
    doc = Document(tokens=[0, 2])
    log_beta = model.log_topic_word_matrix(params)
    beta = np.exp(log_beta)

    def batch_loglik(x):
        theta = np.exp(x - np.logaddexp.reduce(x, axis=1, keepdims=True))
        return np.log(theta @ beta[:, 0]) + np.log(theta @ beta[:, 2])

    # per-draw single-sample ELBO, 1e4 reparameterized draws
    stats = model.encode(params, doc)
    s = np.exp(stats.log_std)
    eps = rng.standard_normal((10_000, 2))
    elbo_draws = batch_loglik(stats.mean + s * eps) - model.kl_to_prior(
        stats, np.zeros(2))
    # the estimator averaged here is exactly elbo_minibatch at one draw
    one = model.elbo_minibatch(params, [doc], [0], seed=11)
    eps_one = np.random.default_rng(11).standard_normal((1, 2))
    assert abs(batch_loglik(stats.mean + s * eps_one)[0]
               - model.kl_to_prior(stats, np.zeros(2)) - one) < 1e-8

    elbo_mean = elbo_draws.mean()
    elbo_se = elbo_draws.std(ddof=1) / math.sqrt(len(elbo_draws))

    # Monte-Carlo marginal likelihood over the prior
    x = rng.standard_normal((1_000_000, 2))
    lik = np.exp(batch_loglik(x))
    ml = lik.mean()
    ml_se = lik.std(ddof=1) / math.sqrt(len(lik))
    log_ml = math.log(ml)
    log_ml_se = ml_se / ml

    slack = 3 * math.sqrt(elbo_se ** 2 + log_ml_se ** 2)
    ok = elbo_mean <= log_ml + slack
    verdict(3, f"mean ELBO {elbo_mean:.4f} <= log ML {log_ml:.4f} (+{slack:.4f})", ok)


# ---------------------------------------------------------------------------
# criterion 4: metric implementations vs brute-force oracles

def test_criterion_4_metric_oracles():
    rng = np.random.default_rng(4)
    corpus = make_corpus([[int(x) for x in rng.integers(0, 30, size=rng.integers(4, 12))]
                          for _ in range(20)])
    present = sorted({t for d in corpus.documents for t in d.tokens})
    tops = []
    for _ in range(4):
        ids = rng.choice(present, size=5, replace=False)
        probs = np.sort(rng.uniform(0.01, 0.3, size=5))[::-1]
        tops.append([(int(v), float(p)) for v, p in zip(ids, probs)])
    top_ids = [[v for v, _ in t] for t in tops]

    # brute-force TC: presence recount over all ordered pairs
    doc_sets = [set(d.tokens) for d in corpus.documents]
    n_docs = len(doc_sets)
    bf_tc = []
    for ids in top_ids:
        total = 0.0
        for u, v in itertools.permutations(ids, 2):
            p_u = sum(u in ds for ds in doc_sets) / n_docs
            p_v = sum(v in ds for ds in doc_sets) / n_docs
            p_uv = sum(u in ds and v in ds for ds in doc_sets) / n_docs
            if p_uv == 0.0:
                total += -1.0
            elif p_uv == p_u == p_v:
                total += 1.0
            else:
                total += math.log(p_uv / (p_u * p_v)) / (-math.log(p_uv))
        bf_tc.append(total / 20)
    got_tc, _ = metrics.topic_coherence(corpus, top_ids, 5)

    bf_wswf = [sum(p * math.log(corpus.g0[v]) for v, p in t) for t in tops]
    got_wswf, _ = metrics.wswf(corpus.g0, tops, 5)

    tc_err = max(abs(a - b) for a, b in zip(got_tc, bf_tc))
    ws_err = max(abs(a - b) for a, b in zip(got_wswf, bf_wswf))
    boundaries = (metrics.npmi(0.5, 0.5, 0.0) == -1.0
                  and abs(metrics.npmi(1.0, 0.5, 0.5)) < 1e-15
                  and metrics.npmi(0.3, 0.3, 0.3) == 1.0)
    verdict(4, f"TC err {tc_err:.1e}, WSWF err {ws_err:.1e}, NPMI boundaries {boundaries}",
            tc_err <= 1e-12 and ws_err <= 1e-12 and boundaries)


# ---------------------------------------------------------------------------
# criteria 5 and 6: planted-topic recovery and the directional claim

SEEDS = (1, 2, 3, 4, 5)


@pytest.fixture(scope="module")
def planted_runs():
    """Train LDA / ETM / modified (no pretrain) at five seeds; cache results."""
    results = {}
    for seed in SEEDS:
        corpus, beta_true = make_planted(seed)
        row = {}

        state = fit_lda(corpus, n_topics=5, sweeps=150, seed=seed)
        tops = metrics.top_words_from_matrix(lda_topic_word(state), 10)
        rep = metrics.evaluate_topics(corpus, tops, 10)
        row["lda"] = (aligned_purity([[v for v, _ in t] for t in tops], beta_true),
                      rep.tc, rep.wswf)

        clusters = cluster_corpus(corpus, 5, seed=seed)
        budgets = {"etm": (500, 150), "modified": (400, 120)}
        for kind, (epochs, anneal) in budgets.items():
            config = TrainConfig(model_kind=kind, n_topics=5, emb_dim=16,
                                 hidden=64, epochs=epochs, batch_size=128,
                                 learning_rate=5e-3, kl_anneal_epochs=anneal,
                                 seed=seed)
            params, _ = fit(corpus, clusters if kind == "modified" else None,
                            config)
            tw = np.exp(model.log_topic_word_matrix(params))
            tops = metrics.top_words_from_matrix(tw, 10)
            rep = metrics.evaluate_topics(corpus, tops, 10)
            row[kind] = (aligned_purity([[v for v, _ in t] for t in tops],
                                        beta_true), rep.tc, rep.wswf)
        results[seed] = row
    return results


def test_criterion_5_planted_topic_recovery(planted_runs):
    good = {kind: sum(planted_runs[s][kind][0] >= 0.6 for s in SEEDS)
            for kind in ("lda", "etm", "modified")}
    verdict(5, f"purity>=0.6 seed counts {good} (need >=3 of 5 each)",
            all(v >= 3 for v in good.values()))


def test_criterion_6_modified_beats_etm_directionally(planted_runs):
    wins = 0
    for s in SEEDS:
        _, etm_tc, etm_wswf = planted_runs[s]["etm"]
        _, mod_tc, mod_wswf = planted_runs[s]["modified"]
        wins += (mod_tc >= etm_tc) and (mod_wswf >= etm_wswf)
    verdict(6, f"modified >= etm on TC and WSWF at {wins}/5 seeds (need >=3)",
            wins >= 3)


# ---------------------------------------------------------------------------
# criterion 7: WSWF structural properties on random tables

def test_criterion_7_wswf_structural_properties():
    rng = np.random.default_rng(7)
    bad = 0
    for _ in range(1000):
        n_vocab = int(rng.integers(3, 25))
        g0 = rng.dirichlet(np.ones(n_vocab))
        n_top = int(rng.integers(1, min(8, n_vocab)))
        ids = rng.choice(n_vocab, size=n_top, replace=False)
        weights = rng.uniform(0.01, 1.0, size=n_top)
        table = [list(zip((int(i) for i in ids), (float(w) for w in weights)))]
        _, value = metrics.wswf(g0, table, n_top)
        if value > 1e-15:
            bad += 1
            continue
        outside = [v for v in range(n_vocab) if v not in set(ids.tolist())
                   and g0[v] > g0[ids[0]]]
        if outside:
            swapped = [list(table[0])]
            swapped[0][0] = (outside[0], table[0][0][1])
            _, value2 = metrics.wswf(g0, swapped, n_top)
            if not value2 > value:
                bad += 1
    verdict(7, f"1000 random tables, {bad} violations of nonpositivity/monotonicity",
            bad == 0)


# ---------------------------------------------------------------------------
# criterion 8: determinism

def test_criterion_8_determinism(tmp_path):
    rng = np.random.default_rng(8)
    corpus = make_corpus([[int(x) for x in rng.integers(0, 20, size=12)]
                          for _ in range(24)])
    clusters = cluster_corpus(corpus, 3, seed=0)
    blobs, reports = [], []
    path = tmp_path / "model.ckpt"
    for _ in range(2):
        config = TrainConfig(model_kind="modified", n_topics=3, emb_dim=6,
                             hidden=8, epochs=3, batch_size=16,
                             learning_rate=1e-3, seed=9)
        params, report = fit(corpus, clusters, config)
        model.save_checkpoint(params, path)
        blobs.append(path.read_bytes())
        reports.append(report.to_json())
    ok = blobs[0] == blobs[1] and reports[0] == reports[1]
    verdict(8, "identical config+seed gives byte-identical checkpoint and report", ok)


# ---------------------------------------------------------------------------
# criterion 9: CLI end-to-end smoke on the bundled toy corpus

def test_criterion_9_cli_smoke(tmp_path):
    t0 = time.monotonic()
    toy = Path(model.__file__).parent / "data" / "toy_corpus.jsonl"
    corpus_f = tmp_path / "corpus.json"
    emb_f = tmp_path / "emb.txt"
    clusters_f = tmp_path / "clusters.json"
    ckpt_f = tmp_path / "model.ckpt"
    report_f = tmp_path / "report.json"
    csv_f = tmp_path / "scatter.csv"
    config_f = tmp_path / "config.json"
    config_f.write_text(json.dumps({"epochs": 30, "emb_dim": 16, "hidden": 32,
                                    "batch_size": 32, "kl_anneal_epochs": 10}),
                        "utf-8")

    steps = [
        ["preprocess", str(toy), str(corpus_f), "--min-freq", "2"],
        ["pretrain", str(corpus_f), str(emb_f), "--dim", "16", "--epochs", "2"],
        ["cluster", str(corpus_f), str(clusters_f), "--embeddings", str(emb_f),
         "--k", "4"],
        ["train", str(corpus_f), str(ckpt_f), "--model", "modified",
         "--clusters", str(clusters_f), "--topics", "4",
         "--config", str(config_f)],
        ["eval", str(corpus_f), str(ckpt_f), str(report_f), "--n", "10"],
        ["plot", str(report_f), str(csv_f)],
    ]
    codes = [cli.main(args) for args in steps]
    elapsed = time.monotonic() - t0

    report = metrics.MetricsReport.from_json(report_f.read_text("utf-8"))
    pairs = metrics.read_scatter_csv(csv_f)
    cols = np.array(pairs)
    ok = (codes == [0] * 6 and elapsed < 120 and len(pairs) == 4
          and abs(cols[:, 0].mean() - report.tc) <= 1e-12
          and abs(cols[:, 1].mean() - report.wswf) <= 1e-12
          and np.isfinite(cols).all())
    verdict(9, f"pipeline exit codes {codes}, {len(pairs)} scatter rows, {elapsed:.0f}s", ok)


# ---------------------------------------------------------------------------
# criterion 10: k-means inertia monotonicity and brute-force optimality

def test_criterion_10_kmeans():
    rng = np.random.default_rng(10)
    mono_bad = 0
    for trial in range(100):
        points = rng.normal(size=(int(rng.integers(5, 40)), int(rng.integers(1, 4))))
        hist = kmeans(points, int(rng.integers(1, 5)), seed=trial,
                      n_restarts=1).inertia_history
        if any(b > a + 1e-12 for a, b in zip(hist, hist[1:])):
            mono_bad += 1

    brute_bad = 0
    for trial in range(10):
        n = int(rng.integers(4, 11))
        k = int(rng.integers(1, 4))
        points = rng.normal(size=(n, 2))
        best = np.inf
        for assign in itertools.product(range(k), repeat=n):
            assign = np.asarray(assign)
            total = 0.0
            for c in range(k):
                members = points[assign == c]
                if len(members):
                    total += ((members - members.mean(axis=0)) ** 2).sum()
            best = min(best, total)
        if kmeans(points, k, seed=trial).inertia > best + 1e-9:
            brute_bad += 1
    verdict(10, f"monotonicity violations {mono_bad}/100, brute-force misses {brute_bad}/10",
            mono_bad == 0 and brute_bad == 0)
