"""The three workloads: set-up, one timed round, and the checks on its outputs.

A round is a fixed list of operations. An operation is one CLI command, one
`fit` or `fit_lda`, one `kmeans` or one `evaluate_topics`; `preprocess` and
`vectorize_documents` in the library sessions are timed stages but not
counted as operations. Every stage runs inside a span tagged with the
end-to-end stage it belongs to: `prep` (everything before model fitting),
`train` (model fitting) or `other`.

The program always gets seed 0; the workload seed only shapes its inputs.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import corpus_gen
import oracles

PROGRAM_SEED = 0
N_TOP = 10


@dataclass
class RoundContext:
    """Counts the operations of one round and runs each inside a tagged span."""
    tracer: object
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)

    def run(self, name: str, stage: str, fn, *args, counted: bool = True, **kwargs):
        self.attempted += counted
        with self.tracer.span(name, stage=stage):
            try:
                return fn(*args, **kwargs)
            except Exception as e:  # an operation that fails is counted, not fatal
                self.failed += 1
                self.errors.append(f"{name}: {type(e).__name__}: {e}")
                return None


# ---------------------------------------------------------------------------
# shared set-up pieces


@dataclass
class Inputs:
    planted: corpus_gen.PlantedCorpus
    texts: list[str]
    params: dict
    files: dict = field(default_factory=dict)


def _noise_words(stop: set[str]) -> list[str]:
    """Stopwords and a number that `preprocess` must remove from the raw text."""
    return sorted(stop)[:4] + ["2019"]


def _render(planted: corpus_gen.PlantedCorpus, noise: list[str]) -> list[str]:
    """Raw text per document: capitalised first word, a noise token after every
    fifth word, a full stop at the end."""
    texts = []
    for doc in planted.docs:
        words = [planted.words[v] for v in doc]
        words[0] = words[0].capitalize()
        for i in range(5, len(words) + len(words) // 5, 6):
            words.insert(i, noise[i % len(noise)])
        texts.append(" ".join(words) + ".")
    return texts


def _make_inputs(seed: int, params: dict) -> Inputs:
    from clustertm import corpus
    stop = corpus.default_stopwords()
    gen = {k: params[k] for k in ("n_docs", "n_topics", "block", "len_lo", "len_hi")}
    gen.update(params.get("gen", {}))
    planted = corpus_gen.generate(seed, exclude=stop, **gen)
    return Inputs(planted, _render(planted, _noise_words(stop)), params)


def _token_docs(planted: corpus_gen.PlantedCorpus, min_freq: int) -> list[list[str]]:
    """The documents `preprocess` should produce, as word lists: words seen fewer
    than `min_freq` times dropped, then emptied documents dropped."""
    counts = np.bincount(np.concatenate(planted.docs), minlength=len(planted.words))
    docs = [[planted.words[v] for v in d if counts[v] >= min_freq] for d in planted.docs]
    return [d for d in docs if d]


def _check_vocabulary(words: list[str], token_docs: list[list[str]]) -> list[str]:
    expected = sorted({w for d in token_docs for w in d})
    return [] if words == expected else ["preprocess: vocabulary differs from the words kept"]


def _evaluate(params, corpus):
    from clustertm import metrics, model
    topic_word = np.exp(model.log_topic_word_matrix(params))
    tops = metrics.top_words_from_matrix(topic_word, N_TOP)
    return topic_word, metrics.evaluate_topics(corpus, tops, N_TOP)


# ---------------------------------------------------------------------------
# cli-pipeline: the commands a user types, on a JSON-lines file of raw text

CLI_PARAMS = dict(n_docs=400, n_topics=20, block=40, len_lo=25, len_hi=50,
                  dim=50, sgns_epochs=1, k=20, epochs=2, min_freq=5)


def cli_setup(seed: int, work: Path) -> Inputs:
    p = CLI_PARAMS
    inputs = _make_inputs(seed, p)
    texts = work / "texts.jsonl"
    with open(texts, "w", encoding="utf-8") as f:
        for t in inputs.texts:
            f.write(json.dumps({"text": t}) + "\n")
    config = work / "train.json"
    config.write_text(json.dumps({"epochs": p["epochs"], "emb_dim": p["dim"]}), "utf-8")
    inputs.files = {"texts": texts, "config": config}
    return inputs


def _cli(argv: list[str]) -> str:
    from clustertm import cli
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    if rc != 0:
        raise RuntimeError(f"clustertm {argv[0]} exited with {rc}")
    return buf.getvalue()


def cli_round(inputs: Inputs, rdir: Path, ctx: RoundContext) -> dict:
    p = inputs.params
    f = {name: str(rdir / name) for name in
         ("corpus.json", "emb.txt", "clusters.json", "model.ckpt", "train_report.json",
          "report.json", "scatter.csv", "scatter.svg")}
    seed = str(PROGRAM_SEED)
    commands = [
        ("prep", ["preprocess", str(inputs.files["texts"]), f["corpus.json"],
                  "--min-freq", str(p["min_freq"])]),
        ("prep", ["pretrain", f["corpus.json"], f["emb.txt"], "--dim", str(p["dim"]),
                  "--epochs", str(p["sgns_epochs"]), "--seed", seed]),
        ("prep", ["cluster", f["corpus.json"], f["clusters.json"], "--embeddings", f["emb.txt"],
                  "--k", str(p["k"]), "--seed", seed]),
        ("train", ["train", f["corpus.json"], f["model.ckpt"], "--model", "modified",
                   "--clusters", f["clusters.json"], "--pretrained", f["emb.txt"],
                   "--topics", str(p["n_topics"]), "--config", str(inputs.files["config"]),
                   "--report", f["train_report.json"], "--seed", seed]),
        ("other", ["eval", f["corpus.json"], f["model.ckpt"], f["report.json"],
                   "--n", str(N_TOP)]),
        ("other", ["topics", f["corpus.json"], f["model.ckpt"], "--n", str(N_TOP)]),
        ("other", ["plot", f["report.json"], f["scatter.csv"], "--svg", f["scatter.svg"]]),
    ]
    stdout = {}
    for stage, argv in commands:
        stdout[argv[0]] = ctx.run(f"cli.{argv[0]}", stage, _cli, argv)
    return {"files": f, "stdout": stdout}


def cli_check(inputs: Inputs, out: dict) -> list[str]:
    from clustertm import metrics, model
    p, f = inputs.params, {k: Path(v) for k, v in out["files"].items()}
    token_docs = _token_docs(inputs.planted, p["min_freq"])
    stats = oracles.TokenStats(token_docs)

    corpus = json.loads(f["corpus.json"].read_text("utf-8"))
    vocab = corpus["vocab"]
    errors = _check_vocabulary(vocab, token_docs)
    if [[vocab[v] for v in d] for d in corpus["docs"]] != token_docs:
        errors.append("preprocess: documents differ from the generated token lists")

    lines = f["emb.txt"].read_text("utf-8").splitlines()
    if lines[0].split() != [str(len(vocab)), str(p["dim"])]:
        errors.append(f"pretrain: header {lines[0]!r}")
    emb = np.array([[float(x) for x in ln.split(" ")[1:]] for ln in lines[1:]])
    index = {w: i for i, w in enumerate(ln.split(" ", 1)[0] for ln in lines[1:])}
    points = np.array([emb[[index[w] for w in d]].mean(axis=0) for d in token_docs])
    clusters = json.loads(f["clusters.json"].read_text("utf-8"))
    errors += oracles.check_kmeans(points, np.asarray(clusters["centres"]),
                                   np.asarray(clusters["assignment"]), clusters["inertia"],
                                   "cluster")

    train = json.loads(f["train_report.json"].read_text("utf-8"))
    errors += oracles.check_elbo(train["epoch_elbo"], p["epochs"], "train")
    params, _ = model.load_checkpoint(f["model.ckpt"])
    errors += oracles.check_rows_sum_to_one(np.exp(model.log_topic_word_matrix(params)),
                                            "checkpoint")

    report = metrics.MetricsReport.from_json(f["report.json"].read_text("utf-8"))
    errors += oracles.check_report(stats, report)
    rows = metrics.read_scatter_csv(f["scatter.csv"])
    if (abs(float(np.mean([r[0] for r in rows])) - report.tc) > oracles.METRIC_TOL
            or abs(float(np.mean([r[1] for r in rows])) - report.wswf) > oracles.METRIC_TOL):
        errors.append("plot: scatter-CSV means differ from the report's TC and WSWF")
    topic_lines = out["stdout"]["topics"].splitlines()
    if len(topic_lines) != p["n_topics"] or not all(ln.startswith("topic ") for ln in topic_lines):
        errors.append(f"topics: printed {len(topic_lines)} lines for {p['n_topics']} topics")

    for name in ("corpus.json", "emb.txt", "clusters.json", "model.ckpt", "report.json",
                 "scatter.csv", "scatter.svg"):
        errors += oracles.check_manifest(f[name])
    return errors


# ---------------------------------------------------------------------------
# wide-vocab: a library session on a wide, sparse vocabulary (TF-IDF k-means)

WIDE_PARAMS = dict(n_docs=400, n_topics=20, block=250, len_lo=10, len_hi=30,
                   gen=dict(zipf_exp=0.0), k=20, restarts=2, dim=50, epochs=1)


def library_setup(params: dict):
    def setup(seed: int, work: Path) -> Inputs:
        return _make_inputs(seed, params)
    return setup


def _preprocess(texts: list[str]):
    from clustertm import corpus
    return corpus.preprocess(texts, corpus.PreprocessOptions(min_freq=1))


def wide_round(inputs: Inputs, rdir: Path, ctx: RoundContext) -> dict:
    from clustertm import cluster, training
    p = inputs.params
    corpus = ctx.run("preprocess", "prep", _preprocess, inputs.texts, counted=False)
    points = ctx.run("vectorize", "prep", cluster.vectorize_documents, corpus, counted=False)
    km = ctx.run("kmeans", "prep", cluster.kmeans, points, p["k"], seed=PROGRAM_SEED,
                 n_restarts=p["restarts"], representation="tfidf")
    out = {"corpus": corpus, "points": points, "kmeans": km}
    for kind in ("etm", "modified"):
        config = training.TrainConfig(model_kind=kind, n_topics=p["n_topics"],
                                      emb_dim=p["dim"], epochs=p["epochs"], seed=PROGRAM_SEED)
        fitted = ctx.run(f"fit.{kind}", "train", training.fit, corpus, km, config)
        out[kind] = fitted
        out[f"eval.{kind}"] = ctx.run(f"evaluate.{kind}", "other", _evaluate,
                                      fitted[0] if fitted else None, corpus)
    return out


def wide_check(inputs: Inputs, out: dict) -> list[str]:
    p = inputs.params
    token_docs = _token_docs(inputs.planted, 1)
    words = out["corpus"].vocabulary.words
    errors = _check_vocabulary(words, token_docs)
    if errors:
        return errors
    index = {w: i for i, w in enumerate(words)}
    ids = [np.array([index[w] for w in d]) for d in token_docs]
    points = oracles.tfidf(ids, len(words))
    err = float(np.max(np.abs(points - out["points"])))
    if err > oracles.METRIC_TOL:
        errors.append(f"vectorize: TF-IDF differs from the recount by {err:.3g}")
    km = out["kmeans"]
    errors += oracles.check_kmeans(points, km.centres, km.assignment, km.inertia, "kmeans")
    stats = oracles.TokenStats(token_docs)
    for kind in ("etm", "modified"):
        errors += oracles.check_elbo(out[kind][1].epoch_elbo, p["epochs"], kind)
        topic_word, report = out[f"eval.{kind}"]
        errors += oracles.check_rows_sum_to_one(topic_word, kind)
        errors += oracles.check_report(stats, report)
    return errors


# ---------------------------------------------------------------------------
# lda-gibbs: collapsed Gibbs LDA alone

LDA_PARAMS = dict(n_docs=1000, n_topics=10, block=100, len_lo=20, len_hi=40,
                  alpha=0.5, sweeps=5, purity_floor=0.25)


def lda_round(inputs: Inputs, rdir: Path, ctx: RoundContext) -> dict:
    from clustertm import lda_baseline, metrics
    p = inputs.params
    corpus = ctx.run("preprocess", "prep", _preprocess, inputs.texts, counted=False)
    state = ctx.run("fit_lda", "train", lda_baseline.fit_lda, corpus, p["n_topics"],
                    alpha=p["alpha"], sweeps=p["sweeps"], seed=PROGRAM_SEED)

    def evaluate():
        topic_word = lda_baseline.lda_topic_word(state)
        tops = metrics.top_words_from_matrix(topic_word, N_TOP)
        return topic_word, metrics.evaluate_topics(corpus, tops, N_TOP)
    return {"corpus": corpus, "state": state, "eval": ctx.run("evaluate", "other", evaluate)}


def lda_check(inputs: Inputs, out: dict) -> list[str]:
    p, planted = inputs.params, inputs.planted
    token_docs = _token_docs(planted, 1)
    words = out["corpus"].vocabulary.words
    errors = _check_vocabulary(words, token_docs)
    if errors:
        return errors
    index = {w: i for i, w in enumerate(words)}
    errors += oracles.check_lda_counts(out["state"],
                                       [np.array([index[w] for w in d]) for d in token_docs])
    topic_word, report = out["eval"]
    errors += oracles.check_rows_sum_to_one(topic_word, "lda")
    errors += oracles.check_report(oracles.TokenStats(token_docs), report)
    gen_index = {w: i for i, w in enumerate(planted.words)}
    planted_cols = planted.topic_word[:, [gen_index[w] for w in words]]
    purity = oracles.aligned_purity(topic_word, planted_cols, N_TOP)
    if not (math.isfinite(purity) and purity >= p["purity_floor"]):
        errors.append(f"lda: planted-topic purity {purity:.3f} < {p['purity_floor']}")
    return errors


@dataclass
class Workload:
    setup: object
    round: object
    check: object


WORKLOADS = {
    "cli-pipeline": Workload(cli_setup, cli_round, cli_check),
    "wide-vocab": Workload(library_setup(WIDE_PARAMS), wide_round, wide_check),
    "lda-gibbs": Workload(library_setup(LDA_PARAMS), lda_round, lda_check),
}
