"""Command-line pipeline: preprocess, pretrain, cluster, train, eval, topics, plot."""

from __future__ import annotations

import argparse
import json
import logging
import sys
from pathlib import Path

import numpy as np

from . import cluster as clustering
from . import corpus as corpus_mod
from . import lda_baseline, manifest, metrics, model, sgns, training


def _load_config_file(path) -> dict:
    text = Path(path).read_text("utf-8")
    if str(path).endswith(".toml"):
        try:
            import tomllib
        except ImportError as e:  # python < 3.11
            raise training.TrainingError("TOML configs need Python >= 3.11; use JSON") from e
        return tomllib.loads(text)
    return json.loads(text)


def cmd_preprocess(args) -> None:
    texts = corpus_mod.read_texts(args.input)
    stop = corpus_mod.default_stopwords()
    if args.stopwords:
        stop = corpus_mod.load_stopwords(args.stopwords)
    lemma = corpus_mod.load_lemma_dict(args.lemma) if args.lemma else None
    options = corpus_mod.PreprocessOptions(min_freq=args.min_freq, stopwords=stop, lemma=lemma)
    corpus = corpus_mod.preprocess(texts, options)
    corpus_mod.save_corpus(corpus, args.output)
    inputs = [args.input] if Path(args.input).is_file() else sorted(Path(args.input).glob("*.txt"))
    manifest.write_manifest(args.output, "preprocess",
                            {"min_freq": args.min_freq, "stopwords": args.stopwords,
                             "lemma": args.lemma}, inputs)
    print(f"wrote {args.output}: {corpus.n_docs} docs, vocabulary {corpus.vocab_size}")


def cmd_pretrain(args) -> None:
    corpus = corpus_mod.load_corpus(args.corpus)
    config = sgns.SgnsConfig(window=args.window, negatives=args.negatives, epochs=args.epochs)
    emb = sgns.pretrain(corpus, args.dim, config, seed=args.seed)
    sgns.save_embeddings(emb, args.output)
    manifest.write_manifest(args.output, "pretrain",
                            {"dim": args.dim, "window": args.window,
                             "negatives": args.negatives, "epochs": args.epochs},
                            [args.corpus], seed=args.seed)
    print(f"wrote {args.output}: {len(emb.words)} x {emb.dim}")


def cmd_cluster(args) -> None:
    corpus = corpus_mod.load_corpus(args.corpus)
    emb = sgns.load_embeddings(args.embeddings) if args.embeddings else None
    cm = clustering.cluster_corpus(corpus, args.k, embeddings=emb, seed=args.seed)
    clustering.save_clusters(cm, args.output)
    inputs = [args.corpus] + ([args.embeddings] if args.embeddings else [])
    manifest.write_manifest(args.output, "cluster", {"k": args.k}, inputs, seed=args.seed)
    print(f"wrote {args.output}: k={cm.k}, representation={cm.representation}, "
          f"inertia={cm.inertia:.4f}")


def cmd_train(args) -> None:
    corpus = corpus_mod.load_corpus(args.corpus)
    overrides = _load_config_file(args.config) if args.config else {}

    if args.model == "lda":
        n_topics = args.topics or overrides.get("n_topics", 50)
        state = lda_baseline.fit_lda(corpus, n_topics,
                                     sweeps=overrides.get("sweeps", 1000), seed=args.seed)
        tops = metrics.top_words_from_matrix(lda_baseline.lda_topic_word(state), args.n_top)
        metrics.save_topics(tops, corpus.vocabulary.words, args.n_top, args.output)
        manifest.write_manifest(args.output, "train",
                                {"model": "lda", "n_topics": n_topics}, [args.corpus],
                                seed=args.seed)
        print(f"wrote {args.output} (lda topics, #T={n_topics})")
        return

    if args.model == "modified" and not args.clusters:
        raise training.TrainingError("--model modified requires --clusters")
    cm = clustering.load_clusters(args.clusters) if args.clusters else None

    fields = {"model_kind": args.model, "seed": args.seed,
              "pretrained_path": args.pretrained,
              "freeze_word_emb": bool(args.pretrained and not args.tune_embeddings)}
    if args.topics:
        fields["n_topics"] = args.topics
    for key, val in overrides.items():
        fields.setdefault(key, val)
    config = training.TrainConfig(**fields)

    _, report = training.fit(corpus, cm, config, checkpoint_path=args.output)
    inputs = [args.corpus] + [p for p in (args.clusters, args.pretrained, args.config) if p]
    manifest.write_manifest(args.output, "train", fields, inputs, seed=args.seed)
    if args.report:
        Path(args.report).write_text(report.to_json() + "\n", "utf-8")
    print(f"wrote {args.output} (final mean ELBO {report.epoch_elbo[-1]:.4f})")


def _report_from_source(corpus, source: str, n_top: int) -> metrics.MetricsReport:
    if source.endswith(".json"):
        tops, _ = metrics.load_topics(source, corpus.vocabulary.index)
    else:
        params, _ = model.load_checkpoint(source)
        if params.n_vocab != corpus.vocab_size:
            raise metrics.MetricsError("checkpoint vocabulary size does not match the corpus")
        log_beta = model.log_topic_word_matrix(params)
        tops = metrics.top_words_from_matrix(np.exp(log_beta), n_top)
    return metrics.evaluate_topics(corpus, tops, n_top)


def cmd_eval(args) -> None:
    corpus = corpus_mod.load_corpus(args.corpus)
    report = _report_from_source(corpus, args.model_file, args.n)
    Path(args.output).write_text(report.to_json() + "\n", "utf-8")
    manifest.write_manifest(args.output, "eval", {"n": args.n},
                            [args.corpus, args.model_file])
    print(f"wrote {args.output}: TC={report.tc:.4f} WSWF={report.wswf:.4f}")


def cmd_topics(args) -> None:
    params, _ = model.load_checkpoint(args.checkpoint)
    corpus = corpus_mod.load_corpus(args.corpus)
    topic_word = np.exp(model.log_topic_word_matrix(params))
    for t, pairs in enumerate(metrics.top_words_from_matrix(topic_word, args.n)):
        words = " ".join(corpus.vocabulary.words[v] for v, _ in pairs)
        print(f"topic {t}: {words}")


def cmd_plot(args) -> None:
    report = metrics.MetricsReport.from_json(Path(args.report).read_text("utf-8"))
    metrics.write_scatter_csv(report, args.csv)
    manifest.write_manifest(args.csv, "plot", {}, [args.report])
    outputs = [args.csv]
    if args.svg:
        metrics.write_scatter_svg(report, args.svg, label=args.label)
        manifest.write_manifest(args.svg, "plot", {}, [args.report])
        outputs.append(args.svg)
    print("wrote " + ", ".join(map(str, outputs)))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="clustertm",
                                     description="Topic modelling with cluster regularization")
    parser.add_argument("-v", "--verbose", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("preprocess", help="raw text -> corpus JSON")
    p.add_argument("input", help="directory of .txt files or a JSON-lines file")
    p.add_argument("output")
    p.add_argument("--min-freq", type=int, default=5, dest="min_freq")
    p.add_argument("--stopwords", nargs="*", default=None, help="stopword files (one word per line)")
    p.add_argument("--lemma", default=None, help="word<TAB>lemma dictionary")
    p.set_defaults(func=cmd_preprocess)

    p = sub.add_parser("pretrain", help="skip-gram word embeddings")
    p.add_argument("corpus")
    p.add_argument("output")
    p.add_argument("--dim", type=int, default=200)
    p.add_argument("--window", type=int, default=5)
    p.add_argument("--negatives", type=int, default=5)
    p.add_argument("--epochs", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_pretrain)

    p = sub.add_parser("cluster", help="k-means over document vectors")
    p.add_argument("corpus")
    p.add_argument("output")
    p.add_argument("--embeddings", default=None)
    p.add_argument("--k", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_cluster)

    p = sub.add_parser("train", help="fit lda / etm / modified")
    p.add_argument("corpus")
    p.add_argument("output", help="checkpoint path (neural) or topics JSON (lda)")
    p.add_argument("--model", choices=("lda", "etm", "modified"), required=True)
    p.add_argument("--clusters", default=None)
    p.add_argument("--pretrained", default=None, help="embedding file from `pretrain`")
    p.add_argument("--tune-embeddings", action="store_true",
                   help="keep pretrained word embeddings trainable")
    p.add_argument("--topics", type=int, default=None, help="number of topics (default 50)")
    p.add_argument("--n-top", type=int, default=10, dest="n_top")
    p.add_argument("--config", default=None, help="TOML/JSON TrainConfig overrides")
    p.add_argument("--report", default=None, help="write the training report JSON here")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="TC and WSWF report")
    p.add_argument("corpus")
    p.add_argument("model_file", help="checkpoint or topics JSON")
    p.add_argument("output")
    p.add_argument("--n", type=int, default=10)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("topics", help="print top words per topic")
    p.add_argument("corpus")
    p.add_argument("checkpoint")
    p.add_argument("--n", type=int, default=10)
    p.set_defaults(func=cmd_topics)

    p = sub.add_parser("plot", help="per-topic TC/WSWF scatter (CSV + optional SVG)")
    p.add_argument("report")
    p.add_argument("csv")
    p.add_argument("--svg", default=None)
    p.add_argument("--label", default="model")
    p.set_defaults(func=cmd_plot)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(level=logging.INFO if args.verbose else logging.WARNING,
                        format="%(levelname)s %(name)s: %(message)s")
    try:
        args.func(args)
    except Exception as e:  # one-line machine-parsable failure
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
