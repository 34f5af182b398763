"""Command-line pipeline: preprocess, pretrain, cluster, train, eval, topics, plot."""

from __future__ import annotations

import argparse
import json
import logging
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import cluster as clustering
from . import corpus as corpus_mod
from . import lda_baseline, manifest, metrics, model, sgns, training


def _load_config_file(path) -> dict:
    parse = json.loads
    if str(path).endswith(".toml"):
        try:
            from tomllib import loads as parse
        except ImportError as e:  # python < 3.11
            raise training.TrainingError("TOML configs need Python >= 3.11; use JSON") from e
    with corpus_mod.malformed(training.TrainingError, path, "malformed config file"):
        settings = parse(Path(path).read_text("utf-8"))
    if not isinstance(settings, dict):
        raise training.TrainingError(f"{path}: a config file holds an object of settings, "
                                     f"got {type(settings).__name__}")
    return settings


def _typed(**flags) -> dict:
    """The flags the user typed; argparse leaves the others at None."""
    return {k: v for k, v in flags.items() if v is not None}


def cmd_preprocess(args) -> None:
    texts = corpus_mod.read_texts(args.input)
    stop = corpus_mod.load_stopwords(args.stopwords) if args.stopwords is not None else None
    lemma = corpus_mod.load_lemma_dict(args.lemma) if args.lemma else None
    options = corpus_mod.PreprocessOptions(**_typed(min_freq=args.min_freq), stopwords=stop,
                                           lemma=lemma)
    corpus = corpus_mod.preprocess(texts, options)
    corpus_mod.save_corpus(corpus, args.output)
    inputs = [args.input] if Path(args.input).is_file() else sorted(Path(args.input).glob("*.txt"))
    manifest.write_manifest(args.output, "preprocess",
                            {"min_freq": options.min_freq, "stopwords": args.stopwords,
                             "lemma": args.lemma}, inputs)
    print(f"wrote {args.output}: {corpus.n_docs} docs, vocabulary {corpus.vocab_size}")


def cmd_pretrain(args) -> None:
    corpus = corpus_mod.load_corpus(args.corpus)
    config = sgns.SgnsConfig(**_typed(window=args.window, negatives=args.negatives,
                                      epochs=args.epochs))
    emb = sgns.pretrain(corpus, args.dim, config, seed=args.seed)
    sgns.save_embeddings(emb, args.output)
    manifest.write_manifest(args.output, "pretrain", {"dim": args.dim, **asdict(config)},
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
    """Settings: a typed flag, else the --config value, else the library default."""
    unread = (_typed(clusters=args.clusters, pretrained=args.pretrained,
                     tune_embeddings=args.tune_embeddings, report=args.report)
              if args.model == "lda" else _typed(n_top=args.n_top))
    if unread:
        flags = ", ".join("--" + name.replace("_", "-") for name in unread)
        raise training.TrainingError(f"--model {args.model} does not read {flags}")
    corpus = corpus_mod.load_corpus(args.corpus)
    settings = _load_config_file(args.config) if args.config else {}
    settings.update(_typed(n_topics=args.topics, seed=args.seed))
    inputs = [p for p in (args.corpus, args.config) if p]

    if args.model == "lda":
        unknown = sorted(set(settings) - {"n_topics", "sweeps", "seed"})
        if unknown:
            raise lda_baseline.LdaError(f"--model lda does not read {', '.join(unknown)} from --config")
        seed = settings.pop("seed", training.TrainConfig.seed)
        lda = {"n_topics": training.TrainConfig.n_topics, "sweeps": lda_baseline.SWEEPS, **settings}
        state = lda_baseline.fit_lda(corpus, **lda, seed=seed)
        n_top = metrics.N_TOP if args.n_top is None else args.n_top
        tops = metrics.top_words_from_matrix(lda_baseline.lda_topic_word(state), n_top)
        metrics.save_topics(tops, corpus.vocabulary.words, n_top, args.output)
        manifest.write_manifest(args.output, "train", {"model": "lda", **lda}, inputs, seed=seed)
        print(f"wrote {args.output} (lda topics, #T={lda['n_topics']})")
        return

    settings.update(_typed(model_kind=args.model, pretrained_path=args.pretrained,
                           freeze_word_emb=False if args.tune_embeddings else None))
    pretrained = settings.pop("pretrained_path", None)
    settings.setdefault("freeze_word_emb", bool(pretrained))
    config = training.TrainConfig(**settings)
    cm = clustering.load_clusters(args.clusters) if args.clusters else None
    emb = sgns.load_embeddings(pretrained) if pretrained else None
    params, report = training.fit(corpus, cm, config, embeddings=emb)
    model.save_checkpoint(params, args.output)
    inputs += [p for p in (args.clusters, pretrained) if p]
    manifest.write_manifest(args.output, "train", {**asdict(config), "pretrained_path": pretrained},
                            inputs, seed=config.seed)
    if args.report:
        Path(args.report).write_text(report.to_json() + "\n", "utf-8")
    print(f"wrote {args.output} (final mean ELBO {report.epoch_elbo[-1]:.4f})")


def _top_words(corpus, path, n: int) -> list[list[tuple[int, float]]]:
    """First n (word id, probability) pairs per topic of a topics JSON or a checkpoint."""
    if str(path).endswith(".json"):
        tops, _ = metrics.load_topics(path, corpus.vocabulary.index)
        return [pairs[:n] for pairs in tops]
    params, _ = model.load_checkpoint(path)
    if params.n_vocab != corpus.vocab_size:
        raise model.ModelError(f"{path}: checkpoint vocabulary size {params.n_vocab} does not "
                               f"match the corpus vocabulary size {corpus.vocab_size}")
    return metrics.top_words_from_matrix(np.exp(model.log_topic_word_matrix(params)), n)


def cmd_eval(args) -> None:
    corpus = corpus_mod.load_corpus(args.corpus)
    report = metrics.evaluate_topics(corpus, _top_words(corpus, args.model_file, args.n), args.n)
    Path(args.output).write_text(report.to_json() + "\n", "utf-8")
    manifest.write_manifest(args.output, "eval", {"n": args.n}, [args.corpus, args.model_file])
    print(f"wrote {args.output}: TC={report.tc:.4f} WSWF={report.wswf:.4f}")


def cmd_topics(args) -> None:
    corpus = corpus_mod.load_corpus(args.corpus)
    for t, pairs in enumerate(_top_words(corpus, args.model_file, args.n)):
        words = " ".join(corpus.vocabulary.words[v] for v, _ in pairs)
        print(f"topic {t}: {words}")


def cmd_plot(args) -> None:
    report = metrics.load_report(args.report)
    metrics.write_scatter_csv(report, args.csv)
    if args.svg:
        metrics.write_scatter_svg(report, args.svg, **_typed(label=args.label))
    outputs = [p for p in (args.csv, args.svg) if p]
    for path in outputs:
        manifest.write_manifest(path, "plot", {}, [args.report])
    print("wrote " + ", ".join(map(str, outputs)))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="clustertm",
                                     description="Topic modelling with cluster regularization")
    parser.add_argument("-v", "--verbose", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("preprocess", help="raw text -> corpus JSON")
    p.add_argument("input", help="directory of .txt files or a JSON-lines file")
    p.add_argument("output")
    p.add_argument("--min-freq", type=int, dest="min_freq")
    p.add_argument("--stopwords", nargs="*", help="stopword files, one word per line (none: no stopwords)")
    p.add_argument("--lemma", default=None, help="word<TAB>lemma dictionary")
    p.set_defaults(func=cmd_preprocess)

    p = sub.add_parser("pretrain", help="skip-gram word embeddings")
    p.add_argument("corpus")
    p.add_argument("output")
    p.add_argument("--dim", type=int, default=training.TrainConfig.emb_dim)
    p.add_argument("--window", type=int)
    p.add_argument("--negatives", type=int)
    p.add_argument("--epochs", type=int)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_pretrain)

    p = sub.add_parser("cluster", help="k-means over document vectors")
    p.add_argument("corpus")
    p.add_argument("output")
    p.add_argument("--embeddings", default=None)
    p.add_argument("--k", type=int, default=training.TrainConfig.n_topics)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_cluster)

    p = sub.add_parser("train", help="fit lda / etm / modified")
    p.add_argument("corpus")
    p.add_argument("output", help="checkpoint path (neural) or topics JSON (lda)")
    p.add_argument("--model", choices=("lda", "etm", "modified"), required=True)
    p.add_argument("--clusters", default=None)
    p.add_argument("--pretrained", default=None, help="embedding file from `pretrain`")
    p.add_argument("--tune-embeddings", action="store_true", default=None,
                   help="keep pretrained word embeddings trainable")
    p.add_argument("--topics", type=int,
                   help=f"number of topics (default {training.TrainConfig.n_topics})")
    p.add_argument("--n-top", type=int, dest="n_top",
                   help=f"top words per topic in the LDA topics file (default {metrics.N_TOP})")
    p.add_argument("--config", default=None, help="TOML/JSON TrainConfig overrides")
    p.add_argument("--report", default=None, help="write the training report JSON here")
    p.add_argument("--seed", type=int)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="TC and WSWF report")
    p.add_argument("corpus")
    p.add_argument("model_file", help="checkpoint or topics JSON")
    p.add_argument("output")
    p.add_argument("--n", type=int, default=metrics.N_TOP)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("topics", help="print top words per topic")
    p.add_argument("corpus")
    p.add_argument("model_file", help="checkpoint or topics JSON")
    p.add_argument("--n", type=int, default=metrics.N_TOP)
    p.set_defaults(func=cmd_topics)

    p = sub.add_parser("plot", help="per-topic TC/WSWF scatter (CSV + optional SVG)")
    p.add_argument("report")
    p.add_argument("csv")
    p.add_argument("--svg", default=None)
    p.add_argument("--label")
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
