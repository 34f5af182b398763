"""Stage times of the library pipeline at several corpus sizes (not a benchmark gate).

Generates corpora of the benchmark's `wide-vocab` shape (20 planted topics of
250 words each, flat Zipf, 10-30 tokens per document) with
`bench/corpus_gen.generate`, and at each size times `preprocess`, `load_corpus`
of the corpus that `save_corpus` wrote (`corpus_load_s`), one SGNS epoch
(dim 50) at the default subsample and at 1e-3, `vectorize_documents` (TF-IDF),
`kmeans` (k=20, 2 restarts), one ETM epoch and one epoch of the modified model
on that k-means (k = 20 topics). `preprocess`, the SGNS epochs, `kmeans` and
each training epoch run twice: once timed, once under tracemalloc for the peak
traced memory. Each `sgns_*` entry maps the subsample setting to its value;
`sgns_tokens_per_s` counts every token read, kept or not. `kmeans` runs twice
more on the TF-IDF rows plus one unit-norm row that holds every vocabulary
word, the longest a document can be, so the cost of sorting rows with many
non-zeros shows (`long_doc_*`). Prints one JSON object. `peak_rss_mb` is the
process peak so far, so with ascending sizes it is the peak up to and
including that size.

    OPENBLAS_NUM_THREADS=1 python3 experiments/scale.py --sizes 400,1600,6400
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import resource
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import numpy as np  # noqa: E402
import scipy.sparse as sp  # noqa: E402

import corpus_gen  # noqa: E402
from clustertm import cluster, corpus, sgns, training  # noqa: E402

SHAPE = dict(n_topics=20, block=250, len_lo=10, len_hi=30, zipf_exp=0.0)
K, RESTARTS, SEED = 20, 2, 1
SGNS_DIM, SGNS_SUBSAMPLES = 50, (sgns.SgnsConfig().subsample, 1e-3)


def timed(fn, *args, **kwargs):
    start = time.perf_counter()
    out = fn(*args, **kwargs)
    return out, time.perf_counter() - start


def timed_and_traced(fn, *args, **kwargs):
    """The result of `fn`, its time, and its peak traced memory from a second run."""
    out, seconds = timed(fn, *args, **kwargs)
    tracemalloc.start()
    try:
        fn(*args, **kwargs)
        return out, seconds, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def kmeans_run(points):
    return timed_and_traced(cluster.kmeans, points, K, seed=0, n_restarts=RESTARTS,
                            representation="tfidf")


def measure(n_docs: int) -> dict:
    stop = corpus.default_stopwords()
    planted = corpus_gen.generate(SEED, n_docs=n_docs, exclude=stop, **SHAPE)
    texts = [" ".join(planted.words[v] for v in doc) + "." for doc in planted.docs]
    docs, prep_s, prep_peak = timed_and_traced(corpus.preprocess, texts,
                                               corpus.PreprocessOptions(min_freq=1))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "corpus.json"
        corpus.save_corpus(docs, path)
        loaded, load_s = timed(corpus.load_corpus, path)
    assert (np.array_equal(loaded.tokens, docs.tokens)
            and np.array_equal(loaded.starts, docs.starts)
            and loaded.vocabulary.words == docs.vocabulary.words)
    sgns_s, sgns_peak = {}, {}
    for subsample in SGNS_SUBSAMPLES:
        _, sgns_s[str(subsample)], sgns_peak[str(subsample)] = timed_and_traced(
            sgns.pretrain, docs, SGNS_DIM, sgns.SgnsConfig(epochs=1, subsample=subsample))
    points, vec_s = timed(cluster.vectorize_documents, docs)
    km, km_s, km_peak = kmeans_run(points)
    every_word = np.full((1, docs.vocab_size), docs.vocab_size ** -0.5)
    _, long_s, long_peak = kmeans_run(sp.vstack([points, sp.csr_matrix(every_word)], "csr"))
    config = training.TrainConfig(model_kind="etm", n_topics=SHAPE["n_topics"], emb_dim=50,
                                  epochs=1, seed=0)
    _, epoch_s, epoch_peak = timed_and_traced(training.fit, docs, None, config)
    _, modified_s, modified_peak = timed_and_traced(
        training.fit, docs, km, dataclasses.replace(config, model_kind="modified"))
    nnz = docs.doc_term.nnz
    return {
        "docs": docs.n_docs, "vocab": docs.vocab_size,
        "tfidf_nonzero_share": nnz / (docs.n_docs * docs.vocab_size),
        "dense_tfidf_mb": docs.n_docs * docs.vocab_size * 8 / 2**20,
        "preprocess_s": prep_s, "preprocess_peak_mb": prep_peak / 2**20,
        "corpus_load_s": load_s, "sgns_epoch_s": sgns_s,
        "sgns_tokens_per_s": {key: docs.total_tokens / s for key, s in sgns_s.items()},
        "sgns_peak_mb": {key: peak / 2**20 for key, peak in sgns_peak.items()},
        "vectorize_s": vec_s,
        "kmeans_s": km_s, "kmeans_peak_mb": km_peak / 2**20,
        "kmeans_inertia": km.inertia, "lloyd_passes": len(km.inertia_history),
        "long_doc_kmeans_s": long_s, "long_doc_kmeans_peak_mb": long_peak / 2**20,
        "etm_epoch_s": epoch_s, "etm_epoch_peak_mb": epoch_peak / 2**20,
        "modified_epoch_s": modified_s, "modified_epoch_peak_mb": modified_peak / 2**20,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--sizes", default="400,1600,6400",
                    help="comma-separated document counts, measured in this order")
    args = ap.parse_args(argv)
    sizes = [int(s) for s in args.sizes.split(",")]
    print(json.dumps({"seed": SEED, "k": K, "restarts": RESTARTS,
                      "sizes": [measure(n) for n in sizes]}, indent=1))


if __name__ == "__main__":
    main()
