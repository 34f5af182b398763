"""Stage times of the library pipeline at several corpus sizes (not a benchmark gate).

Generates corpora of the benchmark's `wide-vocab` shape (20 planted topics of
250 words each, flat Zipf, 10-30 tokens per document) with
`bench/corpus_gen.generate`, and at each size times `preprocess`,
`vectorize_documents` (TF-IDF), `kmeans` (k=20, 2 restarts) and one ETM epoch.
`kmeans` and the ETM epoch each run twice: once timed, once under tracemalloc
for the peak traced memory. `kmeans` runs twice more on the TF-IDF rows plus one unit-norm row that
holds every vocabulary word, the longest a document can be, so the cost of
sorting rows with many non-zeros shows (`long_doc_*`). Prints one JSON
object. `peak_rss_mb` is the process peak so far, so with ascending sizes it
is the peak up to and including that size.

    OPENBLAS_NUM_THREADS=1 python3 experiments/scale.py --sizes 400,1600,6400
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import numpy as np  # noqa: E402
import scipy.sparse as sp  # noqa: E402

import corpus_gen  # noqa: E402
from clustertm import cluster, corpus, training  # noqa: E402

SHAPE = dict(n_topics=20, block=250, len_lo=10, len_hi=30, zipf_exp=0.0)
K, RESTARTS, SEED = 20, 2, 1


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
    docs, prep_s = timed(corpus.preprocess, texts, corpus.PreprocessOptions(min_freq=1))
    points, vec_s = timed(cluster.vectorize_documents, docs)
    km, km_s, km_peak = kmeans_run(points)
    every_word = np.full((1, docs.vocab_size), docs.vocab_size ** -0.5)
    _, long_s, long_peak = kmeans_run(sp.vstack([points, sp.csr_matrix(every_word)], "csr"))
    config = training.TrainConfig(model_kind="etm", n_topics=SHAPE["n_topics"], emb_dim=50,
                                  epochs=1, seed=0)
    _, epoch_s, epoch_peak = timed_and_traced(training.fit, docs, None, config)
    nnz = docs.doc_term.nnz
    return {
        "docs": docs.n_docs, "vocab": docs.vocab_size,
        "tfidf_nonzero_share": nnz / (docs.n_docs * docs.vocab_size),
        "dense_tfidf_mb": docs.n_docs * docs.vocab_size * 8 / 2**20,
        "preprocess_s": prep_s, "vectorize_s": vec_s,
        "kmeans_s": km_s, "kmeans_peak_mb": km_peak / 2**20,
        "kmeans_inertia": km.inertia, "lloyd_passes": len(km.inertia_history),
        "long_doc_kmeans_s": long_s, "long_doc_kmeans_peak_mb": long_peak / 2**20,
        "etm_epoch_s": epoch_s, "etm_epoch_peak_mb": epoch_peak / 2**20,
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
