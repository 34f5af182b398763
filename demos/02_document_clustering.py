"""Cluster documents with k-means over two representations.

The cluster model does double duty downstream: its centres seed the
cluster-conditioned topic embeddings, and its assignment centres each
document's latent prior.  This demo clusters the toy corpus both ways —
TF-IDF vectors (no embeddings needed) and mean pretrained word vectors —
and prints what each cluster talks about.

Run with:  python demos/02_document_clustering.py
"""
from importlib.resources import files

import numpy as np

from clustertm import PreprocessOptions, SgnsConfig, cluster_corpus, preprocess, pretrain
from clustertm.corpus import read_texts

TOY = str(files("clustertm").joinpath("data/toy_corpus.jsonl"))
K = 4


def describe(corpus, clusters, title: str) -> None:
    print(f"\n{title}: k={clusters.k}, inertia={clusters.inertia:.3f} "
          f"(monotone over {len(clusters.inertia_history)} iterations)")
    for c in range(clusters.k):
        members = np.flatnonzero(clusters.assignment == c)
        counts = corpus.doc_term[members].sum(axis=0).A1  # word counts over the cluster
        top = np.argsort(counts)[::-1][:4]
        top_words = ", ".join(corpus.vocabulary.words[v] for v in top)
        print(f"  cluster {c}: {len(members):2d} docs — {top_words}")


def main() -> None:
    corpus = preprocess(read_texts(TOY), PreprocessOptions(min_freq=2))

    tfidf = cluster_corpus(corpus, K, seed=0)
    describe(corpus, tfidf, "TF-IDF representation")

    emb = pretrain(corpus, dim=16, config=SgnsConfig(epochs=10, subsample=0.0), seed=0)
    embedded = cluster_corpus(corpus, K, embeddings=emb, seed=0)
    describe(corpus, embedded, "mean-embedding representation")

    hist = embedded.inertia_history
    assert all(b <= a + 1e-12 for a, b in zip(hist, hist[1:])), "inertia must not increase"
    print("\ninertia history is non-increasing, as k-means guarantees")


if __name__ == "__main__":
    main()
