"""Train the cluster-regularized topic model end to end.

Preprocess -> pretrain embeddings -> cluster -> fit the modified model,
then print the learned topics and show that training is deterministic:
the same config and seed reproduce the checkpoint byte for byte.

Run with:  python demos/03_train_topic_model.py
"""
import tempfile
from importlib.resources import files
from pathlib import Path

import numpy as np

from clustertm import (PreprocessOptions, SgnsConfig, TrainConfig, cluster_corpus, fit,
                       log_topic_word_matrix, preprocess, pretrain, save_checkpoint,
                       top_words_from_matrix)
from clustertm.corpus import read_texts

TOY = str(files("clustertm").joinpath("data/toy_corpus.jsonl"))


def main() -> None:
    corpus = preprocess(read_texts(TOY), PreprocessOptions(min_freq=2))
    emb = pretrain(corpus, dim=16, config=SgnsConfig(epochs=10, subsample=0.0), seed=0)
    clusters = cluster_corpus(corpus, 4, embeddings=emb, seed=0)
    config = TrainConfig(model_kind="modified", n_topics=4, emb_dim=16, hidden=32,
                         epochs=60, batch_size=32, learning_rate=5e-3,
                         kl_anneal_epochs=20, seed=0)

    params, report = fit(corpus, clusters, config, embeddings=emb)
    print(f"trained {config.epochs} epochs: mean per-doc ELBO "
          f"{report.epoch_elbo[0]:.3f} -> {report.epoch_elbo[-1]:.3f}")

    beta = np.exp(log_topic_word_matrix(params))
    for t, pairs in enumerate(top_words_from_matrix(beta, 6)):
        shown = ", ".join(f"{corpus.vocabulary.words[v]}" for v, _ in pairs)
        print(f"  topic {t}: {shown}")

    with tempfile.TemporaryDirectory() as tmp:
        ckpt_a, ckpt_b = Path(tmp) / "a.ckpt", Path(tmp) / "b.ckpt"
        save_checkpoint(params, ckpt_a)
        save_checkpoint(fit(corpus, clusters, config, embeddings=emb)[0], ckpt_b)
        same = ckpt_a.read_bytes() == ckpt_b.read_bytes()
    print(f"re-run with the same seed is byte-identical: {same}")
    assert same


if __name__ == "__main__":
    main()
