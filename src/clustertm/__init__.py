"""Cluster-regularized embedded topic modelling toolkit."""

__version__ = "0.1.0"

from .corpus import (  # noqa: F401
    Corpus, Document, PreprocessOptions, Vocabulary,
    doc_term_matrix, load_corpus, preprocess, save_corpus,
)
from .sgns import EmbeddingMatrix, SgnsConfig, load_embeddings, pretrain, save_embeddings  # noqa: F401
from .cluster import ClusterModel, cluster_corpus, kmeans, vectorize_documents  # noqa: F401
from .model import (  # noqa: F401
    ModelParams, VariationalStats, elbo_and_grad, elbo_minibatch, encode,
    init_params, kl_to_prior, load_checkpoint,
    log_topic_word_matrix, save_checkpoint, topic_embedding_modified,
)
from .lda_baseline import LdaState, fit_lda, lda_topic_word  # noqa: F401
from .metrics import (  # noqa: F401
    MetricsReport, cooccurrence_stats, evaluate_topics, npmi,
    per_topic_scatter, top_words_from_matrix, topic_coherence, wswf,
)
from .training import TrainConfig, TrainReport, fit, run_experiment  # noqa: F401
