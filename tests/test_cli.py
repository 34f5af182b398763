import json
import struct
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
import scipy

from clustertm import cli, model, training
from clustertm.corpus import PreprocessOptions, load_corpus
from clustertm.manifest import sha256_file
from clustertm.sgns import SgnsConfig


@pytest.fixture()
def texts_dir(tmp_path):
    rng = np.random.default_rng(0)
    letters = "abcdefghijkl"
    words = [f"word{c * 3}" for c in letters]
    d = tmp_path / "texts"
    d.mkdir()
    for i in range(15):
        toks = rng.choice(words, size=rng.integers(10, 25))
        (d / f"doc{i:02d}.txt").write_text(" ".join(toks), "utf-8")
    return d


def run(args):
    return cli.main([str(a) for a in args])


def write_config(tmp_path, **overrides):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(overrides), "utf-8")
    return path


def test_main_reports_errors_on_stderr(tmp_path, capsys):
    code = run(["preprocess", tmp_path / "missing", tmp_path / "out.json"])
    assert code == 1
    assert capsys.readouterr().err.startswith("error:")


def test_cluster_rejects_corpus_with_empty_document(tmp_path, capsys):
    path = tmp_path / "corpus.json"
    path.write_text(json.dumps({"vocab": ["a", "b", "c"], "docs": [[0, 1], [], [2, 2, 0]],
                                "g0": [0.4, 0.2, 0.4]}), "utf-8")
    out = tmp_path / "clusters.json"
    assert run(["cluster", path, out, "--k", 2]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "document 1" in err[0]
    assert not out.exists()


def test_cluster_rejects_embeddings_with_nan(tmp_path, capsys):
    corpus = tmp_path / "corpus.json"
    corpus.write_text(json.dumps({"vocab": ["a", "b", "c", "d"],
                                  "docs": [[0, 1], [2, 3], [0, 2], [1, 3]]}), "utf-8")
    emb = tmp_path / "emb.txt"
    emb.write_text("4 2\na 0.1 0.2\nb nan 0.4\nc 0.5 0.6\nd 0.7 0.8\n", "utf-8")
    out = tmp_path / "clusters.json"
    assert run(["cluster", corpus, out, "--embeddings", emb, "--k", 2]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: SgnsError") and "NaN" in err[0]
    assert not out.exists()


@pytest.mark.parametrize("embedded", [list("xyz"), list("abcd")], ids=["same-size", "other-size"])
def test_cluster_rejects_embeddings_of_another_vocabulary(tmp_path, capsys, embedded):
    corpus = tmp_path / "corpus.json"
    corpus.write_text(json.dumps({"vocab": list("abc"), "docs": [[0, 1], [1, 2], [0, 2]]}),
                      "utf-8")
    emb = tmp_path / "emb.txt"
    rows = "".join(f"{w} 0.{i} 0.5\n" for i, w in enumerate(embedded))
    emb.write_text(f"{len(embedded)} 2\n{rows}", "utf-8")
    out = tmp_path / "clusters.json"
    assert run(["cluster", corpus, out, "--embeddings", emb, "--k", 2]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: SgnsError: embedding vocabulary")
    assert not out.exists()


def test_train_failing_inside_fit_leaves_no_checkpoint(texts_dir, tmp_path, monkeypatch):
    corpus = tmp_path / "corpus.json"
    run(["preprocess", texts_dir, corpus, "--min-freq", 1])

    def explode(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr(model, "elbo_and_grad", explode)
    out = tmp_path / "model.ckpt"
    assert run(["train", corpus, out, "--model", "etm", "--topics", 2,
                "--config", write_config(tmp_path, epochs=1, emb_dim=4, hidden=8)]) == 1
    assert not out.exists()
    assert not list(tmp_path.glob("*.tmp"))


def test_preprocess_writes_corpus_and_manifest(texts_dir, tmp_path):
    out = tmp_path / "corpus.json"
    assert run(["preprocess", texts_dir, out, "--min-freq", 2]) == 0
    corpus = load_corpus(out)
    assert corpus.n_docs > 0
    manifest = json.loads((tmp_path / "corpus.json.manifest.json").read_text("utf-8"))
    assert manifest["command"].startswith("preprocess")
    assert manifest["output"] == str(out)
    assert manifest["inputs"]  # hashed input files


def test_preprocess_rejects_min_freq_below_one(texts_dir, tmp_path, capsys):
    out = tmp_path / "corpus.json"
    assert run(["preprocess", texts_dir, out, "--min-freq", 0]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert err == ["error: CorpusError: min_freq must be an integer >= 1, got 0"]
    assert not out.exists()


def test_train_modified_without_clusters_fails_cleanly(texts_dir, tmp_path, capsys):
    corpus = tmp_path / "corpus.json"
    run(["preprocess", texts_dir, corpus, "--min-freq", 1])
    out = tmp_path / "model.ckpt"
    cfg = write_config(tmp_path, epochs=1, emb_dim=4, hidden=8)
    code = run(["train", corpus, out, "--model", "modified", "--topics", 2,
                "--config", cfg])
    assert code == 1
    assert not out.exists()
    assert "error:" in capsys.readouterr().err


def test_full_pipeline(texts_dir, tmp_path):
    corpus = tmp_path / "corpus.json"
    emb = tmp_path / "emb.txt"
    clusters = tmp_path / "clusters.json"
    ckpt = tmp_path / "model.ckpt"
    report = tmp_path / "report.json"
    csv = tmp_path / "scatter.csv"
    svg = tmp_path / "scatter.svg"
    overrides = write_config(tmp_path, epochs=2, emb_dim=4, hidden=8,
                             batch_size=8)

    assert run(["preprocess", texts_dir, corpus, "--min-freq", 1]) == 0
    assert run(["pretrain", corpus, emb, "--dim", 4, "--epochs", 1]) == 0
    assert run(["cluster", corpus, clusters, "--embeddings", emb, "--k", 2]) == 0
    assert run(["train", corpus, ckpt, "--model", "modified",
                "--clusters", clusters, "--topics", 2, "--config", overrides]) == 0
    assert run(["eval", corpus, ckpt, report, "--n", 3]) == 0
    assert run(["plot", report, csv, "--svg", svg]) == 0

    rep = json.loads(report.read_text("utf-8"))
    assert np.isfinite(rep["tc"]) and np.isfinite(rep["wswf"])
    lines = csv.read_text("utf-8").strip().splitlines()
    assert lines[0] == "topic,tc,wswf"
    assert len(lines) == 3  # header + one row per topic
    assert "<svg" in svg.read_text("utf-8")


def test_topics_and_eval_read_a_modified_model_of_a_corpus_with_an_unused_word(tmp_path):
    """train gives the word no document uses log g0 = -inf; the checkpoint it writes loads."""
    corpus, clusters = tmp_path / "corpus.json", tmp_path / "clusters.json"
    ckpt, report = tmp_path / "model.ckpt", tmp_path / "report.json"
    corpus.write_text(json.dumps({"vocab": list("abcde"), "docs": [
        [0, 1, 0], [2, 3, 2], [0, 2, 1], [1, 3, 3], [0, 3, 0], [1, 2, 2]]}), "utf-8")
    assert run(["cluster", corpus, clusters, "--k", 2]) == 0
    assert run(["train", corpus, ckpt, "--model", "modified", "--topics", 2, "--clusters",
                clusters, "--config", write_config(tmp_path, epochs=1, emb_dim=4, hidden=8)]) == 0
    assert model.load_checkpoint(ckpt)[0].arrays["log_g0"][4] == -np.inf
    assert run(["topics", corpus, ckpt, "--n", 3]) == 0
    assert run(["eval", corpus, ckpt, report, "--n", 3]) == 0


def test_train_lda_writes_topics_json_evaluable(texts_dir, tmp_path):
    corpus = tmp_path / "corpus.json"
    run(["preprocess", texts_dir, corpus, "--min-freq", 1])
    topics = tmp_path / "lda_topics.json"
    report = tmp_path / "lda_report.json"
    assert run(["train", corpus, topics, "--model", "lda", "--topics", 2,
                "--config", write_config(tmp_path, sweeps=5)]) == 0
    assert run(["eval", corpus, topics, report, "--n", 3]) == 0
    payload = json.loads(topics.read_text("utf-8"))
    assert len(payload["topics"]) == 2


def test_train_lda_manifest_records_sweeps_and_config(texts_dir, tmp_path):
    corpus = tmp_path / "corpus.json"
    run(["preprocess", texts_dir, corpus, "--min-freq", 1])
    topics = tmp_path / "lda_topics.json"
    config = write_config(tmp_path, sweeps=3)
    assert run(["train", corpus, topics, "--model", "lda", "--topics", 2, "--seed", 4,
                "--config", config]) == 0
    manifest = json.loads((tmp_path / "lda_topics.json.manifest.json").read_text("utf-8"))
    assert manifest["config"] == {"model": "lda", "n_topics": 2, "sweeps": 3}
    assert manifest["seed"] == 4
    assert manifest["inputs"] == {str(corpus): sha256_file(corpus),
                                  str(config): sha256_file(config)}


def test_eval_rejects_truncated_checkpoint(texts_dir, tmp_path, capsys):
    corpus = tmp_path / "corpus.json"
    run(["preprocess", texts_dir, corpus, "--min-freq", 1])
    ckpt = tmp_path / "model.ckpt"
    run(["train", corpus, ckpt, "--model", "etm", "--topics", 2,
         "--config", write_config(tmp_path, epochs=1, emb_dim=4, hidden=8)])
    data = ckpt.read_bytes()
    for cut in (len(data) - 1, 20):  # inside the last array, inside the header
        ckpt.write_bytes(data[:cut])
        capsys.readouterr()
        assert run(["eval", corpus, ckpt, tmp_path / "report.json"]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: ModelError:")


@pytest.mark.parametrize("config, named", [({"alpha": 0.3, "beta": 0.05, "sweeps": 2}, "alpha, beta"),
                                           ({"sweeps": -1}, "sweeps")])
def test_train_lda_rejects_unread_or_invalid_config(texts_dir, tmp_path, capsys, config, named):
    corpus = tmp_path / "corpus.json"
    run(["preprocess", texts_dir, corpus, "--min-freq", 1])
    topics = tmp_path / "lda_topics.json"
    capsys.readouterr()
    assert run(["train", corpus, topics, "--model", "lda", "--topics", 2,
                "--config", write_config(tmp_path, **config)]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: LdaError:") and named in err[0]
    assert not topics.exists()


@pytest.mark.parametrize("kind, flags, named", [
    ("lda", ["--pretrained", "missing.txt"], "--pretrained"),
    ("lda", ["--clusters", "missing.json"], "--clusters"),
    ("lda", ["--tune-embeddings"], "--tune-embeddings"),
    ("lda", ["--report", "report.json"], "--report"),
    ("etm", ["--n-top", 5], "--n-top"),
    ("modified", ["--n-top", 5], "--n-top"),
], ids=["lda-pretrained", "lda-clusters", "lda-tune-embeddings", "lda-report", "etm-n-top",
        "modified-n-top"])
def test_train_rejects_flags_the_model_does_not_read(texts_dir, tmp_path, capsys, monkeypatch,
                                                      kind, flags, named):
    monkeypatch.chdir(tmp_path)
    run(["preprocess", texts_dir, "corpus.json", "--min-freq", 1])
    config = write_config(tmp_path, **({"sweeps": 1} if kind == "lda" else
                                       {"epochs": 1, "emb_dim": 4, "hidden": 8}))
    capsys.readouterr()
    assert run(["train", "corpus.json", "model.out", "--model", kind, "--topics", 2,
                "--config", config, *flags]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and named in err[0]
    assert sorted(f.name for f in tmp_path.iterdir()) == sorted(
        ["texts", "corpus.json", "corpus.json.manifest.json", "config.json"])


def test_topics_command_prints_words(texts_dir, tmp_path, capsys):
    corpus = tmp_path / "corpus.json"
    run(["preprocess", texts_dir, corpus, "--min-freq", 1])
    ckpt = tmp_path / "model.ckpt"
    run(["train", corpus, ckpt, "--model", "etm", "--topics", 2,
         "--config", write_config(tmp_path, epochs=1, emb_dim=4, hidden=8)])
    capsys.readouterr()
    assert run(["topics", corpus, ckpt, "--n", 3]) == 0
    out = capsys.readouterr().out
    assert "topic" in out.lower()
    assert len(out.strip().splitlines()) >= 2


def test_cli_determinism_byte_identical_outputs(texts_dir, tmp_path):
    corpus = tmp_path / "corpus.json"
    run(["preprocess", texts_dir, corpus, "--min-freq", 1])
    outs = []
    for name in ("a", "b"):
        ckpt = tmp_path / f"{name}.ckpt"
        assert run(["train", corpus, ckpt, "--model", "etm", "--topics", 2,
                    "--seed", 7,
                    "--config", write_config(tmp_path, epochs=2, emb_dim=4,
                                             hidden=8)]) == 0
        outs.append(ckpt.read_bytes())
    assert outs[0] == outs[1]


@pytest.mark.parametrize("kind, config", [("etm", {"epochs": 1, "emb_dim": 4, "hidden": 8}),
                                          ("lda", {"sweeps": 1})])
def test_train_rejects_zero_topics(texts_dir, tmp_path, capsys, kind, config):
    corpus = tmp_path / "corpus.json"
    run(["preprocess", texts_dir, corpus, "--min-freq", 1])
    out = tmp_path / "out"
    capsys.readouterr()
    assert run(["train", corpus, out, "--model", kind, "--topics", 0,
                "--config", write_config(tmp_path, **config)]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "n_topics" in err[0]
    assert not out.exists()


@pytest.mark.parametrize("trained_on, shown_on", [(2, 4), (4, 2)])
def test_topics_rejects_checkpoint_of_another_vocabulary(tmp_path, capsys, trained_on, shown_on):
    def corpus(n_words):
        path = tmp_path / f"corpus{n_words}.json"
        path.write_text(json.dumps({"vocab": list("abcd"[:n_words]),
                                    "docs": [list(range(n_words)), [0, n_words - 1]]}), "utf-8")
        return path

    ckpt = tmp_path / "model.ckpt"
    assert run(["train", corpus(trained_on), ckpt, "--model", "etm", "--topics", 2,
                "--config", write_config(tmp_path, epochs=1, emb_dim=4, hidden=8)]) == 0
    capsys.readouterr()
    assert run(["topics", corpus(shown_on), ckpt]) == 1
    captured = capsys.readouterr()
    err = captured.err.strip().splitlines()
    assert captured.out == "" and len(err) == 1 and err[0].startswith("error: ModelError:")


@pytest.mark.parametrize("assignment", [[0, 1] * 5, [0, 1, -1, 0, 1, 0], [0, 1, 0],
                                        [0, 1, 7, 0, 1, 0]])
def test_train_modified_rejects_clusters_of_another_corpus(tmp_path, capsys, assignment):
    corpus = tmp_path / "corpus.json"
    corpus.write_text(json.dumps({"vocab": list("abcd"),
                                  "docs": [[0, 1], [2, 3], [0, 2], [1, 3], [0, 3], [1, 2]]}),
                      "utf-8")
    clusters = tmp_path / "clusters.json"
    clusters.write_text(json.dumps({"centres": [[0.1, 0.2], [0.3, 0.4]], "assignment": assignment,
                                    "representation": "tfidf", "inertia": 1.0}), "utf-8")
    out = tmp_path / "model.ckpt"
    assert run(["train", corpus, out, "--model", "modified", "--topics", 2, "--clusters", clusters,
                "--config", write_config(tmp_path, epochs=1, emb_dim=4, hidden=8)]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: ModelError:") and "assignment" in err[0]
    assert not out.exists()


@pytest.mark.parametrize("option, value", [("--window", 0), ("--negatives", -1), ("--epochs", -1)])
def test_pretrain_rejects_out_of_range_options(texts_dir, tmp_path, capsys, option, value):
    corpus = tmp_path / "corpus.json"
    run(["preprocess", texts_dir, corpus, "--min-freq", 1])
    out = tmp_path / "emb.txt"
    capsys.readouterr()
    assert run(["pretrain", corpus, out, "--dim", 4, option, value]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: SgnsError:") and option[2:] in err[0]
    assert not out.exists()


SMALL_ETM = {"epochs": 1, "emb_dim": 4, "hidden": 8}


@pytest.mark.parametrize("command, config, named", [
    (["pretrain", "--dim", 4, "--seed", -1], None, "SgnsError: seed must be"),
    (["cluster", "--k", 2, "--seed", -1], None, "ClusterError: seed must be"),
    (["train", "--model", "etm", "--seed", -2], SMALL_ETM, "TrainingError: seed must be"),
    (["train", "--model", "lda", "--seed", -2], {"sweeps": 1}, "LdaError: seed must be"),
    (["train", "--model", "etm"], {**SMALL_ETM, "n_topics": 2.5}, "n_topics must be"),
    (["train", "--model", "etm"], {**SMALL_ETM, "epochs": 1.5}, "epochs must be"),
    (["train", "--model", "etm"], {**SMALL_ETM, "learning_rate": "0.1"}, "learning_rate must be"),
    (["train", "--model", "etm"], {**SMALL_ETM, "seed": 1.5}, "seed must be"),
    (["train", "--model", "lda"], {"sweeps": 1, "seed": 1.5}, "seed must be"),
    (["train", "--model", "etm"], {**SMALL_ETM, "freeze_word_emb": "false"},
     "freeze_word_emb must be"),
    (["train", "--model", "etm"], [SMALL_ETM], "config.json: a config file holds an object"),
], ids=["pretrain-seed", "cluster-seed", "etm-seed", "lda-seed", "n_topics", "epochs",
        "learning_rate", "etm-config-seed", "lda-config-seed", "freeze_word_emb", "config-list"])
def test_settings_fail_by_name(texts_dir, tmp_path, capsys, command, config, named):
    corpus = tmp_path / "corpus.json"
    run(["preprocess", texts_dir, corpus, "--min-freq", 1])
    name, *flags = command
    if config is not None:
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config), "utf-8")
        flags += ["--config", path]
    out = tmp_path / "out"
    capsys.readouterr()
    assert run([name, corpus, out, *flags]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and named in err[0]
    assert not out.exists()


def read_manifest(artifact):
    return json.loads(Path(str(artifact) + ".manifest.json").read_text("utf-8"))


def test_preprocess_and_pretrain_manifests_record_effective_defaults(texts_dir, tmp_path):
    corpus = tmp_path / "corpus.json"
    emb = tmp_path / "emb.txt"
    assert run(["preprocess", texts_dir, corpus]) == 0
    assert run(["pretrain", corpus, emb, "--dim", 4]) == 0
    assert read_manifest(corpus)["config"] == {"min_freq": PreprocessOptions().min_freq,
                                               "stopwords": None, "lemma": None}
    assert read_manifest(emb)["config"] == {"dim": 4, **asdict(SgnsConfig())}


def test_manifests_record_blas_threads_and_library_versions(texts_dir, tmp_path, monkeypatch):
    # byte-identical reruns hold at a fixed BLAS thread count, so each manifest says which
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    monkeypatch.setenv("MKL_NUM_THREADS", "3")
    corpus, emb = tmp_path / "corpus.json", tmp_path / "emb.txt"
    assert run(["preprocess", texts_dir, corpus]) == 0
    assert run(["pretrain", corpus, emb, "--dim", 4]) == 0
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    expected = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": None, "MKL_NUM_THREADS": "3",
                "numpy": np.__version__, "scipy": scipy.__version__,
                "blas": f"{blas['name']} {blas['version']}"}
    assert read_manifest(corpus)["environment"] == read_manifest(emb)["environment"] == expected


def test_preprocess_with_empty_stopword_list_keeps_every_word(tmp_path):
    texts = tmp_path / "texts.jsonl"
    texts.write_text("".join(json.dumps({"text": t}) + "\n"
                             for t in ("the cat sat on the mat", "the dog and the cat")), "utf-8")
    out = tmp_path / "corpus.json"
    assert run(["preprocess", texts, out, "--min-freq", 1, "--stopwords"]) == 0
    words = load_corpus(out).vocabulary.words
    assert {"the", "on", "and"} <= set(words)
    assert read_manifest(out)["config"]["stopwords"] == []


def write_lemma_texts(tmp_path, lemma_lines):
    texts = tmp_path / "texts.jsonl"
    texts.write_text("".join(json.dumps({"text": t}) + "\n"
                             for t in ("the cats saw a cat", "dogs chase cats")), "utf-8")
    lemma = tmp_path / "lemma.tsv"
    lemma.write_text("".join(line + "\n" for line in lemma_lines), "utf-8")
    return texts, lemma


def test_preprocess_lemma_maps_inflections(tmp_path):
    texts, lemma = write_lemma_texts(tmp_path, ["cats\tcat", "dogs\tdog"])
    out = tmp_path / "corpus.json"
    assert run(["preprocess", texts, out, "--min-freq", 1, "--stopwords", "--lemma", lemma]) == 0
    corpus = load_corpus(out)
    words = corpus.vocabulary.words
    assert words == ["a", "cat", "chase", "dog", "saw", "the"]
    assert [[words[t] for t in d.tokens] for d in corpus.documents] == [
        ["the", "cat", "saw", "a", "cat"], ["dog", "chase", "cat"]]
    assert read_manifest(out)["config"]["lemma"] == str(lemma)


@pytest.mark.parametrize("line, lemma", [("dogs\tbig dog", "big dog"), ("cats\t", "")])
def test_preprocess_rejects_lemma_that_is_not_one_word(tmp_path, capsys, line, lemma):
    texts, path = write_lemma_texts(tmp_path, ["cats\tcat", line])
    out = tmp_path / "corpus.json"
    assert run(["preprocess", texts, out, "--min-freq", 1, "--stopwords", "--lemma", path]) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"error: CorpusError: {path}:2: a lemma is one word without spaces, got {lemma!r}"]
    assert not out.exists()


def test_train_reads_a_toml_config_or_names_the_python_it_needs(texts_dir, tmp_path, capsys):
    corpus = tmp_path / "corpus.json"
    run(["preprocess", texts_dir, corpus, "--min-freq", 1])
    toml = tmp_path / "cfg.toml"
    toml.write_text("epochs = 2\nemb_dim = 4\nhidden = 8\nlearning_rate = 0.01\n", "utf-8")
    out = tmp_path / "toml.ckpt"
    code = run(["train", corpus, out, "--model", "etm", "--topics", 2, "--config", toml])
    if sys.version_info < (3, 11):
        assert code == 1 and not out.exists()
        assert capsys.readouterr().err.splitlines() == [
            "error: TrainingError: TOML configs need Python >= 3.11; use JSON"]
        return
    assert code == 0
    config = read_manifest(out)["config"]
    assert config == {**asdict(training.TrainConfig(model_kind="etm", n_topics=2, epochs=2,
                                                    emb_dim=4, hidden=8, learning_rate=0.01)),
                      "pretrained_path": None}
    same = tmp_path / "json.ckpt"
    json_config = write_config(tmp_path, epochs=2, emb_dim=4, hidden=8, learning_rate=0.01)
    assert run(["train", corpus, same, "--model", "etm", "--topics", 2,
                "--config", json_config]) == 0
    assert out.read_bytes() == same.read_bytes()


def test_train_report_file_holds_the_training_report(texts_dir, tmp_path, monkeypatch):
    corpus = tmp_path / "corpus.json"
    run(["preprocess", texts_dir, corpus, "--min-freq", 1])
    reports = []
    real_fit = training.fit

    def recorded_fit(*args, **kwargs):
        params, report = real_fit(*args, **kwargs)
        reports.append(report)
        return params, report

    monkeypatch.setattr(training, "fit", recorded_fit)
    report = tmp_path / "report.json"
    config = write_config(tmp_path, epochs=3, emb_dim=4, hidden=8)
    assert run(["train", corpus, tmp_path / "model.ckpt", "--model", "etm", "--topics", 2,
                "--config", config, "--report", report]) == 0
    assert report.read_text("utf-8") == reports[0].to_json() + "\n"
    payload = json.loads(report.read_text("utf-8"))
    assert sorted(payload) == ["epoch_elbo", "warnings"]  # no wall_time
    assert len(payload["epoch_elbo"]) == 3 and all(np.isfinite(payload["epoch_elbo"]))


def test_parser_defaults_of_k_and_dim_follow_train_config(monkeypatch):
    monkeypatch.setattr(training.TrainConfig, "n_topics", 7)
    monkeypatch.setattr(training.TrainConfig, "emb_dim", 9)
    parser = cli.build_parser()
    assert parser.parse_args(["cluster", "c.json", "out.json"]).k == 7
    assert parser.parse_args(["pretrain", "c.json", "emb.txt"]).dim == 9


@pytest.mark.parametrize("kind, key", [("etm", "seed"), ("lda", "seed"), ("etm", "pretrained_path")])
def test_train_reads_setting_from_config_as_from_its_flag(texts_dir, tmp_path, kind, key):
    corpus = tmp_path / "corpus.json"
    emb = tmp_path / "emb.txt"
    run(["preprocess", texts_dir, corpus, "--min-freq", 1])
    run(["pretrain", corpus, emb, "--dim", 4, "--epochs", 1])
    base = {"sweeps": 3} if kind == "lda" else {"epochs": 2, "emb_dim": 4, "hidden": 8}
    value, flag = (7, "--seed") if key == "seed" else (str(emb), "--pretrained")
    outputs = []
    for name, settings, flags in (("file", {**base, key: value}, []), ("flag", base, [flag, value])):
        out = tmp_path / f"{name}.out"
        config = tmp_path / f"{name}.json"
        config.write_text(json.dumps(settings), "utf-8")
        assert run(["train", corpus, out, "--model", kind, "--topics", 2,
                    "--config", config, *flags]) == 0
        outputs.append(out.read_bytes())
        if key == "pretrained_path":
            assert read_manifest(out)["inputs"][str(emb)] == sha256_file(emb)
            assert read_manifest(out)["config"]["freeze_word_emb"] is True
    assert outputs[0] == outputs[1]
    default = tmp_path / "default.out"
    config = write_config(tmp_path, **base)
    assert run(["train", corpus, default, "--model", kind, "--topics", 2, "--config", config]) == 0
    assert default.read_bytes() != outputs[0]


def test_topics_command_reads_lda_topics_json(texts_dir, tmp_path, capsys):
    corpus = tmp_path / "corpus.json"
    run(["preprocess", texts_dir, corpus, "--min-freq", 1])
    topics = tmp_path / "lda_topics.json"
    assert run(["train", corpus, topics, "--model", "lda", "--topics", 2,
                "--config", write_config(tmp_path, sweeps=2)]) == 0
    capsys.readouterr()
    assert run(["topics", corpus, topics, "--n", 3]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert [ln.split(":")[0] for ln in lines] == ["topic 0", "topic 1"]
    assert all(len(ln.split(": ")[1].split()) == 3 for ln in lines)


def test_eval_rejects_topics_with_fewer_than_n_words(texts_dir, tmp_path, capsys):
    corpus = tmp_path / "corpus.json"
    run(["preprocess", texts_dir, corpus, "--min-freq", 1])
    topics = tmp_path / "lda_topics.json"
    assert run(["train", corpus, topics, "--model", "lda", "--topics", 2, "--n-top", 5,
                "--config", write_config(tmp_path, sweeps=2)]) == 0
    report = tmp_path / "report.json"
    capsys.readouterr()
    assert run(["eval", corpus, topics, report, "--n", 10]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: MetricsError:") and "topic 0" in err[0]
    assert not report.exists()


def test_eval_rejects_topics_file_with_no_topics(texts_dir, tmp_path, capsys):
    corpus = tmp_path / "corpus.json"
    run(["preprocess", texts_dir, corpus, "--min-freq", 1])
    topics = tmp_path / "topics.json"
    topics.write_text(json.dumps({"topics": [], "N": 3}), "utf-8")
    report = tmp_path / "report.json"
    capsys.readouterr()
    assert run(["eval", corpus, topics, report, "--n", 3]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert err == ["error: MetricsError: no topics to evaluate"]
    assert not report.exists()


@pytest.mark.parametrize("reader, error", [
    ("texts", "CorpusError"), ("config", "TrainingError"), ("clusters", "ClusterError"),
    ("topics", "MetricsError"), ("checkpoint", "ModelError")])
def test_readers_name_the_file_for_json_nested_too_deep_to_parse(texts_dir, tmp_path, capsys,
                                                                   reader, error):
    corpus = tmp_path / "corpus.json"
    assert run(["preprocess", texts_dir, corpus, "--min-freq", 1]) == 0
    deep = ("[" * 100_000 + "]" * 100_000).encode()
    bad = tmp_path / {"texts": "texts.jsonl", "config": "deep.json", "clusters": "clusters.json",
                      "topics": "topics.json", "checkpoint": "model.ckpt"}[reader]
    bad.write_bytes(struct.pack("<Q", len(deep)) + deep if reader == "checkpoint" else deep)
    out = tmp_path / "out"
    argv = {"texts": ["preprocess", bad, out],
            "config": ["train", corpus, out, "--model", "etm", "--config", bad],
            "clusters": ["train", corpus, out, "--model", "modified", "--topics", 2,
                         "--clusters", bad, "--config", write_config(tmp_path, **SMALL_ETM)],
            "topics": ["topics", corpus, bad],
            "checkpoint": ["topics", corpus, bad]}[reader]
    capsys.readouterr()
    assert run(argv) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {error}: {bad}:")
    assert not out.exists()


NOT_UTF8 = b"\xff\xfe\x80 not UTF-8"
DEEP = "[" * 100_000 + "]" * 100_000
HUGE_INT = "1" + "0" * 5000  # more digits than Python parses into an int


def _checkpoint_with_topics(n_topics: int) -> bytes:
    """An etm checkpoint whose header and topic dimensions all say `n_topics`, with the bytes
    of the arrays that come before the first of those."""
    arrays = model._all_arrays(model.init_params("etm", 4, 2, 3, 5, 6))  # 2 topics
    specs = [{"name": name, "dtype": "float64",
              "shape": [n_topics if d == 2 else d for d in arr.shape]}
             for name, arr in arrays.items()]
    blob = json.dumps({"format": "clustertm-ckpt-v1", "kind": "etm", "n_topics": n_topics,
                       "emb_dim": 3, "freeze_word_emb": False, "arrays": specs}).encode()
    return struct.pack("<Q", len(blob)) + blob + bytes(1024)


def _with_header(text: str) -> bytes:
    return struct.pack("<Q", len(text.encode())) + text.encode()


# per reader: the file each case writes; a reader meets only the cases that apply to it
MALFORMED_INPUTS = {
    "texts-dir": {"not-utf8": NOT_UTF8},
    "texts-jsonl": {"not-utf8": NOT_UTF8, "deep": DEEP, "number": '{"text": %s}' % HUGE_INT,
                    "missing-key": '{"txt": "a b"}'},
    "stopwords": {"not-utf8": NOT_UTF8},
    "lemma": {"not-utf8": NOT_UTF8},
    "corpus": {"not-utf8": NOT_UTF8, "deep": DEEP,
               "number": json.dumps({"vocab": ["a", "b"], "docs": [[0, 2**64]]}),
               "missing-key": json.dumps({"vocab": ["a", "b"]})},
    "embeddings": {"not-utf8": NOT_UTF8, "number": "2 2\na 1e400 0\nb 0 0\n"},
    "pretrained": {"not-utf8": NOT_UTF8, "number": "2 2\na 1e400 0\nb 0 0\n"},
    "config": {"not-utf8": NOT_UTF8, "deep": DEEP, "number": '{"seed": %s}' % HUGE_INT},
    "clusters": {"not-utf8": NOT_UTF8, "deep": DEEP,
                 "number": json.dumps({"centres": [[0.1], [0.2]], "assignment": [0, 2**70],
                                       "representation": "tfidf", "inertia": 1.0}),
                 "missing-key": json.dumps({"centres": [[0.1], [0.2]], "assignment": [0, 1],
                                            "representation": "tfidf"})},
    "topics": {"not-utf8": NOT_UTF8, "deep": DEEP, "number": '{"topics": [], "N": 1e400}',
               "missing-key": '{"topics": []}'},
    "checkpoint": {"not-utf8": struct.pack("<Q", len(NOT_UTF8)) + NOT_UTF8,
                   "deep": _with_header(DEEP), "number": _checkpoint_with_topics(10**30),
                   "missing-key": _with_header('{"format": "clustertm-ckpt-v1", "arrays": []}')},
    "report": {"not-utf8": NOT_UTF8, "deep": DEEP, "number": json.dumps(
        {"per_topic_tc": [1e400], "per_topic_wswf": [0.5], "top_words": [], "n_top": 1}),
               "missing-key": json.dumps({"per_topic_tc": [0.1], "per_topic_wswf": [0.2],
                                          "top_words": []})},
}


@pytest.mark.parametrize("reader, case", [(r, c) for r, cases in MALFORMED_INPUTS.items()
                                          for c in cases])
def test_every_reader_names_its_file_for_a_malformed_input(texts_dir, tmp_path, capsys, reader,
                                                           case):
    corpus = tmp_path / "corpus.json"
    assert run(["preprocess", texts_dir, corpus, "--min-freq", 1]) == 0
    small = write_config(tmp_path, **SMALL_ETM)
    bad = tmp_path / ("bad.ckpt" if reader == "checkpoint" else "bad.json")  # eval reads by suffix
    if reader == "texts-dir":
        (tmp_path / "docs").mkdir()
        bad = tmp_path / "docs" / "doc.txt"
    data = MALFORMED_INPUTS[reader][case]
    bad.write_bytes(data if isinstance(data, bytes) else data.encode())
    out = tmp_path / "out"
    argv = {"texts-dir": ["preprocess", bad.parent, out],
            "texts-jsonl": ["preprocess", bad, out],
            "stopwords": ["preprocess", texts_dir, out, "--stopwords", bad],
            "lemma": ["preprocess", texts_dir, out, "--lemma", bad],
            "corpus": ["pretrain", bad, out],
            "embeddings": ["cluster", corpus, out, "--embeddings", bad],
            "pretrained": ["train", corpus, out, "--model", "etm", "--pretrained", bad,
                           "--config", small],
            "config": ["train", corpus, out, "--model", "etm", "--config", bad],
            "clusters": ["train", corpus, out, "--model", "modified", "--topics", 2,
                         "--clusters", bad, "--config", small],
            "topics": ["eval", corpus, bad, out],
            "checkpoint": ["eval", corpus, bad, out],
            "report": ["plot", bad, out, "--svg", tmp_path / "out.svg"]}[reader]
    capsys.readouterr()
    assert run(argv) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and str(bad) in err[0], err
    assert not out.exists()


@pytest.mark.parametrize("report, named", [
    ('{"tc": 1}', "missing key 'per_topic_tc'"),
    ("tc,wswf\n0.1,0.2\n", "malformed report file (Expecting value"),
    (json.dumps({"per_topic_tc": [], "per_topic_wswf": [], "top_words": [], "n_top": 3}),
     "one finite number per topic"),
    (json.dumps({"per_topic_tc": [0.1, 0.2], "per_topic_wswf": [0.3], "top_words": [],
                 "n_top": 3}), "one finite number per topic"),
    (json.dumps({"per_topic_tc": ["0.5"], "per_topic_wswf": [0.3], "top_words": [],
                 "n_top": 3}), "one finite number per topic"),
    (json.dumps({"per_topic_tc": [0.5], "per_topic_wswf": [True], "top_words": [],
                 "n_top": 3}), "one finite number per topic"),
    (json.dumps({"per_topic_tc": [0.5], "per_topic_wswf": [0.3], "top_words": [[[1, 0.2]]],
                 "n_top": 3}), "top_words needs (word, probability) pairs"),
    (json.dumps({"per_topic_tc": [0.5], "per_topic_wswf": [0.3], "top_words": [],
                 "n_top": "3"}), "n_top must be an integer >= 1, got '3'"),
], ids=["no-per-topic-tc", "not-json", "no-topics", "lengths-differ", "tc-string", "wswf-bool",
        "top-word-not-a-string", "n_top-string"])
def test_plot_rejects_a_report_it_cannot_draw(tmp_path, capsys, report, named):
    path = tmp_path / "report.json"
    path.write_text(report, "utf-8")
    csv, svg = tmp_path / "scatter.csv", tmp_path / "scatter.svg"
    assert run(["plot", path, csv, "--svg", svg]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: MetricsError: {path}: ") and named in err[0]
    assert not csv.exists() and not svg.exists()


def test_typed_tune_embeddings_wins_over_config(texts_dir, tmp_path):
    corpus, emb = tmp_path / "corpus.json", tmp_path / "emb.txt"
    assert run(["preprocess", texts_dir, corpus, "--min-freq", 1]) == 0
    assert run(["pretrain", corpus, emb, "--dim", 4, "--epochs", 1]) == 0
    config = write_config(tmp_path, **SMALL_ETM, freeze_word_emb=True)
    frozen, tuned = tmp_path / "frozen.ckpt", tmp_path / "tuned.ckpt"
    for out, flags in ((frozen, []), (tuned, ["--tune-embeddings"])):
        assert run(["train", corpus, out, "--model", "etm", "--topics", 2, "--pretrained", emb,
                    "--config", config, *flags]) == 0
    assert read_manifest(frozen)["config"]["freeze_word_emb"] is True
    assert read_manifest(tuned)["config"]["freeze_word_emb"] is False
    assert model.load_checkpoint(tuned)[0].freeze_word_emb is False
