import json
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
