from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import tempfile
from pathlib import Path

import pytest

from rstcoh import cli, corpus, metrics, numcore as nc, trainer
from rstcoh.atomic import atomic_write
from rstcoh.cli import EXIT_CONFIG, EXIT_DATA, EXIT_OK


def write_config(tmp_path, **overrides):
    config = {
        "out_dir": str(tmp_path / "out"),
        "model": "rst",
        "features": "t,ns,r",
        "train": {"learning_rate": 1e-3, "epochs": 1, "hidden_size": 6,
                  "relation_dim": 4, "seed": 0},
        "n_runs": 2,
        "generator": {"n_train": 20, "n_test": 10, "edu_range": [3, 5],
                      "tokens_per_edu": [2, 4], "wv_dim": 4},
    }
    config.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    return path, config


class TestSynth:
    def test_writes_corpus_files(self, tmp_path):
        cfg_path, config = write_config(tmp_path)
        assert cli.main(["synth", "--config", str(cfg_path)]) == EXIT_OK
        out = Path(config["out_dir"])
        assert (out / "documents.jsonl").exists()
        assert (out / "trees.txt").exists()
        assert (out / "vectors.txt").exists()
        assert len((out / "documents.jsonl").read_text().splitlines()) == 30

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg_path, config = write_config(tmp_path)
        cli.main(["synth", "--config", str(cfg_path)])
        out = Path(config["out_dir"])
        first = {p.name: p.read_bytes() for p in out.iterdir()}
        cli.main(["synth", "--config", str(cfg_path)])
        second = {p.name: p.read_bytes() for p in out.iterdir()}
        assert first == second


class TestTrain:
    def test_writes_artifacts(self, tmp_path, capsys):
        cfg_path, config = write_config(tmp_path)
        assert cli.main(["train", "--config", str(cfg_path)]) == EXIT_OK
        out = Path(config["out_dir"])
        log_lines = (out / "run_log.jsonl").read_text().splitlines()
        assert len(log_lines) == 2
        for line in log_lines:
            rec = json.loads(line)
            assert rec["report"]["accuracy"] >= 0.0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["n_runs"] == 2
        assert summary["n_diverged"] == 0
        assert set(summary["aggregate"]) == {"accuracy", "macro_f1", "weighted_f1"}
        assert summary["config"]["model"] == "rst"
        assert (out / "checkpoint.json").exists()
        assert "accuracy" in capsys.readouterr().out

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg_path, config = write_config(tmp_path)
        cli.main(["train", "--config", str(cfg_path)])
        out = Path(config["out_dir"])
        first = {p.name: p.read_bytes() for p in out.iterdir()}
        cli.main(["train", "--config", str(cfg_path)])
        second = {p.name: p.read_bytes() for p in out.iterdir()}
        assert first == second

    def test_flag_overrides_apply(self, tmp_path):
        cfg_path, config = write_config(tmp_path)
        assert cli.main(["train", "--config", str(cfg_path), "--model", "parseq",
                         "--features", "t", "--runs", "1"]) == EXIT_OK
        summary = json.loads((Path(config["out_dir"]) / "summary.json").read_text())
        assert summary["config"]["model"] == "parseq"
        assert summary["n_runs"] == 1

    def test_train_from_files(self, tmp_path):
        cfg_path, config = write_config(tmp_path)
        cli.main(["synth", "--config", str(cfg_path), "--out",
                  str(tmp_path / "data")])
        file_config = dict(config)
        file_config["generator"] = None
        file_config["paths"] = {
            "documents": str(tmp_path / "data" / "documents.jsonl"),
            "trees": str(tmp_path / "data" / "trees.txt"),
            "word_vectors": str(tmp_path / "data" / "vectors.txt"),
        }
        file_config["out_dir"] = str(tmp_path / "out2")
        cfg2 = tmp_path / "config2.json"
        cfg2.write_text(json.dumps(file_config))
        assert cli.main(["train", "--config", str(cfg2)]) == EXIT_OK
        summary = json.loads((tmp_path / "out2" / "summary.json").read_text())
        assert summary["aggregate"]["accuracy"]["mean"] >= 0.0

    def test_ensemble_with_e_is_config_error(self, tmp_path, capsys):
        cfg_path, _ = write_config(tmp_path, model="ensemble",
                                   features="t,ns,r,e")
        assert cli.main(["train", "--config", str(cfg_path)]) == EXIT_CONFIG
        err = capsys.readouterr().err.strip()
        assert len(err.splitlines()) == 1
        parsed = json.loads(err)
        assert parsed["error"] == "ConfigError"

    def test_missing_config_file(self, tmp_path, capsys):
        code = cli.main(["train", "--config", str(tmp_path / "nope.json")])
        assert code == EXIT_CONFIG
        assert json.loads(capsys.readouterr().err)["error"] == "ConfigError"

    def test_unknown_config_key(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"learning_rate": 1.0}))
        assert cli.main(["train", "--config", str(path)]) == EXIT_CONFIG

    def test_bad_documents_file_is_data_error(self, tmp_path, capsys):
        docs = tmp_path / "documents.jsonl"
        docs.write_text(json.dumps({"id": "a", "label": 4, "text": "Alpha."}) + "\n")
        trees = tmp_path / "trees.txt"
        trees.write_text('a\t(rel A/N B/S (edu "x y") (edu "z w"))\n')
        cfg_path, _ = write_config(
            tmp_path, generator=None,
            paths={"documents": str(docs), "trees": str(trees),
                   "word_vectors": None},
            features="t,ns")
        assert cli.main(["train", "--config", str(cfg_path)]) == EXIT_DATA
        assert json.loads(capsys.readouterr().err)["error"] == "IngestError"


class TestEvaluate:
    def test_checkpoint_reproduces_best_run(self, tmp_path):
        cfg_path, config = write_config(tmp_path)
        assert cli.main(["train", "--config", str(cfg_path)]) == EXIT_OK
        out = Path(config["out_dir"])
        records = [json.loads(line)
                   for line in (out / "run_log.jsonl").read_text().splitlines()]
        best_acc = max(r["report"]["accuracy"] for r in records)
        assert cli.main(["evaluate", "--config", str(cfg_path), "--checkpoint",
                         str(out / "checkpoint.json"), "--out",
                         str(tmp_path / "eval")]) == EXIT_OK
        rep = json.loads((tmp_path / "eval" / "report.json").read_text())
        assert rep["report"]["accuracy"] == pytest.approx(best_acc, abs=1e-12)
        csv_text = (tmp_path / "eval" / "report.csv").read_text().splitlines()
        assert csv_text[0] == metrics.CSV_HEADER

    def test_missing_checkpoint(self, tmp_path, capsys):
        cfg_path, _ = write_config(tmp_path)
        assert cli.main(["evaluate", "--config", str(cfg_path), "--checkpoint",
                         str(tmp_path / "none.json")]) == EXIT_CONFIG


@pytest.fixture(scope="module")
def checkpoint_text(tmp_path_factory):
    """A trained rst t,ns,r,e checkpoint with 4-d word vectors."""
    tmp = tmp_path_factory.mktemp("checkpoint")
    cfg_path, config = write_config(tmp, features="t,ns,r,e", n_runs=1)
    assert cli.main(["train", "--config", str(cfg_path)]) == EXIT_OK
    return (Path(config["out_dir"]) / "checkpoint.json").read_text()


def _edit_tensor(text, value):
    """The checkpoint with the first value of its first tensor replaced."""
    doc = json.loads(text)
    next(iter(doc["tensors"].values()))["values"][0] = value
    return json.dumps(doc)


def _file_corpus(label, paragraphs=None):
    """Config edit: train from files on two documents, the test one labelled
    ``label`` and, unless ``paragraphs`` is None, given those paragraphs."""
    def edit(config):
        data = Path(config["out_dir"]).parent
        docs = [{"id": "a", "label": 1, "text": "Alpha beta.", "split": "train"},
                {"id": "b", "label": label, "text": "Gamma delta.", "split": "test"}]
        if paragraphs is not None:
            docs[1]["paragraphs"] = paragraphs
        (data / "documents.jsonl").write_text(
            "".join(json.dumps(doc) + "\n" for doc in docs))
        (data / "trees.txt").write_text(
            "".join(f'{doc["id"]}\t(rel A/N B/S (edu "x y") (edu "z w"))\n'
                    for doc in docs))
        config.update(generator=None, features="t,ns",
                      paths={"documents": str(data / "documents.jsonl"),
                             "trees": str(data / "trees.txt"), "word_vectors": None})
    return edit


@functools.lru_cache(maxsize=None)
def _trained_checkpoint(model, features):
    """The checkpoint text of a small trained ``model``, whatever the
    checkpoint under edit."""
    with tempfile.TemporaryDirectory() as tmp:
        cfg_path, config = write_config(Path(tmp), model=model, features=features,
                                        n_runs=1)
        assert cli.main(["train", "--config", str(cfg_path)]) == EXIT_OK
        return (Path(config["out_dir"]) / "checkpoint.json").read_text()


def _edit_meta(text, key, value=None):
    doc = json.loads(text)
    if value is None:
        del doc["meta"][key]
    else:
        doc["meta"][key] = value
    return json.dumps(doc)


def _meta_vocab(text):
    return json.loads(text)["meta"]["vocab"]


# (probe, config edit, checkpoint edit for `evaluate` or None for `train`, exit)
MALFORMED_INPUTS = (
    ("string learning_rate", lambda c: c["train"].update(learning_rate="1e-3"),
     None, EXIT_CONFIG),
    ("NaN learning_rate", lambda c: c["train"].update(learning_rate=math.nan), None,
     EXIT_CONFIG),
    ("infinite learning_rate", lambda c: c["train"].update(learning_rate=math.inf),
     None, EXIT_CONFIG),
    ("boolean learning_rate", lambda c: c["train"].update(learning_rate=True), None,
     EXIT_CONFIG),
    ("string train.seed", lambda c: c["train"].update(seed="0"), None, EXIT_CONFIG),
    ("string n_runs", lambda c: c.update(n_runs="2"), None, EXIT_CONFIG),
    ("string workers", lambda c: c.update(workers="1"), None, EXIT_CONFIG),
    ("integer features", lambda c: c.update(features=5), None, EXIT_CONFIG),
    ("string generator.edu_range", lambda c: c["generator"].update(edu_range="3,5"),
     None, EXIT_CONFIG),
    ("string generator.n_train", lambda c: c["generator"].update(n_train="20"),
     None, EXIT_CONFIG),
    ("fractional generator.n_train", lambda c: c["generator"].update(n_train=3.5),
     None, EXIT_CONFIG),
    ("fractional generator.wv_dim", lambda c: c["generator"].update(wv_dim=2.5),
     None, EXIT_CONFIG),
    ("fractional generator.max_paragraphs",
     lambda c: c["generator"].update(max_paragraphs=1.5), None, EXIT_CONFIG),
    ("string data_seed", lambda c: c.update(data_seed="x"), None, EXIT_CONFIG),
    ("string train.shuffle", lambda c: c["train"].update(shuffle="no"), None,
     EXIT_CONFIG),
    ("string paths", lambda c: c.update(paths="x"), None, EXIT_CONFIG),
    ("integer out_dir", lambda c: c.update(out_dir=5), None, EXIT_CONFIG),
    ("integer paths.documents and paths.trees",
     lambda c: c.update(paths={"documents": 5, "trees": 5}), None, EXIT_CONFIG),
    ("empty generator.token_pool", lambda c: c["generator"].update(token_pool=[]),
     None, EXIT_CONFIG),
    ("integer generator.token_pool",
     lambda c: c["generator"].update(token_pool=[1, 2, 3]), None, EXIT_CONFIG),
    ("capitalized generator.token_pool entry",
     lambda c: c["generator"].update(token_pool=["Alder", "basil", "cedar"]), None,
     EXIT_CONFIG),
    ("generator.token_pool entry of two tokens",
     lambda c: c["generator"].update(token_pool=["alder", "foo-bar", "cedar"]), None,
     EXIT_CONFIG),
    ("generator.token_pool entry with no token",
     lambda c: c["generator"].update(token_pool=["alder", "...", "cedar"]), None,
     EXIT_CONFIG),
    ("generator.edu_range of three values",
     lambda c: c["generator"].update(edu_range=[3, 5, 9]), None, EXIT_CONFIG),
    ("generator.tokens_per_edu of three values",
     lambda c: c["generator"].update(tokens_per_edu=[2, 3, 4]), None, EXIT_CONFIG),
    ("generator.labels without nuclearity",
     lambda c: c["generator"].update(labels=["a", "b", "c"]), None, EXIT_CONFIG),
    ("integer generator.labels", lambda c: c["generator"].update(labels=[1, 2, 3]),
     None, EXIT_CONFIG),
    ("NaN in generator.class_probs",
     lambda c: c["generator"].update(class_probs=[0.5, 0.5, math.nan]), None,
     EXIT_CONFIG),
    ("integer generator.coherent_tokens",
     lambda c: c["generator"].update(coherent_tokens=[1, 2]), None, EXIT_CONFIG),
    ("generator.coherent_tokens outside token_pool",
     lambda c: c["generator"].update(coherent_tokens=["not-in-the-pool"]), None,
     EXIT_CONFIG),
    ("truncated checkpoint", None, lambda t: t[:len(t) // 2], EXIT_DATA),
    ("checkpoint without meta.wv_dim", None, lambda t: _edit_meta(t, "wv_dim"),
     EXIT_DATA),
    ("checkpoint wv_dim does not fit", None, lambda t: _edit_meta(t, "wv_dim", 5),
     EXIT_DATA),
    ("version-1 checkpoint", None, lambda t: json.dumps({**json.loads(t), "version": 1}),
     EXIT_DATA),
    ("checkpoint tensors its meta does not build", None,
     lambda t: _edit_meta(t, "features", "t,ns,r"), EXIT_DATA),
    ("NaN in a checkpoint tensor", None, lambda t: _edit_tensor(t, math.nan),
     EXIT_DATA),
    ("infinite value in a checkpoint tensor", None,
     lambda t: _edit_tensor(t, math.inf), EXIT_DATA),
    ("parseq checkpoint without word vectors", _file_corpus(1),
     lambda t: _trained_checkpoint("parseq", "t"), EXIT_CONFIG),
    ("ensemble checkpoint without word vectors", _file_corpus(1),
     lambda t: _trained_checkpoint("ensemble", "t,ns,r"), EXIT_CONFIG),
    ("boolean document label", _file_corpus(True), None, EXIT_DATA),
    ("fractional document label", _file_corpus(1.0), None, EXIT_DATA),
    # ParSeq reads paragraphs and sentences as given: ingest rules out empty ones
    ("document with no paragraph", _file_corpus(1, []), None, EXIT_DATA),
    ("document with an empty paragraph", _file_corpus(1, [[]]), None, EXIT_DATA),
    ("document with an empty sentence", _file_corpus(1, [[[]]]), None, EXIT_DATA),
    ("parseq training without word vectors",
     lambda c: (_file_corpus(1)(c), c.update(model="parseq", features="t")), None,
     EXIT_CONFIG),
    # meta that does not build a model is a data error, whatever the field
    ("negative wv_dim in a parseq checkpoint", None,
     lambda t: _edit_meta(_trained_checkpoint("parseq", "t"), "wv_dim", -100),
     EXIT_DATA),
    ("boolean wv_dim in an rst t,ns,r checkpoint", None,
     lambda t: _edit_meta(_trained_checkpoint("rst", "t,ns,r"), "wv_dim", True),
     EXIT_DATA),
    ("fractional wv_dim in an rst t,ns,r checkpoint", None,
     lambda t: _edit_meta(_trained_checkpoint("rst", "t,ns,r"), "wv_dim", 2.5),
     EXIT_DATA),
    ("boolean hidden_size in a checkpoint", None,
     lambda t: _edit_meta(t, "hidden_size", True), EXIT_DATA),
    ("zero relation_dim in a checkpoint", None,
     lambda t: _edit_meta(t, "relation_dim", 0), EXIT_DATA),
    ("checkpoint features with R but not NS", None,
     lambda t: _edit_meta(t, "features", "t,r"), EXIT_DATA),
    # each edit keeps the vocabulary's size, so the label table still loads
    ("checkpoint vocabulary entry that is no label", None,
     lambda t: _edit_meta(t, "vocab", _meta_vocab(t)[:-1] + ["garbage"]), EXIT_DATA),
    ("checkpoint vocabulary entry with a bad nuclearity", None,
     lambda t: _edit_meta(t, "vocab", _meta_vocab(t)[:-1] + ["Foo_X"]), EXIT_DATA),
    ("checkpoint vocabulary with a repeated entry", None,
     lambda t: _edit_meta(t, "vocab", _meta_vocab(t)[:-1] + _meta_vocab(t)[1:2]),
     EXIT_DATA),
)


@pytest.mark.parametrize("edit_config,edit_checkpoint,code",
                         [probe[1:] for probe in MALFORMED_INPUTS],
                         ids=[probe[0] for probe in MALFORMED_INPUTS])
def test_malformed_input_ends_in_one_json_line(tmp_path, capsys, checkpoint_text,
                                               edit_config, edit_checkpoint, code):
    cfg_path, config = write_config(tmp_path, features="t,ns,r,e")
    if edit_config is not None:
        edit_config(config)
        cfg_path.write_text(json.dumps(config))
    argv = ["train", "--config", str(cfg_path)]
    if edit_checkpoint is not None:
        checkpoint = tmp_path / "checkpoint.json"
        checkpoint.write_text(edit_checkpoint(checkpoint_text))
        argv = ["evaluate", "--config", str(cfg_path), "--checkpoint", str(checkpoint)]
    assert cli.main(argv) == code
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert set(json.loads(err[0])) == {"error", "message"}
    if edit_checkpoint is not None:  # every checkpoint error names the file
        assert str(checkpoint) in json.loads(err[0])["message"]


@pytest.mark.parametrize("from_file", [False, True], ids=["generator", "file"])
@pytest.mark.parametrize("model,features", [("rst", "t,ns,r,e"), ("parseq", "t")])
def test_vectors_of_another_dimension_name_both_sources(tmp_path, capsys, model,
                                                        features, from_file):
    # The checkpoint was trained on 4-d vectors; these are 6-d.
    cfg_path, config = write_config(tmp_path, model=model, features=features)
    config["generator"]["wv_dim"] = 6
    checkpoint = tmp_path / "checkpoint.json"
    checkpoint.write_text(_trained_checkpoint(model, features))
    source = "the generator"
    if from_file:
        data = tmp_path / "data"
        cfg_path.write_text(json.dumps(config))
        assert cli.main(["synth", "--config", str(cfg_path), "--out", str(data)]) == EXIT_OK
        source = str(data / "vectors.txt")
        config.update(generator=None, paths={
            "documents": str(data / "documents.jsonl"),
            "trees": str(data / "trees.txt"), "word_vectors": source})
    cfg_path.write_text(json.dumps(config))
    capsys.readouterr()
    assert cli.main(["evaluate", "--config", str(cfg_path), "--checkpoint",
                     str(checkpoint)]) == EXIT_DATA
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    message = json.loads(err[0])["message"]
    assert str(checkpoint) in message
    assert source in message


def _byte_ff_in(key, command="train"):
    """Set-up: put a 0xff byte, never valid in UTF-8, at the start of the
    second line of the file ``paths.<key>``."""
    def set_up(config, cfg_path, tmp_path):
        path = Path(config["paths"][key])
        data = path.read_bytes()
        cut = data.index(b"\n") + 1
        path.write_bytes(data[:cut] + b"\xff" + data[cut:])
        if command == "validate-trees":
            return ["validate-trees", "--trees", str(path)], str(path)
        return ["train", "--config", str(cfg_path)], str(path)
    return set_up


def _byte_ff_in_config(config, cfg_path, tmp_path):
    cfg_path.write_bytes(b'{"model": "rst",\n"\xff": 1}')
    return ["train", "--config", str(cfg_path)], str(cfg_path)


def _directory_as(flag):
    """Set-up: name a directory where a file belongs, as ``flag`` or as the
    config key ``paths.<flag>``."""
    def set_up(config, cfg_path, tmp_path):
        directory = str(tmp_path)
        argv = {"--config": ["train", "--config", directory],
                "--checkpoint": ["evaluate", "--config", str(cfg_path),
                                 "--checkpoint", directory],
                "--trees": ["validate-trees", "--trees", directory]}.get(flag)
        if argv is None:
            config["paths"][flag] = directory
            cfg_path.write_text(json.dumps(config))
            argv = ["train", "--config", str(cfg_path)]
        return argv, directory
    return set_up


# (probe, set-up returning the argv and the path the error must name, exit)
UNREADABLE_INPUTS = (
    ("0xff byte in the trees file under validate-trees",
     _byte_ff_in("trees", "validate-trees"), EXIT_DATA),
    ("0xff byte in the trees file under train", _byte_ff_in("trees"), EXIT_DATA),
    ("0xff byte in the documents file", _byte_ff_in("documents"), EXIT_DATA),
    ("0xff byte in the word-vector file", _byte_ff_in("word_vectors"), EXIT_DATA),
    ("0xff byte in the config file", _byte_ff_in_config, EXIT_CONFIG),
    ("directory as --config", _directory_as("--config"), EXIT_CONFIG),
    ("directory as paths.documents", _directory_as("documents"), EXIT_CONFIG),
    ("directory as paths.trees", _directory_as("trees"), EXIT_CONFIG),
    ("directory as paths.word_vectors", _directory_as("word_vectors"), EXIT_CONFIG),
    ("directory as --checkpoint", _directory_as("--checkpoint"), EXIT_CONFIG),
    ("directory as --trees", _directory_as("--trees"), EXIT_CONFIG),
)


@pytest.mark.parametrize("set_up,code", [probe[1:] for probe in UNREADABLE_INPUTS],
                         ids=[probe[0] for probe in UNREADABLE_INPUTS])
def test_unreadable_input_ends_in_one_json_line_naming_it(tmp_path, capsys, set_up,
                                                          code):
    cfg_path, config = write_config(tmp_path, features="t,ns,r,e", n_runs=1)
    assert cli.main(["synth", "--config", str(cfg_path), "--out",
                     str(tmp_path / "data")]) == EXIT_OK
    data = tmp_path / "data"
    config.update(generator=None, paths={
        "documents": str(data / "documents.jsonl"), "trees": str(data / "trees.txt"),
        "word_vectors": str(data / "vectors.txt")})
    cfg_path.write_text(json.dumps(config))
    argv, named = set_up(config, cfg_path, tmp_path)
    capsys.readouterr()
    assert cli.main(argv) == code
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    parsed = json.loads(err[0])
    assert set(parsed) == {"error", "message"}
    assert named in parsed["message"]


def _out_at(relative):
    """Set-up: ``out_dir`` at ``relative`` under the test directory, where a
    file named ``taken`` is in the way."""
    def set_up(config, tmp_path):
        (tmp_path / "taken").write_text("a file\n")
        config["out_dir"] = str(tmp_path / relative)
        return config["out_dir"]
    return set_up


def _no_test_documents(config, tmp_path):
    _file_corpus(1)(config)
    path = Path(config["paths"]["documents"])
    path.write_text(path.read_text().replace('"split": "test"', '"split": "train"'))
    return "test split"


# (probe, command, set-up returning what the error must name)
WORK_THAT_CANNOT_START = (
    ("train into a file", "train", _out_at("taken")),
    ("train under a file", "train", _out_at("taken/out")),
    ("evaluate into a file", "evaluate", _out_at("taken")),
    ("ablate into a file", "ablate", _out_at("taken")),
    ("synth into a file", "synth", _out_at("taken")),
    ("evaluate with no test documents", "evaluate", _no_test_documents),
    ("ablate with no test documents", "ablate", _no_test_documents),
)


@pytest.mark.parametrize("command,set_up",
                         [probe[1:] for probe in WORK_THAT_CANNOT_START],
                         ids=[probe[0] for probe in WORK_THAT_CANNOT_START])
def test_work_that_cannot_start_is_one_config_error_before_it(tmp_path, capsys,
                                                              monkeypatch, command,
                                                              set_up):
    cfg_path, config = write_config(tmp_path, features="t,ns", n_runs=1)
    named = set_up(config, tmp_path)
    cfg_path.write_text(json.dumps(config))
    argv = [command, "--config", str(cfg_path)]
    if command == "evaluate":
        checkpoint = tmp_path / "checkpoint.json"
        checkpoint.write_text(_trained_checkpoint("rst", "t,ns"))
        argv += ["--checkpoint", str(checkpoint)]

    def never(*args, **kwargs):
        raise AssertionError(f"{command} started work it cannot finish")

    monkeypatch.setattr(trainer, "run_multi_seed", never)
    monkeypatch.setattr(trainer, "evaluate_model", never)
    assert cli.main(argv) == EXIT_CONFIG
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    parsed = json.loads(err[0])
    assert parsed["error"] == "ConfigError"
    assert named in parsed["message"]


class TestFeatureRow:
    def test_spec_is_lowercased_and_stripped(self, tmp_path):
        cfg_path, _ = write_config(tmp_path)
        config = cli.load_config(str(cfg_path), argparse.Namespace(features=" T, NS "))
        assert cli.make_train_config(config).features == "t,ns"

    @pytest.mark.parametrize("spec,named", [(" T,R", "' T,R'"), (5, "got 5")])
    def test_bad_spec_is_named_as_written(self, tmp_path, capsys, spec, named):
        cfg_path, _ = write_config(tmp_path, features=spec)
        assert cli.main(["train", "--config", str(cfg_path)]) == EXIT_CONFIG
        assert named in json.loads(capsys.readouterr().err)["message"]

    def test_checkpoint_meta_spec_is_lowercased(self, tmp_path):
        checkpoint = tmp_path / "checkpoint.json"
        checkpoint.write_text(_edit_meta(_trained_checkpoint("rst", "t,ns,r"),
                                         "features", "T,NS,R"))
        model, _ = cli.load_model_from_checkpoint(checkpoint)
        assert model.cfg.features == "t,ns,r"
        assert model.tree.table.data.shape[0] == model.vocab.size


class TestAblate:
    def test_integer_majority_policy_ends_in_one_json_line(self, tmp_path, capsys):
        cfg_path, _ = write_config(tmp_path, majority_policy=5)
        assert cli.main(["ablate", "--config", str(cfg_path)]) == EXIT_CONFIG
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert set(json.loads(err[0])) == {"error", "message"}

    def test_missing_word_vectors_fail_before_any_row_trains(self, tmp_path, capsys,
                                                             monkeypatch):
        cfg_path, config = write_config(tmp_path, n_runs=1)
        _file_corpus(1)(config)  # documents and trees, no word vectors
        cfg_path.write_text(json.dumps(config))
        calls = []
        monkeypatch.setattr(trainer, "run_multi_seed",
                            lambda *args, **kwargs: calls.append(args))
        assert cli.main(["ablate", "--config", str(cfg_path)]) == EXIT_CONFIG
        assert calls == []
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        parsed = json.loads(err[0])
        assert parsed["error"] == "ConfigError"
        assert "word vectors" in parsed["message"]
        assert not (Path(config["out_dir"]) / "ablation.csv").exists()

    def test_grid_has_nine_rows(self, tmp_path):
        cfg_path, config = write_config(tmp_path, n_runs=1)
        assert cli.main(["ablate", "--config", str(cfg_path)]) == EXIT_OK
        out = Path(config["out_dir"])
        with open(out / "ablation.csv", newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        assert len(rows) == 9
        assert [r[0] for r in rows] == ["majority", "rst", "rst", "rst", "rst",
                                        "parseq", "ensemble", "ensemble",
                                        "ensemble"]
        assert [r[1] for r in rows] == ["", "t", "t,ns", "t,ns,r", "t,ns,r,e",
                                        "", "t", "t,ns", "t,ns,r"]

    def test_majority_row_matches_direct_computation(self, tmp_path):
        cfg_path, config = write_config(tmp_path, n_runs=1)
        cli.main(["ablate", "--config", str(cfg_path)])
        gen = corpus.GeneratorConfig(n_train=20, n_test=10, edu_range=(3, 5),
                                     tokens_per_edu=(2, 4), wv_dim=4)
        split = corpus.synthesize_corpus(gen, seed=0)
        rep = metrics.majority_baseline("fixed:3", [d.label for d in split.train],
                                        [d.label for d in split.test])
        with open(Path(config["out_dir"]) / "ablation.csv", newline="") as fh:
            majority = list(csv.reader(fh))[1]
        assert majority[2] == f"{rep.accuracy:.4f}"
        assert majority[4] == f"{rep.weighted_f1:.4f}"


class TestValidateTrees:
    def test_valid_file(self, tmp_path, capsys):
        trees = tmp_path / "trees.txt"
        trees.write_text(
            'a\t(rel A/N B/S (edu "x y") (edu "z w"))\n'
            'b\t(rel C/N D/S (edu "second") (edu "tree"))\n')
        assert cli.main(["validate-trees", "--trees", str(trees)]) == EXIT_OK
        out = capsys.readouterr().out
        assert "2/2 valid" in out

    @pytest.mark.parametrize("line,error", [
        ('(rel C/N D/S (edu "bare line") (edu "no id"))', "IngestError"),
        ('\t(rel C/N D/S (edu "empty") (edu "id"))', "IngestError"),
        ('a\t(rel C/N D/S (edu "duplicate") (edu "id"))', "DataError"),
    ], ids=["no tab", "empty id", "duplicate id"])
    def test_line_training_rejects_is_data_error(self, tmp_path, capsys, line,
                                                 error):
        trees = tmp_path / "trees.txt"
        trees.write_text('a\t(rel A/N B/S (edu "x y") (edu "z w"))\n' + line + "\n")
        assert cli.main(["validate-trees", "--trees", str(trees)]) == EXIT_DATA
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert json.loads(err[0])["error"] == error

    def test_invalid_file(self, tmp_path, capsys):
        trees = tmp_path / "trees.txt"
        trees.write_text(
            'a\t(rel A/N B/S (edu "x") (edu "y"))\n'
            'b\t(rel A/N B/X (edu "x") (edu "y"))\n'
            'c\t(edu "degenerate")\n')
        assert cli.main(["validate-trees", "--trees", str(trees)]) == EXIT_DATA
        out = capsys.readouterr().out
        assert "ParseError" in out
        assert "DegenerateTree" in out
        assert "1/3 valid" in out


class TestAtomicWrites:
    def test_raising_midway_keeps_old_file_and_leaves_no_temp(self, tmp_path):
        path = tmp_path / "report.csv"
        path.write_text("old\n")
        with pytest.raises(RuntimeError), atomic_write(path) as fh:
            fh.write("new, partial")
            fh.flush()
            raise RuntimeError("interrupted")
        assert path.read_text() == "old\n"
        assert list(tmp_path.iterdir()) == [path]

    def test_json_artifact_failing_midway_keeps_old_file(self, tmp_path):
        path = tmp_path / "summary.json"
        cli._write_json(path, {"a": 1})
        old = path.read_bytes()
        with pytest.raises(TypeError):  # json.dump fails on the second key
            cli._write_json(path, {"a": 2, "b": object()})
        assert path.read_bytes() == old
        assert list(tmp_path.iterdir()) == [path]

    def test_checkpoint_write_replaces_whole_file(self, tmp_path):
        bundle = nc.ParameterBundle()
        bundle.add("w", [1.0, 2.0])
        path = tmp_path / "checkpoint.json"
        path.write_text("x" * 10_000)
        nc.save_checkpoint(path, bundle)
        _, tensors = nc.load_checkpoint(path)
        assert tensors["w"].tolist() == [1.0, 2.0]
        assert list(tmp_path.iterdir()) == [path]
