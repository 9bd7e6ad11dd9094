from __future__ import annotations

import csv
import json
from pathlib import Path

import pytest

from rstcoh import cli, corpus, metrics
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


def _edit_meta(text, key, value=None):
    doc = json.loads(text)
    if value is None:
        del doc["meta"][key]
    else:
        doc["meta"][key] = value
    return json.dumps(doc)


# (probe, config edit, checkpoint edit for `evaluate` or None for `train`, exit)
MALFORMED_INPUTS = (
    ("string learning_rate", lambda c: c["train"].update(learning_rate="1e-3"),
     None, EXIT_CONFIG),
    ("string train.seed", lambda c: c["train"].update(seed="0"), None, EXIT_CONFIG),
    ("string n_runs", lambda c: c.update(n_runs="2"), None, EXIT_CONFIG),
    ("string workers", lambda c: c.update(workers="1"), None, EXIT_CONFIG),
    ("integer features", lambda c: c.update(features=5), None, EXIT_CONFIG),
    ("string generator.edu_range", lambda c: c["generator"].update(edu_range="3,5"),
     None, EXIT_CONFIG),
    ("string generator.n_train", lambda c: c["generator"].update(n_train="20"),
     None, EXIT_CONFIG),
    ("truncated checkpoint", None, lambda t: t[:len(t) // 2], EXIT_DATA),
    ("checkpoint without meta.wv_dim", None, lambda t: _edit_meta(t, "wv_dim"),
     EXIT_DATA),
    ("checkpoint wv_dim does not fit", None, lambda t: _edit_meta(t, "wv_dim", 5),
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


class TestAblate:
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
            '(rel C/N D/S (edu "bare line") (edu "no id"))\n')
        assert cli.main(["validate-trees", "--trees", str(trees)]) == EXIT_OK
        out = capsys.readouterr().out
        assert "2/2 valid" in out

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
