"""Command-line entry point: train, evaluate, ablate, synth, validate-trees.

All commands read one JSON config file (overridable by flags) and write
deterministic artifacts, so re-running a command with the same inputs
reproduces the output files byte for byte. Errors print a single JSON line
on stderr; exit codes: 0 success, 1 config error, 2 data error, 3 training
diverged in every run.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from . import corpus, metrics, numcore as nc, rst_data, trainer
from .atomic import atomic_write
from .errors import ConfigError, DataError, ParseError, RstcohError, TrainingDiverged
from .tree_model import FEATURE_ROWS

EXIT_OK = 0
EXIT_CONFIG = ConfigError.exit_code
EXIT_DATA = RstcohError.exit_code
EXIT_DIVERGED = TrainingDiverged.exit_code

ABLATION_ROWS = (
    ("majority", None),
    ("rst", "t"),
    ("rst", "t,ns"),
    ("rst", "t,ns,r"),
    ("rst", "t,ns,r,e"),
    ("parseq", "t"),
    ("ensemble", "t"),
    ("ensemble", "t,ns"),
    ("ensemble", "t,ns,r"),
)

DEFAULT_CONFIG = {
    "paths": {"documents": None, "trees": None, "word_vectors": None},
    "out_dir": "out",
    "model": "rst",
    "features": "t,ns,r,e",
    # Every TrainConfig field but the two set at the top level; the CLI's
    # default features row differs from the dataclass's.
    "train": {f.name: f.default for f in dataclasses.fields(trainer.TrainConfig)
              if f.name not in ("model", "features")},
    "n_runs": 1,
    # Validated but ignored: seeds run serially (see trainer.run_multi_seed).
    "workers": 1,
    "majority_policy": "fixed:3",
    "data_seed": 0,
    "generator": None,
}


def _require_file(path: str, what: str) -> None:
    """A named input must be a regular file, not a missing path or a directory."""
    if not Path(path).is_file():
        problem = "is not a file" if Path(path).exists() else "does not exist"
        raise ConfigError(f"{what} {problem}: {path}")


def load_config(path: str | None, overrides: argparse.Namespace) -> dict:
    config = json.loads(json.dumps(DEFAULT_CONFIG))  # deep copy
    if path is not None:
        _require_file(path, "config file")
        try:
            with open(path, encoding="utf-8") as fh:
                user = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file {path}: {exc.msg}") from None
        except UnicodeDecodeError as exc:
            raise ConfigError(f"config file {path}: not UTF-8 text ({exc.reason})") from None
        if not isinstance(user, dict):
            raise ConfigError("config must be a JSON object")
        for key, value in user.items():
            if key not in DEFAULT_CONFIG:
                raise ConfigError(f"unknown config key {key!r}")
            if key in ("paths", "train") and isinstance(value, dict):
                for sub, subval in value.items():
                    if sub not in DEFAULT_CONFIG[key]:
                        raise ConfigError(f"unknown config key {key}.{sub!r}")
                    config[key][sub] = subval
            else:
                config[key] = value
    for name, dest in (("model", "model"), ("features", "features"),
                       ("runs", "n_runs"), ("out", "out_dir")):
        value = getattr(overrides, name, None)
        if value is not None:
            config[dest] = value
    if getattr(overrides, "seed", None) is not None:
        config["train"]["seed"] = overrides.seed
    if not isinstance(config["paths"], dict):
        raise ConfigError(f"paths must be an object, got {config['paths']!r}")
    for key, value in config["paths"].items():
        if value is not None and not isinstance(value, str):
            raise ConfigError(f"paths.{key} must be a string or null, got {value!r}")
    for key in ("out_dir", "majority_policy"):
        if not isinstance(config[key], str):
            raise ConfigError(f"{key} must be a string, got {config[key]!r}")
    return config


def _feature_row(spec):
    """A feature row as a config, flag or checkpoint may spell it: lowercased,
    parts stripped, empty parts dropped. Anything that is then no row, a
    non-string too, is returned as given, for ``TrainConfig``'s error to name."""
    parts = spec.lower().split(",") if isinstance(spec, str) else []
    row = ",".join(part.strip() for part in parts if part.strip())
    return row if row in FEATURE_ROWS else spec


def make_train_config(config: dict) -> trainer.TrainConfig:
    for key in ("n_runs", "workers"):
        value = config[key]
        if type(value) is not int or value < 1:
            raise ConfigError(f"{key} must be an integer >= 1, got {value!r}")
    try:
        return trainer.TrainConfig(
            model=config["model"],
            features=_feature_row(config["features"]),
            **config["train"])
    except (KeyError, TypeError, AttributeError) as exc:
        raise ConfigError(f"bad train config: {exc}") from exc


def make_generator_config(config: dict) -> corpus.GeneratorConfig:
    gen = config.get("generator")
    if gen is None:
        raise ConfigError("no corpus paths and no generator config given")
    if not isinstance(gen, dict):
        raise ConfigError("generator config must be an object")
    fields = {f.name for f in dataclasses.fields(corpus.GeneratorConfig)}
    unknown = set(gen) - fields
    if unknown:
        raise ConfigError(f"unknown generator keys {sorted(unknown)}")
    kwargs = {}
    for key, value in gen.items():
        kwargs[key] = tuple(value) if isinstance(value, list) else value
    try:
        return corpus.GeneratorConfig(**kwargs)
    except (TypeError, IndexError) as exc:
        raise ConfigError(f"bad generator config: {exc}") from exc


def synthesize(config: dict) -> tuple[corpus.CorpusSplit, corpus.WordVectors]:
    """The generator's corpus and word vectors at ``data_seed``."""
    gen_cfg = make_generator_config(config)
    seed = config["data_seed"]
    if type(seed) is not int or seed < 0:
        raise ConfigError(f"data_seed must be an integer >= 0, got {seed!r}")
    return (corpus.synthesize_corpus(gen_cfg, seed),
            corpus.synthesize_word_vectors(gen_cfg, seed))


def resolve_corpus(config: dict) -> tuple[corpus.CorpusSplit, corpus.WordVectors | None]:
    paths = config["paths"]
    if paths.get("documents") or paths.get("trees"):
        if not (paths.get("documents") and paths.get("trees")):
            raise ConfigError("paths.documents and paths.trees must be given together")
        for key in ("documents", "trees"):
            _require_file(paths[key], f"paths.{key}")
        split = corpus.load_corpus(paths["documents"], paths["trees"])
        wv = None
        if paths.get("word_vectors"):
            _require_file(paths["word_vectors"], "paths.word_vectors")
            wv = corpus.load_word_vectors(paths["word_vectors"],
                                          corpus.corpus_token_vocab(split))
        return split, wv
    return synthesize(config)


def _make_out_dir(config: dict) -> Path:
    """Make ``out_dir``, before a command's first training, evaluation or
    write: a path that cannot be a directory fails before any work."""
    out_dir = Path(config["out_dir"])
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"out_dir {out_dir} cannot be made: {exc.strerror}") from None
    return out_dir


def _write_json(path: Path, obj: dict) -> None:
    with atomic_write(path) as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _print_aggregate(label: str, result: trainer.MultiSeedResult) -> None:
    print(f"{label}: runs={len(result.records)} diverged={result.n_diverged}")
    if result.aggregate is None:
        print("  all runs diverged")
        return
    for name in trainer.AGGREGATE_METRICS:
        mean, ci = result.aggregate[name]
        print(f"  {name:<12} {mean:.4f} ±{ci:.4f}")


def _checkpoint_meta(cfg: trainer.TrainConfig, model: trainer.Model,
                     wv: corpus.WordVectors | None, seed: int) -> dict:
    return {
        "model": cfg.model,
        "features": cfg.features,
        "hidden_size": cfg.hidden_size,
        "relation_dim": cfg.relation_dim,
        "wv_dim": wv.dimension if wv is not None else 1,
        "vocab": list(model.vocab.labels) if model.vocab is not None else None,
        "seed": seed,
    }


def cmd_train(config: dict) -> int:
    cfg = make_train_config(config)
    split, wv = resolve_corpus(config)
    out_dir = _make_out_dir(config)
    result = trainer.run_multi_seed(cfg, split, wv, config["n_runs"])
    with atomic_write(out_dir / "run_log.jsonl") as fh:
        for rec in result.records:
            fh.write(json.dumps(rec.to_dict(), sort_keys=True) + "\n")
    summary = {
        "config": config,
        "n_runs": len(result.records),
        "n_diverged": result.n_diverged,
        "aggregate": None if result.aggregate is None else {
            name: {"mean": mean, "ci95": ci}
            for name, (mean, ci) in result.aggregate.items()
        },
        "exclusions": [{"id": e.doc_id, "reason": e.reason}
                       for e in split.exclusion_log],
    }
    _write_json(out_dir / "summary.json", summary)
    if result.best_model is not None:
        meta = _checkpoint_meta(cfg, result.best_model, wv, result.best_seed)
        nc.save_checkpoint(out_dir / "checkpoint.json", result.best_model.bundle, meta)
    _print_aggregate(f"{cfg.model} [{cfg.features}]", result)
    if result.aggregate is None:
        return EXIT_DIVERGED
    return EXIT_OK


def load_model_from_checkpoint(path) -> tuple[trainer.Model, int]:
    """The model a checkpoint holds and the word-vector dimension it was
    trained with. Meta that does not build a model, whatever the package
    error, is one data error naming the checkpoint."""
    meta, tensors = nc.load_checkpoint(path)
    try:
        wv_dim = meta["wv_dim"]
        if type(wv_dim) is not int or wv_dim < 1:
            raise DataError(f"meta.wv_dim must be an integer >= 1, got {wv_dim!r}")
        vocab = None
        if meta.get("vocab") is not None:
            vocab = rst_data.RelationVocabulary(meta["vocab"])
        cfg = trainer.TrainConfig(
            hidden_size=meta["hidden_size"], relation_dim=meta["relation_dim"],
            model=meta["model"],
            features=_feature_row(meta["features"]))
        # Each size meta states is held against the stored weight whose
        # shape it fixes, since the model is built at meta's sizes.
        n = cfg.hidden_size
        fixed = {}
        if cfg.model != "parseq":  # the tree cell, 5 gates over [h_l; h_r; r_l; r_r]
            fixed["tree.w"] = (5 * n, 2 * n + 2 * cfg.relation_dim)
        if cfg.model != "rst" or cfg.uses("e"):  # the word LSTM, 4 gates over [x; h]
            fixed["edu.w" if cfg.model == "rst" else "seq.lstm1.w"] = (4 * n, wv_dim + n)
        for name, shape in fixed.items():
            stored = tensors[name].shape if name in tensors else None
            if stored != shape:
                raise DataError(f"meta sizes make {name} {shape}, but it is {stored}")
        model = trainer.build_model(cfg, vocab, wv_dim, np.random.default_rng(0))
    except (KeyError, TypeError, AttributeError, RstcohError) as exc:
        raise DataError(f"checkpoint {path}: bad meta: {exc!r}") from None
    try:
        model.bundle.load_state(tensors)
    except DataError as exc:
        raise DataError(f"checkpoint {path}: {exc}") from None
    return model, wv_dim


def cmd_evaluate(config: dict, checkpoint: str) -> int:
    _require_file(checkpoint, "checkpoint")
    model, wv_dim = load_model_from_checkpoint(checkpoint)
    split, wv = resolve_corpus(config)
    trainer.require_documents(split, "test")
    if model.cfg.needs_word_vectors:
        if wv is None:
            raise ConfigError(f"checkpoint {checkpoint}: its model needs word vectors, "
                              "and paths.word_vectors is not set")
        if wv.dimension != wv_dim:
            paths = config["paths"]
            source = (f"paths.word_vectors {paths['word_vectors']}"
                      if paths.get("documents") else "the generator")
            raise DataError(f"checkpoint {checkpoint} needs {wv_dim}-d word vectors, "
                            f"but {source} gives {wv.dimension}-d vectors")
    out_dir = _make_out_dir(config)
    try:
        rep = trainer.evaluate_model(model, split.test, wv)
    except TrainingDiverged as exc:
        raise DataError(f"checkpoint {checkpoint}: non-finite class distribution "
                        f"on document {exc.doc_id!r}") from None
    _write_json(out_dir / "report.json", {"config": config, "report": rep.to_dict()})
    with atomic_write(out_dir / "report.csv") as fh:
        fh.write(metrics.CSV_HEADER + "\n")
        fh.write(metrics.csv_row(rep) + "\n")
    print(f"evaluate: accuracy={rep.accuracy:.4f} macro_f1={rep.macro_f1:.4f} "
          f"weighted_f1={rep.weighted_f1:.4f}")
    return EXIT_OK


def cmd_ablate(config: dict) -> int:
    split, wv = resolve_corpus(config)
    trainer.require_documents(split, "train", "test")
    # Every row's config is built, and checked against the word vectors,
    # before the first row trains.
    row_cfgs = [None if kind == "majority" else make_train_config(
        dict(config, model=kind, features=features))
        for kind, features in ABLATION_ROWS]
    needy = [f"{cfg.model} [{cfg.features}]" for cfg in row_cfgs
             if cfg is not None and cfg.needs_word_vectors]
    if wv is None and needy:
        raise ConfigError(f"ablation rows {', '.join(needy)} need word vectors, "
                          "and paths.word_vectors is not set")
    out_dir = _make_out_dir(config)
    rows = []
    any_ok = False  # whether a trained row has a run that did not diverge
    for (kind, features), cfg in zip(ABLATION_ROWS, row_cfgs):
        if kind == "majority":
            rep = metrics.majority_baseline(
                config["majority_policy"],
                [d.label for d in split.train], [d.label for d in split.test])
            cells = {name: (getattr(rep, name), 0.0)
                     for name in trainer.AGGREGATE_METRICS}
            rows.append(("majority", "", cells, 1, 0))
            print(f"majority [{config['majority_policy']}]: "
                  f"accuracy={rep.accuracy:.4f} weighted_f1={rep.weighted_f1:.4f}")
            continue
        result = trainer.run_multi_seed(cfg, split, wv, config["n_runs"])
        label = kind if kind == "parseq" else f"{kind} [{features}]"
        _print_aggregate(label, result)
        if result.aggregate is not None:
            any_ok = True
            cells = result.aggregate
        else:
            cells = {name: (float("nan"), float("nan"))
                     for name in trainer.AGGREGATE_METRICS}
        rows.append((kind, "" if kind == "parseq" else features, cells,
                     len(result.records), result.n_diverged))
    header = ["model", "features", "accuracy_mean", "accuracy_ci",
              "weighted_f1_mean", "weighted_f1_ci", "macro_f1_mean",
              "macro_f1_ci", "runs", "diverged"]
    with atomic_write(out_dir / "ablation.csv", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for kind, features, cells, runs, diverged in rows:
            acc, wf1, mf1 = (cells["accuracy"], cells["weighted_f1"],
                             cells["macro_f1"])
            writer.writerow([kind, features, f"{acc[0]:.4f}", f"{acc[1]:.4f}",
                             f"{wf1[0]:.4f}", f"{wf1[1]:.4f}", f"{mf1[0]:.4f}",
                             f"{mf1[1]:.4f}", runs, diverged])
    _write_json(out_dir / "ablation_summary.json", {"config": config})
    return EXIT_OK if any_ok else EXIT_DIVERGED


def cmd_synth(config: dict) -> int:
    split, wv = synthesize(config)
    out_dir = _make_out_dir(config)
    corpus.write_documents(out_dir / "documents.jsonl", split)
    corpus.write_trees(out_dir / "trees.txt", split)
    corpus.write_word_vectors(out_dir / "vectors.txt", wv)
    print(f"synth: wrote {len(split.train)} train / {len(split.test)} test "
          f"documents to {out_dir}")
    return EXIT_OK


def cmd_validate_trees(trees_path: str) -> int:
    """Parse and validate each tree; the line format is the training
    loader's, so a file reported all valid also loads for training."""
    _require_file(trees_path, "trees file")
    bad = 0
    total = 0
    for line_no, _, text in corpus.read_tree_lines(trees_path):
        total += 1
        try:
            shape = rst_data.parse_tree(text)
        except ParseError as exc:
            print(f"line {line_no}: ParseError: {exc}")
            bad += 1
            continue
        if shape.violations:
            codes = ",".join(v.code + ("@" + v.path if v.path else "")
                             for v in shape.violations)
            print(f"line {line_no}: INVALID: {codes}")
            bad += 1
        else:
            print(f"line {line_no}: OK ({len(shape.leaves)} EDUs)")
    print(f"validate-trees: {total - bad}/{total} valid")
    return EXIT_OK if bad == 0 else EXIT_DATA


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rstcoh",
        description="Train and evaluate coherence classifiers over discourse trees.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--model", choices=trainer.MODEL_KINDS)
        p.add_argument("--features", help="feature row: t[,ns[,r[,e]]]")
        p.add_argument("--runs", type=int, help="number of seeds")
        p.add_argument("--seed", type=int, help="base seed")
        p.add_argument("--out", help="output directory")

    add_common(sub.add_parser("train", help="train and evaluate one model"))
    p_eval = sub.add_parser("evaluate", help="evaluate a checkpoint on the test split")
    add_common(p_eval)
    p_eval.add_argument("--checkpoint", required=True)
    add_common(sub.add_parser("ablate", help="run the full feature grid"))
    add_common(sub.add_parser("synth", help="emit a synthetic corpus"))
    p_val = sub.add_parser("validate-trees", help="validate a tree file")
    p_val.add_argument("--trees", required=True)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "validate-trees":
            return cmd_validate_trees(args.trees)
        config = load_config(args.config, args)
        if args.command == "train":
            return cmd_train(config)
        if args.command == "evaluate":
            return cmd_evaluate(config, args.checkpoint)
        if args.command == "ablate":
            return cmd_ablate(config)
        if args.command == "synth":
            return cmd_synth(config)
        raise ConfigError(f"unknown command {args.command!r}")
    except RstcohError as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}),
              file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
