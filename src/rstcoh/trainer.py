"""Cross-entropy training at the fixed protocol plus the multi-seed harness.

One run = fresh seeded parameters, per-document Adam steps (batch size 1),
documents reshuffled each epoch from the run's generator, then one
evaluation on the test split. Everything is deterministic given
(seed, config, data); the harness runs seeds base..base+n-1 and aggregates
metrics with normal-approximation confidence intervals.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from . import metrics, numcore as nc, parseq, tree_model
from .corpus import CorpusSplit, Document, WordVectors
from .errors import ConfigError, TrainingDiverged
from .rst_data import RelationVocabulary, build_relation_vocab
from .tree_model import AblationConfig

MODEL_KINDS = ("rst", "parseq", "ensemble")

PROB_FLOOR = 1e-12


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 1e-4
    epochs: int = 2
    hidden_size: int = 100
    relation_dim: int = 50
    seed: int = 0
    model: str = "rst"
    features: AblationConfig = field(default_factory=AblationConfig)
    shuffle: bool = True

    def validate(self) -> None:
        if self.learning_rate <= 0:
            raise ConfigError(f"learning_rate must be positive, got {self.learning_rate}")
        ints = (self.epochs, self.hidden_size, self.relation_dim, self.seed)
        if any(type(n) is not int for n in ints):
            raise ConfigError(f"epochs, sizes and seed must be integers, got {ints}")
        if self.epochs < 1 or self.hidden_size < 1 or self.relation_dim < 1:
            raise ConfigError("epochs and sizes must be positive")
        if self.model not in MODEL_KINDS:
            raise ConfigError(f"model must be one of {MODEL_KINDS}, got {self.model!r}")
        self.features.validate()
        if self.model == "ensemble" and self.features.e:
            raise ConfigError("the ensemble never uses EDU embeddings")


@dataclass
class RunRecord:
    seed: int
    report: metrics.EvaluationReport | None
    epoch_losses: list[float]
    diverged_on: str | None = None

    @property
    def diverged(self) -> bool:
        return self.diverged_on is not None

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "diverged_on": self.diverged_on,
            "epoch_losses": self.epoch_losses,
            "report": self.report.to_dict() if self.report else None,
        }


@dataclass
class Model:
    """A built classifier of one of the three kinds, with its bundle."""

    kind: str
    abl: AblationConfig
    vocab: RelationVocabulary | None
    bundle: nc.ParameterBundle
    params: object

    def classify(self, doc: Document, wv: WordVectors | None) -> nc.Tensor:
        if self.kind == "rst":
            return tree_model.classify_document(doc.tree, self.params, wv,
                                                self.abl, self.vocab)
        if self.kind == "parseq":
            return parseq.classify_parseq(doc, wv, self.params)
        return parseq.classify_ensemble(doc, wv, self.params, self.abl, self.vocab)

    def predict(self, doc: Document, wv: WordVectors | None) -> int:
        with nc.no_grad():
            dist = self.classify(doc, wv)
        return int(np.argmax(dist.data)) + 1


def build_model(cfg: TrainConfig, vocab: RelationVocabulary | None,
                wv_dim: int, rng: np.random.Generator) -> Model:
    cfg.validate()
    bundle = nc.ParameterBundle()
    if cfg.model == "rst":
        params: object = tree_model.init_tree_model(
            bundle, rng, cfg.features, vocab, cfg.hidden_size,
            cfg.relation_dim, wv_dim)
    elif cfg.model == "parseq":
        params = parseq.init_parseq(bundle, rng, wv_dim, cfg.hidden_size)
    else:
        params = parseq.init_ensemble(bundle, rng, cfg.features, vocab,
                                      cfg.hidden_size, cfg.relation_dim, wv_dim)
    return Model(cfg.model, cfg.features, vocab, bundle, params)


def cross_entropy(dist: nc.Tensor, label: int) -> nc.Tensor:
    """-log p(label), with the probability floored at 1e-12 before the log."""
    if label not in (1, 2, 3):
        raise ConfigError(f"label must be in 1..3, got {label!r}")
    p = nc.pick(dist, label - 1)
    return nc.neg(nc.log(nc.clamp_min(p, PROB_FLOOR)))


def evaluate_model(model: Model, docs: list[Document],
                   wv: WordVectors | None) -> metrics.EvaluationReport:
    true_labels = [doc.label for doc in docs]
    predicted = [model.predict(doc, wv) for doc in docs]
    return metrics.report(metrics.ConfusionMatrix.from_pairs(true_labels, predicted))


def needs_vocab(cfg: TrainConfig) -> bool:
    return cfg.model in ("rst", "ensemble") and cfg.features.r


def run_epoch(model: Model, docs: list[Document], wv: WordVectors | None,
              state: nc.AdamState, lr: float, rng: np.random.Generator,
              shuffle: bool, step: int) -> tuple[float, int]:
    """One pass of per-document Adam steps; returns (mean loss, step count)."""
    order = rng.permutation(len(docs)) if shuffle else np.arange(len(docs))
    total = 0.0
    for k in order:
        doc = docs[int(k)]
        dist = model.classify(doc, wv)
        loss = cross_entropy(dist, doc.label)
        value = loss.item()
        if not math.isfinite(value):
            raise TrainingDiverged(doc.id)
        nc.backward(loss, model.bundle)
        step += 1
        nc.adam_step(model.bundle, state, step, lr)
        total += value
    return total / len(docs), step


def train(cfg: TrainConfig, split: CorpusSplit,
          wv: WordVectors | None) -> tuple[Model, RunRecord]:
    """Train one model at ``cfg`` and evaluate it on the test split."""
    cfg.validate()
    if not split.train or not split.test:
        raise ConfigError("training needs non-empty train and test splits")
    rng = np.random.default_rng(cfg.seed)
    vocab = None
    if needs_vocab(cfg):
        vocab = build_relation_vocab(doc.tree for doc in split.train)
    wv_dim = wv.dimension if wv is not None else 1
    model = build_model(cfg, vocab, wv_dim, rng)
    state = nc.AdamState(model.bundle)
    step = 0
    epoch_losses: list[float] = []
    for _ in range(cfg.epochs):
        mean_loss, step = run_epoch(model, split.train, wv, state,
                                    cfg.learning_rate, rng, cfg.shuffle, step)
        epoch_losses.append(mean_loss)
    rep = evaluate_model(model, split.test, wv)
    return model, RunRecord(cfg.seed, rep, epoch_losses)


AGGREGATE_METRICS = ("accuracy", "macro_f1", "weighted_f1")


@dataclass
class MultiSeedResult:
    records: list[RunRecord]  # ordered by seed, diverged runs included
    aggregate: dict[str, tuple[float, float]] | None  # metric -> (mean, ci)
    best_model: Model | None  # highest test accuracy, ties to lowest seed
    best_seed: int | None

    @property
    def n_diverged(self) -> int:
        return sum(1 for r in self.records if r.diverged)


def _run_seed(cfg: TrainConfig, split: CorpusSplit, wv: WordVectors | None,
              seed: int) -> tuple[RunRecord, Model | None]:
    run_cfg = replace(cfg, seed=seed)
    try:
        model, record = train(run_cfg, split, wv)
    except TrainingDiverged as exc:
        return RunRecord(seed, None, [], diverged_on=exc.doc_id), None
    return record, model


def run_multi_seed(cfg: TrainConfig, split: CorpusSplit, wv: WordVectors | None,
                   n_runs: int, workers: int = 1) -> MultiSeedResult:
    """Independent runs at seeds cfg.seed .. cfg.seed+n_runs-1.

    Diverged runs are recorded, flagged, and excluded from the aggregate.
    Results are ordered by seed whether runs execute serially or in a
    thread pool, so the two modes aggregate identically.
    """
    if n_runs < 1:
        raise ConfigError(f"n_runs must be >= 1, got {n_runs}")
    seeds = [cfg.seed + i for i in range(n_runs)]
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(
                lambda s: _run_seed(cfg, split, wv, s), seeds))
    else:
        outcomes = [_run_seed(cfg, split, wv, s) for s in seeds]
    records = [rec for rec, _ in outcomes]
    best_model = None
    best_seed = None
    best_key = None
    for rec, model in outcomes:
        if rec.diverged:
            continue
        key = (-rec.report.accuracy, rec.seed)
        if best_key is None or key < best_key:
            best_key = key
            best_model = model
            best_seed = rec.seed
    ok = [rec for rec in records if not rec.diverged]
    aggregate = None
    if ok:
        aggregate = {
            name: metrics.confidence_interval(
                [getattr(rec.report, name) for rec in ok])
            for name in AGGREGATE_METRICS
        }
    return MultiSeedResult(records, aggregate, best_model, best_seed)
