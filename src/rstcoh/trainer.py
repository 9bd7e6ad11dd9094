"""Model assembly, cross-entropy training at the fixed protocol, and the
multi-seed harness.

Every model kind is its document encoders (the tree encoder, ParSeq, or
both for the ensemble) feeding one softmax head; ``build_model`` registers
them and ``Model.classify`` is the one forward path. It takes a list of
documents: training passes one, evaluation chunks of ``EVAL_CHUNK``. It
only does the math: ``build_model`` fixes the feature row, and ``train``
checks once that a model which reads word vectors has them.

One run = fresh seeded parameters, per-document Adam steps (batch size 1),
documents reshuffled each epoch from the run's generator, then one
evaluation on the test split. Everything is deterministic given
(seed, config, data); the harness runs seeds base..base+n-1 one after
another in one loop and aggregates metrics with normal-approximation
confidence intervals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from . import metrics, numcore as nc, parseq, tree_model
from .corpus import CorpusSplit, Document, WordVectors
from .errors import ConfigError, TrainingDiverged
from .rst_data import RelationVocabulary, build_relation_vocab

MODEL_KINDS = ("rst", "parseq", "ensemble")

PROB_FLOOR = 1e-12

# Documents per forward pass in evaluation. Larger chunks amortise more
# interpreter overhead per document; 64 keeps the arrays of a chunk small.
EVAL_CHUNK = 64


@dataclass(frozen=True)
class TrainConfig:
    """One run's settings. Building one, by ``dataclasses.replace`` too,
    raises :class:`ConfigError` for an illegal or inconsistent value.
    ``features`` is the feature row, one of ``tree_model.FEATURE_ROWS``."""

    learning_rate: float = 1e-4
    epochs: int = 2
    hidden_size: int = 100
    relation_dim: int = 50
    seed: int = 0
    model: str = "rst"
    features: str = "t"
    shuffle: bool = True

    def __post_init__(self) -> None:
        lr = self.learning_rate
        if isinstance(lr, bool) or not isinstance(lr, (int, float)) \
                or not math.isfinite(lr) or lr <= 0:
            raise ConfigError(f"learning_rate must be a finite number > 0, got {lr!r}")
        ints = (self.epochs, self.hidden_size, self.relation_dim, self.seed)
        if any(type(n) is not int for n in ints):
            raise ConfigError(f"epochs, sizes and seed must be integers, got {ints}")
        if self.epochs < 1 or self.hidden_size < 1 or self.relation_dim < 1:
            raise ConfigError("epochs and sizes must be positive")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if type(self.shuffle) is not bool:
            raise ConfigError(f"shuffle must be true or false, got {self.shuffle!r}")
        if self.model not in MODEL_KINDS:
            raise ConfigError(f"model must be one of {MODEL_KINDS}, got {self.model!r}")
        if self.features not in tree_model.FEATURE_ROWS:
            raise ConfigError(f"features must be one of {tree_model.FEATURE_ROWS}, "
                              f"got {self.features!r}")
        if self.model == "ensemble" and self.uses("e"):
            raise ConfigError("the ensemble never uses EDU embeddings")

    def uses(self, feature: str) -> bool:
        """Whether the feature row turns ``feature`` ("ns", "r" or "e") on."""
        return feature in self.features.split(",")

    # ParSeq reads word vectors, and so does the tree encoder with E on.
    needs_word_vectors = property(lambda self: self.model != "rst" or self.uses("e"))
    # The tree encoder with R on keys its label table on a vocabulary.
    needs_vocab = property(lambda self: self.model != "parseq" and self.uses("r"))


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
    """One or two document encoders feeding one softmax head.

    rst has only ``tree``, parseq only ``seq``, the ensemble both; the head
    reads [h_l; h_r; d_parseq] of whichever is set, straight from the
    encoders.
    ``cfg`` is the config that built it: its kind, features and sizes (a
    model loaded from a checkpoint has default training fields).
    """

    cfg: TrainConfig
    vocab: RelationVocabulary | None
    bundle: nc.ParameterBundle
    tree: tree_model.TreeModelParams | None
    seq: parseq.ParseqParams | None
    head_w: nc.Tensor  # (3, width of the encoders' output)
    head_b: nc.Tensor  # (3,)

    def classify(self, docs: Sequence[Document], wv: WordVectors | None) -> nc.Tensor:
        """Softmax distributions over coherence classes 1/2/3, (len(docs), 3):
        each encoder runs once over the whole batch, then one head."""
        parts: list[nc.Tensor] = []
        if self.tree is not None:
            parts.append(tree_model.encode_trees(docs, self.tree, wv)[0])
        if self.seq is not None:
            parts.append(parseq.encode_parseq(docs, wv, self.seq))
        return nc.softmax_head(self.head_w, self.head_b, parts)


def build_model(cfg: TrainConfig, vocab: RelationVocabulary | None,
                wv_dim: int, rng: np.random.Generator) -> Model:
    """Register the model's parameters in a fixed order, which fixes both the
    RNG draws and the checkpoint layout:

    * rst: ``tree.*``, its label table, ``classifier.*``, then ``edu.*`` if E is on
    * parseq: ``seq.lstm1-3.*``, then ``classifier.*``
    * ensemble: ``tree.*``, its label table, ``seq.*``, then ``joint.*``
    """
    bundle = nc.ParameterBundle()
    hidden = cfg.hidden_size
    tree = seq = None
    width = 0
    if cfg.model != "parseq":
        tree = tree_model.init_tree_model(bundle, rng, cfg.features, vocab, hidden,
                                          cfg.relation_dim)
        width += 2 * hidden
    if cfg.model != "rst":
        seq = parseq.init_parseq(bundle, rng, wv_dim, hidden)
        width += hidden
    prefix = "joint" if cfg.model == "ensemble" else "classifier"
    head_w = bundle.add(f"{prefix}.w", nc.glorot(rng, (len(metrics.CLASSES), width)))
    head_b = bundle.add(f"{prefix}.b", np.zeros(len(metrics.CLASSES)))
    if tree is not None and cfg.uses("e"):
        tree.edu = nc.init_lstm_cell(bundle, "edu", rng, wv_dim, hidden)
    return Model(cfg, vocab, bundle, tree, seq, head_w, head_b)


def cross_entropy(dist: nc.Tensor, labels: Sequence[int]) -> nc.Tensor:
    """The sum over rows of -log p(label), each probability floored at 1e-12
    before the log."""
    for label in labels:
        if label not in metrics.CLASSES:
            raise ConfigError(f"label must be one of {metrics.CLASSES}, got {label!r}")
    return nc.nll(dist, [label - 1 for label in labels], PROB_FLOOR)


def evaluate_model(model: Model, docs: list[Document],
                   wv: WordVectors | None) -> metrics.EvaluationReport:
    """Classify ``docs`` in chunks of EVAL_CHUNK, one forward pass each."""
    predicted: list[int] = []
    for start in range(0, len(docs), EVAL_CHUNK):
        dist = model.classify(docs[start:start + EVAL_CHUNK], wv)
        predicted.extend((np.argmax(dist.data, axis=1) + 1).tolist())
    true_labels = [doc.label for doc in docs]
    return metrics.report(metrics.ConfusionMatrix.from_pairs(true_labels, predicted))


def run_epoch(model: Model, docs: list[Document], wv: WordVectors | None,
              state: nc.AdamState, lr: float, rng: np.random.Generator,
              shuffle: bool, step: int) -> tuple[float, int]:
    """One pass of per-document Adam steps; returns (mean loss, step count)."""
    order = rng.permutation(len(docs)) if shuffle else np.arange(len(docs))
    total = 0.0
    for k in order:
        doc = docs[int(k)]
        with nc.record():
            dist = model.classify([doc], wv)
            loss = cross_entropy(dist, [doc.label])
            value = loss.item()
            if not math.isfinite(value):
                raise TrainingDiverged(doc.id)
            nc.backward(loss, model.bundle)
        step += 1
        nc.adam_step(model.bundle, state, step, lr)
        total += value
    return total / len(docs), step


def require_documents(split: CorpusSplit, *names: str) -> None:
    """Raise :class:`ConfigError` naming the first empty split of ``names``."""
    for name in names:
        if not getattr(split, name):
            raise ConfigError(f"the {name} split holds no documents")


def train(cfg: TrainConfig, split: CorpusSplit,
          wv: WordVectors | None) -> tuple[Model, RunRecord]:
    """Train one model at ``cfg`` and evaluate it on the test split. This is
    where a missing ``wv`` is caught for every model that reads word
    vectors; the encoders take them as given."""
    if cfg.needs_word_vectors and wv is None:
        raise ConfigError(f"model {cfg.model!r} with features {cfg.features!r} "
                          "needs word vectors")
    require_documents(split, "train", "test")
    rng = np.random.default_rng(cfg.seed)
    vocab = None
    if cfg.needs_vocab:
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


def run_multi_seed(cfg: TrainConfig, split: CorpusSplit, wv: WordVectors | None,
                   n_runs: int, workers: int = 1) -> MultiSeedResult:
    """Independent runs at seeds cfg.seed .. cfg.seed+n_runs-1, one after
    another in ascending order.

    Diverged runs are recorded, flagged, and excluded from the aggregate.
    ``workers`` is accepted and ignored: seeds always run serially, because
    under the interpreter lock a thread pool ran them slower than one loop.
    The keyword stays only while the benchmark harness passes it.
    """
    if n_runs < 1:
        raise ConfigError(f"n_runs must be >= 1, got {n_runs}")
    records: list[RunRecord] = []
    best_model = best_seed = None
    best_accuracy = -1.0
    for seed in range(cfg.seed, cfg.seed + n_runs):
        try:
            model, record = train(replace(cfg, seed=seed), split, wv)
        except TrainingDiverged as exc:
            records.append(RunRecord(seed, None, [], diverged_on=exc.doc_id))
            continue
        records.append(record)
        # Strictly higher only: seeds ascend, so a tie keeps the lower seed.
        if record.report.accuracy > best_accuracy:
            best_model, best_seed = model, seed
            best_accuracy = record.report.accuracy
        del model  # so that the next run trains beside the best model only
    ok = [rec for rec in records if not rec.diverged]
    aggregate = None
    if ok:
        aggregate = {
            name: metrics.confidence_interval(
                [getattr(rec.report, name) for rec in ok])
            for name in AGGREGATE_METRICS
        }
    return MultiSeedResult(records, aggregate, best_model, best_seed)
