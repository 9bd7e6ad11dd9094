from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest

from rstcoh import corpus, metrics, numcore as nc, trainer
from rstcoh.errors import ConfigError, TrainingDiverged
from rstcoh.rst_data import RelationVocabulary, build_relation_vocab
from rstcoh.trainer import (MODEL_KINDS, RunRecord, TrainConfig, cross_entropy,
                            run_multi_seed, train)


def small_cfg(**kwargs):
    defaults = dict(learning_rate=1e-3, epochs=1, hidden_size=6, relation_dim=4,
                    seed=0, model="rst",
                    features="t,ns,r")
    defaults.update(kwargs)
    return TrainConfig(**defaults)


class TestCrossEntropy:
    def test_uniform_distribution(self):
        dist = nc.constant([[1 / 3, 1 / 3, 1 / 3]])
        for label in (1, 2, 3):
            assert cross_entropy(dist, [label]).item() == pytest.approx(math.log(3),
                                                                      abs=1e-12)

    def test_certain_prediction(self):
        assert cross_entropy(nc.constant([[0.0, 1.0, 0.0]]), [2]).item() == 0.0

    def test_quarter_probability(self):
        dist = nc.constant([[0.25, 0.5, 0.25]])
        assert cross_entropy(dist, [1]).item() == pytest.approx(-math.log(0.25),
                                                              abs=1e-12)
        assert cross_entropy(dist, [1]).item() == pytest.approx(1.3863, abs=1e-4)

    def test_zero_probability_is_floored(self):
        loss = cross_entropy(nc.constant([[0.0, 0.0, 1.0]]), [1])
        assert loss.item() == pytest.approx(-math.log(1e-12))

    def test_bad_label(self):
        with pytest.raises(ConfigError):
            cross_entropy(nc.constant([[1.0, 0.0, 0.0]]), [0])


class TestTrainConfig:
    def test_validates_model_kind(self):
        with pytest.raises(ConfigError):
            small_cfg(model="transformer")

    def test_ensemble_with_e_rejected(self):
        with pytest.raises(ConfigError):
            small_cfg(model="ensemble",
                      features="t,ns,r,e")

    def test_positive_sizes_required(self):
        with pytest.raises(ConfigError):
            small_cfg(learning_rate=0.0)
        with pytest.raises(ConfigError):
            small_cfg(epochs=0)
        with pytest.raises(ConfigError):
            small_cfg(epochs=1.5)
        with pytest.raises(ConfigError):
            small_cfg(seed=-1)

    def test_every_constructed_config_is_checked(self):
        with pytest.raises(ConfigError):
            TrainConfig(epochs=0)
        with pytest.raises(ConfigError):
            replace(small_cfg(), seed=-1)


# One weight and one bias per cell, its rows in gate blocks i, f_1..f_K, o, u.
TREE_CELL = [("tree.w", (15, 10)), ("tree.b", (15,))]
SEQ_CELLS = [
    ("seq.lstm1.w", (12, 8)), ("seq.lstm1.b", (12,)),
    ("seq.lstm2.w", (12, 6)), ("seq.lstm2.b", (12,)),
    ("seq.lstm3.w", (12, 6)), ("seq.lstm3.b", (12,)),
]
# Registration order fixes both the RNG draws and the checkpoint layout.
PARAMETER_LAYOUT = {
    ("rst", "t,ns,r,e"): TREE_CELL + [
        ("relation_table", (4, 2)), ("classifier.w", (3, 6)), ("classifier.b", (3,)),
        ("edu.w", (12, 8)), ("edu.b", (12,)),
    ],
    ("parseq", "t"): SEQ_CELLS + [("classifier.w", (3, 3)), ("classifier.b", (3,))],
    ("ensemble", "t,ns,r"): TREE_CELL + [("relation_table", (4, 2))] + SEQ_CELLS
    + [("joint.w", (3, 9)), ("joint.b", (3,))],
}


@pytest.mark.parametrize("kind,features", sorted(PARAMETER_LAYOUT))
def test_parameter_names_and_shapes(kind, features):
    vocab = RelationVocabulary(["Elaboration_N", "Elaboration_S", "Contrast_N"])
    cfg = small_cfg(model=kind, features=features,
                    hidden_size=3, relation_dim=2)
    model = trainer.build_model(cfg, vocab, 5, np.random.default_rng(0))
    assert [(name, t.data.shape) for name, t in model.bundle.items()] \
        == PARAMETER_LAYOUT[kind, features]


class TestTrain:
    def test_same_seed_bit_identical(self, tiny_split, tiny_wv):
        cfg = small_cfg(epochs=2)
        model_a, rec_a = train(cfg, tiny_split, tiny_wv)
        model_b, rec_b = train(cfg, tiny_split, tiny_wv)
        assert rec_a.epoch_losses == rec_b.epoch_losses
        assert rec_a.report == rec_b.report
        for name, _ in model_a.bundle.items():
            assert np.array_equal(model_a.bundle[name].data,
                                  model_b.bundle[name].data)

    def test_different_seeds_generally_differ(self, tiny_split, tiny_wv):
        _, rec_a = train(small_cfg(seed=0), tiny_split, tiny_wv)
        _, rec_b = train(small_cfg(seed=1), tiny_split, tiny_wv)
        assert rec_a.epoch_losses != rec_b.epoch_losses

    def test_first_epoch_mean_loss_near_ln3_on_balanced_data(self):
        cfg_gen = corpus.GeneratorConfig(n_train=60, n_test=12, wv_dim=4,
                                         edu_range=(3, 6), tokens_per_edu=(2, 4))
        split = corpus.synthesize_corpus(cfg_gen, seed=3)
        wv = corpus.synthesize_word_vectors(cfg_gen, seed=3)
        cfg = small_cfg(learning_rate=1e-4, epochs=1)
        _, rec = train(cfg, split, wv)
        assert rec.epoch_losses[0] == pytest.approx(math.log(3), abs=0.1)

    def test_empty_split_rejected(self, tiny_wv):
        empty = corpus.CorpusSplit([], [], [])
        with pytest.raises(ConfigError):
            train(small_cfg(), empty, tiny_wv)

    def test_all_model_kinds_run(self, tiny_split, tiny_wv):
        for kind in MODEL_KINDS:
            features = "t,ns,r" if kind != "parseq" else "t"
            cfg = small_cfg(model=kind,
                            features=features)
            _, rec = train(cfg, tiny_split, tiny_wv)
            assert rec.report is not None
            assert all(math.isfinite(v) for v in rec.epoch_losses)

    def test_divergence_reports_document_id(self, tiny_split, tiny_wv):
        cfg = small_cfg()
        rng = np.random.default_rng(0)
        from rstcoh.rst_data import build_relation_vocab
        vocab = build_relation_vocab(d.tree for d in tiny_split.train)
        model = trainer.build_model(cfg, vocab, tiny_wv.dimension, rng)
        model.bundle["classifier.w"].data[:] = np.nan
        state = nc.AdamState(model.bundle)
        with pytest.raises(TrainingDiverged) as exc:
            trainer.run_epoch(model, tiny_split.train, tiny_wv, state,
                              cfg.learning_rate, rng, False, 0)
        assert exc.value.doc_id == tiny_split.train[0].id


class TestRunMultiSeed:
    def test_single_run_aggregate_is_the_run(self, tiny_split, tiny_wv):
        result = run_multi_seed(small_cfg(), tiny_split, tiny_wv, n_runs=1)
        assert len(result.records) == 1
        rec = result.records[0]
        mean, hw = result.aggregate["accuracy"]
        assert mean == rec.report.accuracy
        assert hw == 0.0
        assert result.best_seed == rec.seed

    def test_seeds_are_consecutive_and_ordered(self, tiny_split, tiny_wv):
        result = run_multi_seed(small_cfg(seed=5), tiny_split, tiny_wv, n_runs=3)
        assert [r.seed for r in result.records] == [5, 6, 7]

    def test_diverged_runs_flagged_and_excluded(self, tiny_split, tiny_wv,
                                                monkeypatch):
        real_train = trainer.train

        def flaky(cfg, split, wv):
            if cfg.seed == 1:
                raise TrainingDiverged("synth-train-0000")
            return real_train(cfg, split, wv)

        monkeypatch.setattr(trainer, "train", flaky)
        result = run_multi_seed(small_cfg(), tiny_split, tiny_wv, n_runs=3)
        assert result.n_diverged == 1
        assert result.records[1].diverged
        assert result.records[1].diverged_on == "synth-train-0000"
        assert result.aggregate is not None  # two healthy runs remain

    def test_all_diverged_gives_no_aggregate(self, tiny_split, tiny_wv,
                                             monkeypatch):
        def always_diverge(cfg, split, wv):
            raise TrainingDiverged("doc")

        monkeypatch.setattr(trainer, "train", always_diverge)
        result = run_multi_seed(small_cfg(), tiny_split, tiny_wv, n_runs=2)
        assert result.aggregate is None
        assert result.best_model is None

    def test_zero_runs_rejected(self, tiny_split, tiny_wv):
        with pytest.raises(ConfigError):
            run_multi_seed(small_cfg(), tiny_split, tiny_wv, n_runs=0)

    def test_best_model_has_best_accuracy(self, tiny_split, tiny_wv):
        result = run_multi_seed(small_cfg(), tiny_split, tiny_wv, n_runs=3)
        best_acc = max(r.report.accuracy for r in result.records)
        rep = trainer.evaluate_model(result.best_model, tiny_split.test, tiny_wv)
        assert rep.accuracy == best_acc

    def test_best_model_tie_goes_to_lowest_seed(self, tiny_split, tiny_wv,
                                                monkeypatch):
        # Seeds 0-3 score 0.5, 0.75, diverge, 0.75 on four test documents.
        predicted = {0: [1, 1, 2, 2], 1: [1, 1, 1, 2], 3: [1, 1, 1, 2]}
        models = {seed: object() for seed in predicted}

        def canned(cfg, split, wv):
            if cfg.seed not in predicted:
                raise TrainingDiverged("doc")
            cm = metrics.ConfusionMatrix.from_pairs([1, 1, 1, 1], predicted[cfg.seed])
            return models[cfg.seed], RunRecord(cfg.seed, metrics.report(cm), [1.0])

        monkeypatch.setattr(trainer, "train", canned)
        result = run_multi_seed(small_cfg(), tiny_split, tiny_wv, n_runs=4)
        assert [r.report.accuracy if r.report else None for r in result.records] \
            == [0.5, 0.75, None, 0.75]
        assert result.best_seed == 1
        assert result.best_model is models[1]

    def test_record_serialization(self, tiny_split, tiny_wv):
        result = run_multi_seed(small_cfg(), tiny_split, tiny_wv, n_runs=1)
        d = result.records[0].to_dict()
        assert d["seed"] == 0
        assert d["report"]["accuracy"] == result.records[0].report.accuracy


@pytest.fixture(scope="module")
def chunk_corpus():
    """2 * EVAL_CHUNK + 1 test documents: two full chunks and one of one."""
    gen = corpus.GeneratorConfig(n_train=4, n_test=2 * trainer.EVAL_CHUNK + 1,
                                 edu_range=(2, 7), tokens_per_edu=(1, 3), wv_dim=3)
    return corpus.synthesize_corpus(gen, seed=3), corpus.synthesize_word_vectors(gen, 3)


def random_model(kind, features, split, wv, seed):
    cfg = small_cfg(model=kind, features=features)
    vocab = None
    if cfg.needs_vocab:
        vocab = build_relation_vocab(d.tree for d in split.train)
    rng = np.random.default_rng(seed)
    model = trainer.build_model(cfg, vocab, wv.dimension, rng)
    model.bundle.data[:] = rng.uniform(-0.8, 0.8, size=model.bundle.data.shape)
    return model


@pytest.mark.parametrize("kind,features", [("rst", "t,ns,r,e"), ("rst", "t"),
                                           ("parseq", "t"), ("ensemble", "t,ns,r")])
def test_chunked_evaluation_equals_one_document_classify(kind, features, chunk_corpus,
                                                          monkeypatch):
    split, wv = chunk_corpus
    docs = split.test
    model = random_model(kind, features, split, wv, seed=8)
    chunks = []
    classify = trainer.Model.classify

    def spy(self, batch, wv):
        dist = classify(self, batch, wv)
        chunks.append(dist.data)
        return dist

    monkeypatch.setattr(trainer.Model, "classify", spy)
    rep = trainer.evaluate_model(model, docs, wv)
    assert [len(c) for c in chunks] == [trainer.EVAL_CHUNK, trainer.EVAL_CHUNK, 1]
    monkeypatch.undo()
    chunked = np.concatenate(chunks)
    single = np.concatenate([model.classify([doc], wv).data for doc in docs])
    np.testing.assert_allclose(chunked, single, rtol=0.0, atol=1e-12)
    assert np.array_equal(np.argmax(chunked, axis=1), np.argmax(single, axis=1))
    predicted = (np.argmax(single, axis=1) + 1).tolist()
    want = metrics.ConfusionMatrix.from_pairs([d.label for d in docs], predicted)
    assert rep.to_dict() == metrics.report(want).to_dict()


@pytest.mark.parametrize("kind,features,entries", [("rst", "t,ns,r,e", 4),
                                                   ("rst", "t", 3),
                                                   ("parseq", "t", 5),
                                                   ("ensemble", "t,ns,r", 6)])
def test_tape_entries_per_training_document(kind, features, entries, tiny_split,
                                            tiny_wv):
    model = random_model(kind, features, tiny_split, tiny_wv, seed=2)
    doc = tiny_split.train[0]
    with nc.record():
        cross_entropy(model.classify([doc], tiny_wv), [doc.label])
        assert len(nc._tape) == entries


@pytest.mark.parametrize("kind,features", [("rst", "t,ns,r,e"), ("parseq", "t"),
                                           ("ensemble", "t,ns,r")])
def test_training_and_evaluation_never_tokenize(kind, features, tiny_split, tiny_wv,
                                                tmp_path, monkeypatch):
    # ingest tokenizes each EDU once; the models read Document.edus
    corpus.write_documents(tmp_path / "documents.jsonl", tiny_split)
    corpus.write_trees(tmp_path / "trees.txt", tiny_split)
    split = corpus.load_corpus(tmp_path / "documents.jsonl", tmp_path / "trees.txt")

    class Refuse:
        def findall(self, text):
            raise AssertionError(f"tokenized {text!r} after ingest")

    # every call of corpus.tokenize, however it was imported, runs this pattern
    monkeypatch.setattr(corpus, "_TOKEN_RE", Refuse())
    model = random_model(kind, features, split, tiny_wv, seed=4)
    trainer.run_epoch(model, split.train[:2], tiny_wv, nc.AdamState(model.bundle),
                      1e-3, np.random.default_rng(0), False, 0)
    trainer.evaluate_model(model, split.test, tiny_wv)
