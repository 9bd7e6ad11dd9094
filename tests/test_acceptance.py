"""Acceptance suite: one test per release criterion, each printing a
pass/fail line with its runtime (run with ``pytest tests/test_acceptance.py -s``).
"""

from __future__ import annotations

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from rstcoh import corpus, metrics, numcore as nc, parseq, trainer, tree_model
from rstcoh.corpus import GeneratorConfig, WordVectors, synthesize_corpus, \
    synthesize_word_vectors
from rstcoh.errors import ParseError
from rstcoh.rst_data import (Internal, Leaf, NodeLabel, build_relation_vocab,
                             parse_tree, serialize_tree, validate_tree)

import oracles
from conftest import make_label, three_edu_tree


@contextmanager
def criterion(number: int, name: str, budget_s: float):
    t0 = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"\n[acceptance] criterion {number} ({name}): "
              f"FAIL ({time.monotonic() - t0:.1f}s)")
        raise
    dt = time.monotonic() - t0
    if dt >= budget_s:
        print(f"\n[acceptance] criterion {number} ({name}): "
              f"FAIL (over budget: {dt:.1f}s >= {budget_s:.0f}s)")
        raise AssertionError(f"criterion {number} exceeded its runtime budget")
    print(f"\n[acceptance] criterion {number} ({name}): PASS ({dt:.1f}s)")


def _build(kind, features, vocab, hidden, rel_dim, wv_dim, rng) -> trainer.Model:
    cfg = trainer.TrainConfig(hidden_size=hidden, relation_dim=rel_dim, model=kind,
                              features=features)
    return trainer.build_model(cfg, vocab, wv_dim, rng)


def _as_document(tree) -> corpus.Document:
    """A document that only its tree tells apart: what an rst model reads."""
    return corpus.Document("d", 1, "", [[["x"]]], tree)


# --- criterion 1: majority-row reproduction ----------------------------------

SUPPORTS = {"clinton": (50, 38, 109), "enron": (59, 50, 87), "yahoo": (78, 41, 73)}
MAJORITY_ROWS = {"clinton": (55.33, 39.42), "enron": (44.39, 27.29),
                 "yahoo": (38.02, 20.95)}


def test_criterion_1_majority_rows():
    with criterion(1, "majority-row reproduction", 1.0):
        for name, supports in SUPPORTS.items():
            labels = [k for k, n in zip((1, 2, 3), supports) for _ in range(n)]
            rep = metrics.majority_baseline("fixed:3", [], labels)
            want_acc, want_wf1 = MAJORITY_ROWS[name]
            assert rep.accuracy * 100 == pytest.approx(want_acc, abs=0.01), name
            assert rep.weighted_f1 * 100 == pytest.approx(want_wf1, abs=0.01), name


# --- criterion 2: gradient soundness ------------------------------------------

GRAD_LABELS = ("Cause_N", "Cause_S", "Contrast_N", "Elaboration_S",
               "Evidence_N", "Joint_S")


def _grad_corpus():
    cfg = GeneratorConfig(n_train=5, n_test=0, labels=GRAD_LABELS,
                          edu_range=(4, 6), tokens_per_edu=(2, 4),
                          max_paragraphs=2, wv_dim=6)
    split = synthesize_corpus(cfg, seed=2024)
    wv = synthesize_word_vectors(cfg, seed=2024)
    return split.train, wv


def _check_model_gradients(kind: str, features: str, docs, wv):
    cfg = trainer.TrainConfig(hidden_size=8, relation_dim=4, model=kind,
                              features=features)
    vocab = build_relation_vocab(d.tree for d in docs)
    model = trainer.build_model(cfg, vocab, wv.dimension,
                                np.random.default_rng(99))
    for doc in docs:
        def loss() -> nc.Tensor:
            return trainer.cross_entropy(model.classify([doc], wv), [doc.label])

        with nc.record():
            nc.backward(loss(), model.bundle)
        analytic = {name: t.grad.copy() for name, t in model.bundle.items()}

        def loss_value() -> float:
            return loss().item()

        numeric = oracles.finite_difference_gradients(loss_value, model.bundle)
        bad = oracles.gradient_mismatches(analytic, numeric)
        assert not bad, f"{kind}/{features} doc {doc.id}: {bad[:3]}"


def test_criterion_2_gradient_soundness():
    with criterion(2, "gradient soundness vs finite differences", 120.0):
        docs, wv = _grad_corpus()
        for kind, features in (("rst", "t,ns,r,e"), ("rst", "t"),
                               ("parseq", "t"), ("ensemble", "t,ns,r")):
            _check_model_gradients(kind, features, docs, wv)


# --- criterion 3: scalar-oracle equivalence ------------------------------------

TOL = 1e-10


def test_criterion_3_scalar_oracle_equivalence():
    with criterion(3, "1-d scalar-oracle equivalence", 30.0):
        rng = np.random.default_rng(31)

        # lstm_cell_step
        bundle = nc.ParameterBundle()
        cell = nc.init_lstm_cell(bundle, "c", rng, 1, 1)
        for _, t in bundle.items():
            t.data[:] = rng.uniform(-1, 1, size=t.data.shape)
        w_seq = oracles.scalar_gates(cell)
        x, h, c = rng.uniform(-2, 2, size=3)
        got_h, got_c = oracles.lstm_cell_step(nc.constant([x]), nc.constant([h]),
                                              nc.constant([c]), cell)
        want_h, want_c = oracles.scalar_lstm_step(x, h, c, w_seq)
        assert abs(got_h.data[0] - want_h) < TOL
        assert abs(got_c.data[0] - want_c) < TOL

        # encode_edu over three tokens
        values = {"ax": 0.6, "bx": -0.9, "cx": 0.2}
        wv1 = WordVectors(1, {k: np.array([v]) for k, v in values.items()})
        e, ce = oracles.encode_edu(["ax", "bx", "cx"], wv1, cell)
        want_e, want_ce = oracles.scalar_lstm_run([0.6, -0.9, 0.2], w_seq)
        assert abs(e.data[0] - want_e) < TOL
        assert abs(ce.data[0] - want_ce) < TOL

        # run_tree on a 3-EDU tree (EDU embeddings on), the left child of a
        # document root
        tree = three_edu_tree(("ax bx.", "cx.", "bx ax."))
        vocab = build_relation_vocab([tree])
        model = _build("rst", "t,ns,r,e", vocab, 1, 1, 1, rng)
        for _, t in model.bundle.items():
            t.data[:] = rng.uniform(-1, 1, size=t.data.shape)
        params = model.tree
        tc = params.cell
        w_tree = oracles.scalar_gates(tc)
        ec = params.edu
        w_edu = oracles.scalar_gates(ec)

        def leaf_state(text):
            toks = corpus.tokenize(text)
            return oracles.scalar_lstm_run([values[t] for t in toks], w_edu)

        label_row = oracles.reference_label_row(model.cfg.features, vocab)

        def rel(label):
            return float(params.table.data[label_row(label)][0])

        h1, c1 = leaf_state("ax bx.")
        h2, c2 = leaf_state("cx.")
        h3, c3 = leaf_state("bx ax.")
        hi, ci = oracles.scalar_tree_node(
            h1, c1, h2, c2, rel(tree.left.left_label), rel(tree.left.right_label),
            w_tree)
        want_h, want_c = oracles.scalar_tree_node(
            hi, ci, h3, c3, rel(tree.left_label), rel(tree.right_label), w_tree)
        root = Internal(tree, Leaf("cx."), tree.left_label, tree.right_label)
        got_h, got_c = tree_model.encode_trees(
            [corpus.Document("d", 1, "", [[["ax"]]], root)], params, wv1)
        assert abs(got_h.data[0, 0] - want_h) < TOL
        assert abs(got_c.data[0, 0] - want_c) < TOL

        # encode_parseq on a two-paragraph document
        model = _build("parseq", "t", None, 1, 1, 1, rng)
        for _, t in model.bundle.items():
            t.data[:] = rng.uniform(-1, 1, size=t.data.shape)
        pp = model.seq

        paragraphs = [[["ax", "bx"], ["cx"]], [["bx"]]]
        doc = corpus.Document("d", 1, "", paragraphs, tree)
        got = parseq.encode_parseq([doc], wv1, pp)
        want = oracles.scalar_parseq(paragraphs, values,
                                     *[oracles.scalar_gates(c)
                                       for c in (pp.lstm1, pp.lstm2, pp.lstm3)])
        assert abs(got.data[0, 0] - want) < TOL


# --- criterion 4: ablation invariants ------------------------------------------


def _random_tree(rng, texts_from, depth=0):
    if depth >= 4 or (depth > 0 and rng.random() < 0.4):
        return Leaf(texts_from(rng))
    labels = ("Cause", "Contrast", "Elaboration", "Evidence", "Joint")
    def lab():
        return NodeLabel(labels[int(rng.integers(0, len(labels)))],
                         "N" if rng.random() < 0.5 else "S")
    return Internal(_random_tree(rng, texts_from, depth + 1),
                    _random_tree(rng, texts_from, depth + 1), lab(), lab())


def _retext(tree, texts_from, rng):
    if isinstance(tree, Leaf):
        return Leaf(texts_from(rng))
    return Internal(_retext(tree.left, texts_from, rng),
                    _retext(tree.right, texts_from, rng),
                    tree.left_label, tree.right_label)


def _relabel_and_retext(tree, texts_from, rng):
    labels = ("Summary", "Temporal", "Background")
    def lab():
        return NodeLabel(labels[int(rng.integers(0, len(labels)))],
                         "N" if rng.random() < 0.5 else "S")
    if isinstance(tree, Leaf):
        return Leaf(texts_from(rng))
    return Internal(_relabel_and_retext(tree.left, texts_from, rng),
                    _relabel_and_retext(tree.right, texts_from, rng),
                    lab(), lab())


def _texts(rng):
    pool = ("alpha", "beta", "gamma", "delta", "zeta")
    n = int(rng.integers(1, 4))
    return " ".join(pool[int(rng.integers(0, len(pool)))] for _ in range(n)) + "."


def test_criterion_4_ablation_invariants():
    with criterion(4, "E-off text-invariance and T-only shape-invariance", 120.0):
        rng = np.random.default_rng(44)
        vocab = build_relation_vocab([three_edu_tree()])
        model = _build("rst", "t,ns,r", vocab, 6, 4, 4, rng)
        model_t = _build("rst", "t", None, 6, 4, 4, rng)

        def ensure_internal(make):
            while True:
                t = make()
                if isinstance(t, Internal):
                    return t

        for _ in range(100):
            base = ensure_internal(lambda: _random_tree(rng, _texts))
            # identical shape and labels, different EDU texts: E off ignores text
            retexted = _retext(base, _texts, rng)
            da = model.classify([_as_document(base)], None)
            db = model.classify([_as_document(retexted)], None)
            assert np.array_equal(da.data, db.data)

        for _ in range(100):
            base = ensure_internal(lambda: _random_tree(rng, _texts))
            # same shape, new labels and texts: T-only sees only the shape
            twin = _relabel_and_retext(base, _texts, rng)
            da = model_t.classify([_as_document(base)], None)
            db = model_t.classify([_as_document(twin)], None)
            assert np.array_equal(da.data, db.data)


# --- criterion 5: overfit check -------------------------------------------------


def test_criterion_5_overfit_32_documents():
    with criterion(5, "100% train accuracy on 32 docs within 200 epochs", 300.0):
        gen = GeneratorConfig(n_train=32, n_test=4, signal_strength=0.8,
                              token_signal=0.5, edu_range=(4, 8), wv_dim=8)
        split = synthesize_corpus(gen, seed=5)
        wv = synthesize_word_vectors(gen, seed=5)
        cfg = trainer.TrainConfig(learning_rate=1e-4, epochs=1, hidden_size=24,
                                  relation_dim=12, seed=0, model="rst",
                                  features="t,ns,r,e")
        rng = np.random.default_rng(cfg.seed)
        vocab = build_relation_vocab(d.tree for d in split.train)
        model = trainer.build_model(cfg, vocab, wv.dimension, rng)
        state = nc.AdamState(model.bundle)
        step = 0
        reached_at = None
        for epoch in range(200):
            _, step = trainer.run_epoch(model, split.train, wv, state,
                                        cfg.learning_rate, rng, True, step)
            dist = model.classify(split.train, wv)
            correct = sum(int(np.argmax(p)) + 1 == d.label
                          for p, d in zip(dist.data, split.train))
            if correct == len(split.train):
                reached_at = epoch + 1
                break
        assert reached_at is not None, "did not reach 100% train accuracy"
        print(f"  overfit reached 100% train accuracy at epoch {reached_at}")


# --- criterion 6: ablation separation -------------------------------------------


def test_criterion_6_ablation_separation():
    with criterion(6, "feature rows separate on planted-signal corpus", 1200.0):
        gen = GeneratorConfig(n_train=300, n_test=150, signal_strength=0.9,
                              token_signal=0.5, class_probs=(0.25, 0.25, 0.5),
                              wv_dim=8)
        split = synthesize_corpus(gen, seed=11)
        wv = synthesize_word_vectors(gen, seed=11)
        majority = metrics.majority_baseline(
            "fixed:3", [d.label for d in split.train],
            [d.label for d in split.test]).accuracy

        def run(features: str) -> tuple[float, float]:
            cfg = trainer.TrainConfig(
                learning_rate=3e-3, epochs=4, hidden_size=16, relation_dim=8,
                seed=100, model="rst",
                features=features)
            result = trainer.run_multi_seed(cfg, split, wv, n_runs=10)
            assert result.n_diverged == 0
            return result.aggregate["accuracy"]

        full_mean, _ = run("t,ns,r,e")
        tnsr_mean, _ = run("t,ns,r")
        t_mean, t_hw = run("t")
        chance = 1.0 / 3.0
        print(f"  full={full_mean:.4f} t+ns+r={tnsr_mean:.4f} "
              f"t-only={t_mean:.4f}±{t_hw:.4f} majority={majority:.4f}")
        assert full_mean >= tnsr_mean, (full_mean, tnsr_mean)
        assert tnsr_mean >= chance + 0.35, tnsr_mean
        # 1e-12 absorbs float roundoff in the mean; the accuracy quantum on
        # 150 test documents is 1/150, five orders of magnitude larger
        assert abs(t_mean - majority) <= t_hw + 1e-12, (t_mean, majority, t_hw)


# --- criterion 7: determinism and harness ----------------------------------------


def test_criterion_7_determinism_and_harness(tiny_split, tiny_wv):
    with criterion(7, "determinism, harness reproduces a standalone run, CI formula",
                   120.0):
        cfg = trainer.TrainConfig(learning_rate=1e-3, epochs=2, hidden_size=6,
                                  relation_dim=4, seed=3, model="rst",
                                  features="t,ns,r")
        model_a, rec_a = trainer.train(cfg, tiny_split, tiny_wv)
        model_b, rec_b = trainer.train(cfg, tiny_split, tiny_wv)
        assert rec_a.to_dict() == rec_b.to_dict()
        for name, _ in model_a.bundle.items():
            assert np.array_equal(model_a.bundle[name].data,
                                  model_b.bundle[name].data)

        # the harness (which accepts and ignores workers) runs seed 3 as
        # the standalone run did
        harness = trainer.run_multi_seed(cfg, tiny_split, tiny_wv, n_runs=2,
                                         workers=4)
        assert [r.seed for r in harness.records] == [3, 4]
        assert harness.records[0].to_dict() == rec_a.to_dict()

        mean, hw = metrics.confidence_interval([0.0, 1.0])
        assert mean == 0.5
        assert hw == pytest.approx(0.980, abs=1e-3)


# --- criterion 8: round-trip and validation fixtures ------------------------------


def test_criterion_8_round_trip_and_grammar_fixtures():
    with criterion(8, "1000-tree round trip and grammar fixtures", 60.0):
        rng = np.random.default_rng(88)

        def odd_texts(rng):
            # exercise escaping: quotes, backslashes, unicode, spaces
            pieces = ('plain', 'with "quotes"', "back\\slash", "café au lait",
                      "mixed \\\" both", "tab\tchar")
            return pieces[int(rng.integers(0, len(pieces)))]

        for k in range(1000):
            tree = _random_tree(rng, odd_texts)
            assert parse_tree(serialize_tree(tree)) == tree, f"tree {k}"

        with pytest.raises(ParseError) as exc:
            parse_tree('(rel Foo/X Bar/S (edu "a") (edu "b"))')
        assert "bad nuclearity" in str(exc.value)
        assert exc.value.offset == 9  # the X token

        with pytest.raises(ParseError) as exc:
            parse_tree('(node "x")')
        assert "unknown node keyword" in str(exc.value)

        with pytest.raises(ParseError) as exc:
            parse_tree('(rel A/N B/S (edu "a") (edu "b")')
        assert "unbalanced" in str(exc.value)

        with pytest.raises(ParseError) as exc:
            parse_tree('(edu "")')
        assert "empty EDU" in str(exc.value)

        with pytest.raises(ParseError):
            parse_tree('(edu "a") (edu "b")')

        assert [v.code for v in validate_tree(Leaf("solo"))] == ["DegenerateTree"]
        bad_rel = Internal(Leaf("a"), Leaf("b"), NodeLabel("", "N"),
                           make_label("Joint", "S"))
        assert [v.code for v in validate_tree(bad_rel)] == ["EmptyRelation"]
        assert validate_tree(parse_tree(
            '(rel A/N B/S (edu "x") (edu "y"))')) == []
