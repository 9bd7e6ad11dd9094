from __future__ import annotations

import numpy as np
import pytest

from rstcoh import numcore as nc
from rstcoh.corpus import Document, WordVectors
from rstcoh.errors import ConfigError
from rstcoh.parseq import encode_parseq
from rstcoh.rst_data import build_relation_vocab, parse_tree
from rstcoh.trainer import TrainConfig, build_model, cross_entropy

import oracles
from conftest import text_of, three_edu_tree, two_edu_tree

TONLY = "t"
TNSR = "t,ns,r"


def make_doc(paragraphs, tree=None, label=1, doc_id="d0"):
    return Document(doc_id, label, "", paragraphs, tree or two_edu_tree())


def build(kind, features=TONLY, vocab=None, wv_dim=2, hidden=3, rel_dim=2, seed=0,
          zero=False):
    rng = np.random.default_rng(seed)
    cfg = TrainConfig(model=kind, features=features, hidden_size=hidden,
                      relation_dim=rel_dim)
    model = build_model(cfg, vocab, wv_dim, rng)
    for _, t in model.bundle.items():
        t.data[:] = 0.0 if zero else rng.uniform(-0.7, 0.7, size=t.data.shape)
    return model


def build_parseq(wv_dim=2, hidden=3, seed=0, zero=False):
    """A parseq model and its encoder's parameters."""
    model = build("parseq", wv_dim=wv_dim, hidden=hidden, seed=seed, zero=zero)
    return model, model.seq


def build_ensemble(features=TONLY, vocab=None, wv_dim=2, hidden=3, rel_dim=2, seed=0,
                   zero=False):
    return build("ensemble", features, vocab, wv_dim, hidden, rel_dim, seed, zero)


def toy_wv(dim=2, seed=1):
    rng = np.random.default_rng(seed)
    pool = ("alpha", "beta", "gamma", "delta")
    return WordVectors(dim, {t: rng.uniform(-1, 1, size=dim) for t in pool})


class TestEncodeParseq:
    def test_zero_params_zero_document_vector(self):
        _, p = build_parseq(zero=True)
        doc = make_doc([[["alpha", "beta"], ["gamma"]], [["delta"]]])
        d = encode_parseq([doc], toy_wv(), p)
        assert np.array_equal(d.data, np.zeros((1, 3)))

    def test_one_paragraph_one_sentence_unrolls_structurally(self):
        _, p = build_parseq(seed=4)
        wv = toy_wv()
        doc = make_doc([[["alpha", "beta"]]])
        d = encode_parseq([doc], wv, p)
        s, _ = oracles.run_lstm([nc.constant(row) for row in wv.stack(["alpha", "beta"])],
                                p.lstm1)
        para, _ = oracles.run_lstm([s], p.lstm2)
        want, _ = oracles.run_lstm([para], p.lstm3)
        assert np.array_equal(d.data[0], want.data)

    def test_two_paragraph_doc_matches_scalar_oracle(self):
        _, p = build_parseq(wv_dim=1, hidden=1, seed=9)
        values = {"alpha": 0.3, "beta": -0.8, "gamma": 1.2, "delta": 0.1}
        wv = WordVectors(1, {k: np.array([v]) for k, v in values.items()})
        paragraphs = [[["alpha", "beta"], ["gamma"]], [["delta", "alpha"]]]
        doc = make_doc(paragraphs)

        want = oracles.scalar_parseq(paragraphs, values,
                                     *[oracles.scalar_gates(c)
                                       for c in (p.lstm1, p.lstm2, p.lstm3)])
        got = encode_parseq([doc], wv, p)
        assert abs(got.data[0, 0] - want) < 1e-12

    def test_paragraph_permutation_changes_vector(self):
        hits = 0
        wv = toy_wv()
        paragraphs = [[["alpha", "beta"]], [["gamma"]], [["delta", "alpha"]]]
        permuted = [paragraphs[2], paragraphs[0], paragraphs[1]]
        for seed in range(50):
            _, p = build_parseq(seed=seed)
            a = encode_parseq([make_doc(paragraphs)], wv, p)
            b = encode_parseq([make_doc(permuted)], wv, p)
            hits += int(not np.allclose(a.data, b.data, atol=1e-12))
        assert hits >= 49


class TestClassifyParseq:
    def test_zero_params_uniform(self):
        model, _ = build_parseq(zero=True)
        dist = model.classify([make_doc([[["alpha"]]])], toy_wv())
        assert dist.data[0] == pytest.approx([1 / 3] * 3, abs=1e-15)

    def test_distribution_sums_to_one(self):
        for seed in range(5):
            model, _ = build_parseq(seed=seed)
            dist = model.classify([make_doc([[["alpha", "gamma"]]])], toy_wv())
            assert abs(dist.data.sum() - 1.0) <= 1e-12

    def test_gradients_match_finite_differences(self):
        model, _ = build_parseq(seed=13)
        bundle = model.bundle
        wv = toy_wv()
        doc = make_doc([[["alpha", "beta"], ["gamma", "delta"]]], label=2)

        def loss() -> nc.Tensor:
            return cross_entropy(model.classify([doc], wv), [doc.label])

        with nc.record():
            nc.backward(loss(), bundle)
        analytic = {name: t.grad for name, t in bundle.items()}
        numeric = oracles.finite_difference_gradients(
            lambda: float(loss().data), bundle)
        assert not oracles.gradient_mismatches(analytic, numeric)


class TestEnsemble:
    def test_zero_params_uniform(self):
        model = build_ensemble(zero=True)
        doc = make_doc([[["alpha"]]], tree=three_edu_tree())
        dist = model.classify([doc], toy_wv())
        assert dist.data[0] == pytest.approx([1 / 3] * 3, abs=1e-15)

    def test_edu_features_rejected(self):
        with pytest.raises(ConfigError):
            build_ensemble(features="t,ns,r,e",
                           vocab=build_relation_vocab([parse_tree(two_edu_tree())]))
        model = build_ensemble(features=TNSR,
                               vocab=build_relation_vocab([parse_tree(two_edu_tree())]))
        assert model.tree.edu is None
        assert not any(name.startswith("edu.") for name, _ in model.bundle.items())

    def test_t_only_ignores_tree_labels(self):
        model = build_ensemble(seed=3)
        wv = toy_wv()
        paragraphs = [[["alpha", "beta"]]]
        a = make_doc(paragraphs, tree=three_edu_tree())
        relabeled = oracles.reference_parse_tree(three_edu_tree())
        relabeled = type(relabeled)(relabeled.left, relabeled.right,
                                    relabeled.right_label, relabeled.left_label)
        b = make_doc(paragraphs, tree=text_of(relabeled))
        da = model.classify([a], wv)
        db = model.classify([b], wv)
        assert np.array_equal(da.data, db.data)

    def test_zeroed_tree_side_degenerates_to_affine_of_parseq(self):
        model = build_ensemble(seed=5)
        for name, t in model.bundle.items():
            if name.startswith("tree."):
                t.data[:] = 0.0
        wv = toy_wv()
        doc = make_doc([[["alpha", "gamma"], ["beta"]]], tree=three_edu_tree())
        dist = model.classify([doc], wv)
        d_seq = encode_parseq([doc], wv, model.seq).data[0]
        hidden = d_seq.shape[0]
        w = model.bundle["joint.w"].data[:, 2 * hidden:]
        logits = w @ d_seq + model.bundle["joint.b"].data
        e = np.exp(logits - logits.max())
        assert dist.data[0] == pytest.approx(e / e.sum(), abs=1e-12)

    def test_toy_ensemble_matches_scalar_oracle(self):
        vocab = build_relation_vocab([parse_tree(three_edu_tree())])
        model = build_ensemble(features=TNSR, vocab=vocab, wv_dim=1, hidden=1,
                               rel_dim=1, seed=11)
        values = {"alpha": 0.7, "beta": -0.4}
        wv = WordVectors(1, {k: np.array([v]) for k, v in values.items()})
        paragraphs = [[["alpha", "beta"]], [["beta"]]]
        tree = oracles.reference_parse_tree(three_edu_tree())
        doc = make_doc(paragraphs, tree=text_of(tree))

        tc = model.tree.cell
        w_tree = oracles.scalar_gates(tc)

        label_row = oracles.reference_label_row(TNSR, vocab)

        def rel(label):
            return float(model.tree.table.data[label_row(label)][0])

        # tree side with zero leaves
        inner = tree.left
        hi, ci = oracles.scalar_tree_node(0.0, 0.0, 0.0, 0.0,
                                          rel(inner.left_label),
                                          rel(inner.right_label), w_tree)
        h_l, _ = hi, ci
        h_r, c_r = 0.0, 0.0  # right child of root is a leaf
        d_seq = oracles.scalar_parseq(paragraphs, values,
                                      oracles.scalar_gates(model.seq.lstm1),
                                      oracles.scalar_gates(model.seq.lstm2),
                                      oracles.scalar_gates(model.seq.lstm3))
        d = np.array([h_l, h_r, d_seq])
        logits = model.bundle["joint.w"].data @ d + model.bundle["joint.b"].data
        e = np.exp(logits - logits.max())
        want = e / e.sum()
        got = model.classify([doc], wv)
        assert got.data[0] == pytest.approx(want, abs=1e-10)

    def test_gradients_match_finite_differences(self):
        vocab = build_relation_vocab([parse_tree(three_edu_tree())])
        model = build_ensemble(features=TNSR, vocab=vocab, seed=17)
        bundle = model.bundle
        wv = toy_wv()
        doc = make_doc([[["alpha", "beta"]], [["gamma"]]], tree=three_edu_tree(),
                       label=3)

        def loss() -> nc.Tensor:
            return cross_entropy(model.classify([doc], wv), [doc.label])

        with nc.record():
            nc.backward(loss(), bundle)
        analytic = {name: t.grad for name, t in bundle.items()}
        numeric = oracles.finite_difference_gradients(
            lambda: float(loss().data), bundle)
        assert not oracles.gradient_mismatches(analytic, numeric)
