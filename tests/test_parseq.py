from __future__ import annotations

import numpy as np
import pytest

from rstcoh import numcore as nc
from rstcoh.corpus import Document, WordVectors
from rstcoh.errors import ConfigError, EmptyDocumentError
from rstcoh.parseq import (EnsembleParams, classify_ensemble, classify_parseq,
                           encode_parseq, init_ensemble, init_parseq)
from rstcoh.rst_data import build_relation_vocab
from rstcoh.tree_model import AblationConfig

import oracles
from conftest import three_edu_tree, two_edu_tree

TONLY = AblationConfig()
TNSR = AblationConfig(ns=True, r=True)


def make_doc(paragraphs, tree=None, label=1, doc_id="d0"):
    return Document(doc_id, label, "", paragraphs, tree or two_edu_tree())


def build_parseq(wv_dim=2, hidden=3, seed=0, zero=False):
    bundle = nc.ParameterBundle()
    rng = np.random.default_rng(seed)
    p = init_parseq(bundle, rng, wv_dim, hidden)
    for t in bundle.tensors():
        t.data[:] = 0.0 if zero else rng.uniform(-0.7, 0.7, size=t.data.shape)
    return p, bundle


def build_ensemble(abl=TONLY, vocab=None, wv_dim=2, hidden=3, rel_dim=2, seed=0,
                   zero=False):
    bundle = nc.ParameterBundle()
    rng = np.random.default_rng(seed)
    p = init_ensemble(bundle, rng, abl, vocab, hidden, rel_dim, wv_dim)
    for t in bundle.tensors():
        t.data[:] = 0.0 if zero else rng.uniform(-0.7, 0.7, size=t.data.shape)
    return p, bundle


def toy_wv(dim=2, seed=1):
    rng = np.random.default_rng(seed)
    pool = ("alpha", "beta", "gamma", "delta")
    return WordVectors(dim, {t: rng.uniform(-1, 1, size=dim) for t in pool})


class TestEncodeParseq:
    def test_zero_params_zero_document_vector(self):
        p, _ = build_parseq(zero=True)
        doc = make_doc([[["alpha", "beta"], ["gamma"]], [["delta"]]])
        d = encode_parseq(doc, toy_wv(), p)
        assert np.array_equal(d.data, np.zeros(3))

    def test_one_paragraph_one_sentence_unrolls_structurally(self):
        p, _ = build_parseq(seed=4)
        wv = toy_wv()
        doc = make_doc([[["alpha", "beta"]]])
        d = encode_parseq(doc, wv, p)
        s, _ = nc.run_lstm([nc.constant(wv.lookup("alpha")),
                            nc.constant(wv.lookup("beta"))], p.lstm1)
        para, _ = nc.run_lstm([s], p.lstm2)
        want, _ = nc.run_lstm([para], p.lstm3)
        assert np.array_equal(d.data, want.data)

    def test_two_paragraph_doc_matches_scalar_oracle(self):
        p, _ = build_parseq(wv_dim=1, hidden=1, seed=9)
        values = {"alpha": 0.3, "beta": -0.8, "gamma": 1.2, "delta": 0.1}
        wv = WordVectors(1, {k: np.array([v]) for k, v in values.items()})
        paragraphs = [[["alpha", "beta"], ["gamma"]], [["delta", "alpha"]]]
        doc = make_doc(paragraphs)

        def weights(cell):
            return {g: (float(cell.w[g].data[0, 0]),
                        float(cell.w[g].data[0, 1]),
                        float(cell.b[g].data[0]))
                    for g in ("i", "f", "o", "u")}

        want = oracles.scalar_parseq(paragraphs, values, weights(p.lstm1),
                                     weights(p.lstm2), weights(p.lstm3))
        got = encode_parseq(doc, wv, p)
        assert abs(got.data[0] - want) < 1e-12

    def test_empty_paragraphs_rejected(self):
        p, _ = build_parseq()
        with pytest.raises(EmptyDocumentError):
            encode_parseq(make_doc([]), toy_wv(), p)

    def test_paragraph_permutation_changes_vector(self):
        hits = 0
        wv = toy_wv()
        paragraphs = [[["alpha", "beta"]], [["gamma"]], [["delta", "alpha"]]]
        permuted = [paragraphs[2], paragraphs[0], paragraphs[1]]
        for seed in range(50):
            p, _ = build_parseq(seed=seed)
            a = encode_parseq(make_doc(paragraphs), wv, p)
            b = encode_parseq(make_doc(permuted), wv, p)
            hits += int(not np.allclose(a.data, b.data, atol=1e-12))
        assert hits >= 49


class TestClassifyParseq:
    def test_zero_params_uniform(self):
        p, _ = build_parseq(zero=True)
        dist = classify_parseq(make_doc([[["alpha"]]]), toy_wv(), p)
        assert dist.data == pytest.approx([1 / 3] * 3, abs=1e-15)

    def test_distribution_sums_to_one(self):
        for seed in range(5):
            p, _ = build_parseq(seed=seed)
            dist = classify_parseq(make_doc([[["alpha", "gamma"]]]), toy_wv(), p)
            assert abs(dist.data.sum() - 1.0) <= 1e-12

    def test_gradients_match_finite_differences(self):
        p, bundle = build_parseq(seed=13)
        wv = toy_wv()
        doc = make_doc([[["alpha", "beta"], ["gamma", "delta"]]], label=2)

        def loss() -> nc.Tensor:
            dist = classify_parseq(doc, wv, p)
            return nc.neg(nc.log(nc.clamp_min(nc.pick(dist, doc.label - 1), 1e-12)))

        nc.backward(loss(), bundle)
        analytic = {name: t.grad for name, t in bundle.items()}
        numeric = oracles.finite_difference_gradients(
            lambda: float(loss().data), bundle)
        assert not oracles.gradient_mismatches(analytic, numeric)


class TestEnsemble:
    def test_zero_params_uniform(self):
        p, _ = build_ensemble(zero=True)
        doc = make_doc([[["alpha"]]], tree=three_edu_tree())
        dist = classify_ensemble(doc, toy_wv(), p, TONLY)
        assert dist.data == pytest.approx([1 / 3] * 3, abs=1e-15)

    def test_edu_features_rejected(self):
        with pytest.raises(ConfigError):
            build_ensemble(abl=AblationConfig(ns=True, r=True, e=True),
                           vocab=build_relation_vocab([two_edu_tree()]))
        p, _ = build_ensemble()
        doc = make_doc([[["alpha"]]])
        with pytest.raises(ConfigError):
            classify_ensemble(doc, toy_wv(), p,
                              AblationConfig(ns=True, r=True, e=True))

    def test_t_only_ignores_tree_labels(self):
        p, _ = build_ensemble(seed=3)
        wv = toy_wv()
        paragraphs = [[["alpha", "beta"]]]
        a = make_doc(paragraphs, tree=three_edu_tree())
        relabeled = three_edu_tree()
        relabeled = type(relabeled)(relabeled.left, relabeled.right,
                                    relabeled.right_label, relabeled.left_label)
        b = make_doc(paragraphs, tree=relabeled)
        da = classify_ensemble(a, wv, p, TONLY)
        db = classify_ensemble(b, wv, p, TONLY)
        assert np.array_equal(da.data, db.data)

    def test_zeroed_tree_side_degenerates_to_affine_of_parseq(self):
        p, bundle = build_ensemble(seed=5)
        for name, t in bundle.items():
            if name.startswith("tree."):
                t.data[:] = 0.0
        wv = toy_wv()
        doc = make_doc([[["alpha", "gamma"], ["beta"]]], tree=three_edu_tree())
        dist = classify_ensemble(doc, wv, p, TONLY)
        d_seq = encode_parseq(doc, wv, p.seq)
        hidden = d_seq.data.shape[0]
        w = p.joint.w.data[:, 2 * hidden:]
        logits = w @ d_seq.data + p.joint.b.data
        e = np.exp(logits - logits.max())
        assert dist.data == pytest.approx(e / e.sum(), abs=1e-12)

    def test_toy_ensemble_matches_scalar_oracle(self):
        vocab = build_relation_vocab([three_edu_tree()])
        p, _ = build_ensemble(abl=TNSR, vocab=vocab, wv_dim=1, hidden=1,
                              rel_dim=1, seed=11)
        values = {"alpha": 0.7, "beta": -0.4}
        wv = WordVectors(1, {k: np.array([v]) for k, v in values.items()})
        paragraphs = [[["alpha", "beta"]], [["beta"]]]
        tree = three_edu_tree()
        doc = make_doc(paragraphs, tree=tree)

        def seq_weights(cell):
            return {g: (float(cell.w[g].data[0, 0]),
                        float(cell.w[g].data[0, 1]),
                        float(cell.b[g].data[0]))
                    for g in ("i", "f", "o", "u")}

        tc = p.tree.cell
        w_tree = {g: tuple(tc.w[g].data[0].tolist())
                  + (float(tc.b[g].data[0]),)
                  for g in ("i", "fl", "fr", "o", "u")}

        def rel(label):
            return float(p.tree.relation_table.data[vocab.index_of_label(label)][0])

        # tree side with zero leaves
        inner = tree.left
        hi, ci = oracles.scalar_tree_node(0.0, 0.0, 0.0, 0.0,
                                          rel(inner.left_label),
                                          rel(inner.right_label), w_tree)
        h_l, _ = hi, ci
        h_r, c_r = 0.0, 0.0  # right child of root is a leaf
        d_seq = oracles.scalar_parseq(paragraphs, values,
                                      seq_weights(p.seq.lstm1),
                                      seq_weights(p.seq.lstm2),
                                      seq_weights(p.seq.lstm3))
        d = np.array([h_l, h_r, d_seq])
        logits = p.joint.w.data @ d + p.joint.b.data
        e = np.exp(logits - logits.max())
        want = e / e.sum()
        got = classify_ensemble(doc, wv, p, TNSR, vocab)
        assert got.data == pytest.approx(want, abs=1e-10)

    def test_gradients_match_finite_differences(self):
        vocab = build_relation_vocab([three_edu_tree()])
        p, bundle = build_ensemble(abl=TNSR, vocab=vocab, seed=17)
        wv = toy_wv()
        doc = make_doc([[["alpha", "beta"]], [["gamma"]]], tree=three_edu_tree(),
                       label=3)

        def loss() -> nc.Tensor:
            dist = classify_ensemble(doc, wv, p, TNSR, vocab)
            return nc.neg(nc.log(nc.clamp_min(nc.pick(dist, doc.label - 1), 1e-12)))

        nc.backward(loss(), bundle)
        analytic = {name: t.grad for name, t in bundle.items()}
        numeric = oracles.finite_difference_gradients(
            lambda: float(loss().data), bundle)
        assert not oracles.gradient_mismatches(analytic, numeric)
