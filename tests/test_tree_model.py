from __future__ import annotations

import math

import numpy as np
import pytest

from rstcoh import numcore as nc, tree_model
from rstcoh.corpus import GeneratorConfig, WordVectors, synthesize_corpus
from rstcoh.errors import ConfigError, DegenerateTreeError
from rstcoh.rst_data import (Internal, Leaf, NodeLabel, Nuclearity,
                             build_relation_vocab, count_leaves, count_nodes)
from rstcoh.tree_model import (AblationConfig, classify_document, count_parameters,
                               encode_subtree, init_tree_model, label_embedding)

import oracles
from conftest import make_label, three_edu_tree, two_edu_tree

FULL = AblationConfig(ns=True, r=True, e=True)
TNSR = AblationConfig(ns=True, r=True)
TNS = AblationConfig(ns=True)
TONLY = AblationConfig()


def build(abl, vocab=None, hidden=4, rel_dim=3, wv_dim=2, seed=0, randomize=True):
    bundle = nc.ParameterBundle()
    rng = np.random.default_rng(seed)
    params = init_tree_model(bundle, rng, abl, vocab, hidden, rel_dim, wv_dim)
    if randomize:
        for t in bundle.tensors():
            t.data[:] = rng.uniform(-0.7, 0.7, size=t.data.shape)
    return params, bundle


def toy_wv(dim=2, seed=1):
    rng = np.random.default_rng(seed)
    pool = ("alpha", "beta", "gamma", "delta", "epsilon", "zeta")
    return WordVectors(dim, {t: rng.uniform(-1, 1, size=dim) for t in pool})


class TestAblationConfig:
    def test_legal_rows_parse(self):
        for spec in ("t", "t,ns", "t,ns,r", "t,ns,r,e"):
            abl = AblationConfig.from_features(spec)
            assert abl.features() == spec

    def test_r_without_ns_rejected(self):
        with pytest.raises(ConfigError):
            AblationConfig(r=True).validate()
        with pytest.raises(ConfigError):
            AblationConfig.from_features("t,r")

    def test_e_without_r_rejected(self):
        with pytest.raises(ConfigError):
            AblationConfig.from_features("t,ns,e")

    def test_t_is_mandatory(self):
        with pytest.raises(ConfigError):
            AblationConfig.from_features("ns,r")


class TestLabelEmbedding:
    def test_t_only_gives_zero_vector(self):
        params, _ = build(TONLY)
        r = label_embedding(make_label("Evidence", "S"), params, TONLY, None)
        assert np.array_equal(r.data, np.zeros(3))

    def test_ns_only_keys_on_nuclearity(self):
        params, _ = build(TNS)
        a = label_embedding(make_label("Evidence", "S"), params, TNS, None)
        b = label_embedding(make_label("Contrast", "S"), params, TNS, None)
        c = label_embedding(make_label("Evidence", "N"), params, TNS, None)
        assert np.array_equal(a.data, b.data)
        assert not np.array_equal(a.data, c.data)

    def test_unseen_label_falls_back_to_unk_row(self):
        vocab = build_relation_vocab([two_edu_tree()])
        params, _ = build(TNSR, vocab)
        unseen = label_embedding(make_label("Never", "N"), params, TNSR, vocab)
        assert np.array_equal(unseen.data, params.relation_table.data[0])


class TestEncodeSubtree:
    def test_zero_params_e_off_all_states_zero(self):
        for abl in (TONLY, TNS):
            params, bundle = build(abl, randomize=False)
            for t in bundle.tensors():
                t.data[:] = 0.0
            h, c = encode_subtree(three_edu_tree(), params, None, abl)
            assert np.array_equal(h.data, np.zeros(4))
            assert np.array_equal(c.data, np.zeros(4))

    def test_e_off_is_text_invariant(self):
        vocab = build_relation_vocab([three_edu_tree()])
        params, _ = build(TNSR, vocab, seed=3)
        a = three_edu_tree(("one one.", "two two.", "three three."))
        b = three_edu_tree(("completely different.", "words here.", "indeed so."))
        ha, ca = encode_subtree(a, params, None, TNSR, vocab)
        hb, cb = encode_subtree(b, params, None, TNSR, vocab)
        assert np.array_equal(ha.data, hb.data)
        assert np.array_equal(ca.data, cb.data)

    def test_matches_scalar_oracle_on_three_edu_tree(self):
        vocab = build_relation_vocab([three_edu_tree()])
        params, _ = build(FULL, vocab, hidden=1, rel_dim=1, wv_dim=1, seed=5)
        wv = toy_wv(dim=1, seed=6)
        tree = three_edu_tree(("alpha beta.", "gamma.", "delta epsilon."))

        cell = params.edu
        w_seq = {g: (float(cell.w[g].data[0, 0]),
                     float(cell.w[g].data[0, 1]),
                     float(cell.b[g].data[0]))
                 for g in ("i", "f", "o", "u")}
        tc = params.cell
        w_tree = {g: tuple(tc.w[g].data[0].tolist())
                  + (float(tc.b[g].data[0]),)
                  for g in ("i", "fl", "fr", "o", "u")}

        def leaf(text):
            toks = [t for t in text.replace(".", "").split()]
            return oracles.scalar_lstm_run(
                [float(wv.lookup(t)[0]) for t in toks], w_seq)

        def rel(label):
            return float(params.relation_table.data[vocab.index_of_label(label)][0])

        h1, c1 = leaf("alpha beta.")
        h2, c2 = leaf("gamma.")
        h3, c3 = leaf("delta epsilon.")
        inner = tree.left
        hi, ci = oracles.scalar_tree_node(h1, c1, h2, c2,
                                          rel(inner.left_label),
                                          rel(inner.right_label), w_tree)
        want_h, want_c = oracles.scalar_tree_node(hi, ci, h3, c3,
                                                  rel(tree.left_label),
                                                  rel(tree.right_label), w_tree)
        got_h, got_c = encode_subtree(tree, params, wv, FULL, vocab)
        assert abs(got_h.data[0] - want_h) < 1e-12
        assert abs(got_c.data[0] - want_c) < 1e-12

    def test_every_node_visited_exactly_once(self, monkeypatch):
        vocab = build_relation_vocab([three_edu_tree()])
        params, _ = build(TNSR, vocab)
        leaves = []
        cells = []
        leaf_state = tree_model._leaf_state
        cell_step = nc.cell_step

        def count_leaf(leaf, *args):
            leaves.append(leaf)
            return leaf_state(leaf, *args)

        def count_cell(*args):
            cells.append(args)
            return cell_step(*args)

        monkeypatch.setattr(tree_model, "_leaf_state", count_leaf)
        monkeypatch.setattr(nc, "cell_step", count_cell)
        for tree in (two_edu_tree(), three_edu_tree()):
            leaves.clear()
            cells.clear()
            encode_subtree(tree, params, None, TNSR, vocab)
            assert len(leaves) == count_leaves(tree)
            assert len({id(n) for n in leaves}) == len(leaves)
            assert len(leaves) + len(cells) == count_nodes(tree)


class TestClassify:
    def test_zero_params_uniform(self):
        params, bundle = build(TONLY, randomize=False)
        for t in bundle.tensors():
            t.data[:] = 0.0
        dist = classify_document(two_edu_tree(), params, None, TONLY)
        assert dist.data == pytest.approx([1 / 3] * 3, abs=1e-15)

    def test_distribution_sums_to_one(self):
        vocab = build_relation_vocab([three_edu_tree()])
        for seed in range(5):
            params, _ = build(TNSR, vocab, seed=seed)
            dist = classify_document(three_edu_tree(), params, None, TNSR, vocab)
            assert abs(dist.data.sum() - 1.0) <= 1e-12
            assert (dist.data >= 0).all()

    def test_t_only_depends_on_shape_alone(self):
        params, _ = build(TONLY, seed=8)
        a = three_edu_tree(("red red.", "blue.", "green green."))
        b = Internal(
            Internal(Leaf("entirely other."), Leaf("unrelated words."),
                     make_label("Summary", "S"), make_label("Cause", "N")),
            Leaf("third thing."),
            make_label("Joint", "N"), make_label("Joint", "N"))
        da = classify_document(a, params, None, TONLY)
        db = classify_document(b, params, None, TONLY)
        assert np.array_equal(da.data, db.data)

    def test_single_leaf_rejected(self):
        params, _ = build(TONLY)
        with pytest.raises(DegenerateTreeError):
            classify_document(Leaf("only"), params, None, TONLY)

    def test_swapping_root_children_changes_distribution(self):
        hits = 0
        for seed in range(100):
            params, _ = build(TONLY, seed=seed)
            base = three_edu_tree()
            swapped = Internal(base.right, base.left, base.right_label,
                               base.left_label)
            da = classify_document(base, params, None, TONLY)
            db = classify_document(swapped, params, None, TONLY)
            hits += int(not np.allclose(da.data, db.data, atol=1e-12))
        assert hits >= 99


class TestGradients:
    def test_full_model_gradients_match_finite_differences(self):
        cfg = GeneratorConfig(n_train=3, n_test=0, edu_range=(3, 4),
                              tokens_per_edu=(2, 3), wv_dim=2)
        split = synthesize_corpus(cfg, seed=21)
        vocab = build_relation_vocab(d.tree for d in split.train)
        params, bundle = build(FULL, vocab, hidden=3, rel_dim=2, wv_dim=2, seed=2)
        wv = toy_wv(dim=2, seed=3)
        doc = split.train[0]

        def loss() -> nc.Tensor:
            dist = classify_document(doc.tree, params, wv, FULL, vocab)
            p = nc.pick(dist, doc.label - 1)
            return nc.neg(nc.log(nc.clamp_min(p, 1e-12)))

        nc.backward(loss(), bundle)
        analytic = {name: t.grad for name, t in bundle.items()}
        numeric = oracles.finite_difference_gradients(
            lambda: float(loss().data), bundle)
        assert not oracles.gradient_mismatches(analytic, numeric)


class TestCounts:
    def test_counts_from_shapes_at_reference_dims(self):
        cfg = GeneratorConfig(n_train=40, n_test=0)
        split = synthesize_corpus(cfg, seed=1)
        vocab = build_relation_vocab(d.tree for d in split.train)
        bundle = nc.ParameterBundle()
        init_tree_model(bundle, np.random.default_rng(0), FULL, vocab,
                        hidden_size=100, relation_dim=50, wv_dim=300)
        counts = count_parameters(bundle)
        # sequence cell: 4 gates over [x(300); h(100)] -> 100, plus biases
        assert counts["edu"] == 4 * ((300 + 100) * 100 + 100) == 160_400
        # tree cell: 5 gates over [h_l(100); h_r(100); r_l(50); r_r(50)]
        assert counts["tree"] == 5 * ((2 * 100 + 2 * 50) * 100 + 100) == 150_500
        assert counts["classifier"] == 200 * 3 + 3 == 603
        assert counts["relation_table"] == vocab.size * 50
        assert counts["total"] == sum(v for k, v in counts.items() if k != "total")

    def test_word_vectors_never_counted(self):
        params, bundle = build(FULL, build_relation_vocab([two_edu_tree()]),
                               hidden=4, rel_dim=3, wv_dim=7)
        assert all("wv" not in name for name in bundle.names())
