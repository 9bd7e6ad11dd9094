from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from rstcoh import numcore as nc
from rstcoh.corpus import (Document, GeneratorConfig, WordVectors, synthesize_corpus,
                           tokenize)
from rstcoh.errors import ConfigError, DataError
from rstcoh.rst_data import (Internal, Leaf, NodeLabel, RelationVocabulary,
                             build_relation_vocab, count_leaves)
from rstcoh.trainer import TrainConfig, build_model, cross_entropy
from rstcoh.tree_model import FEATURE_ROWS, encode_trees, tree_schedule

import oracles
from conftest import count_nodes, make_label, three_edu_tree, two_edu_tree

FULL = "t,ns,r,e"
TNSR = "t,ns,r"
TNS = "t,ns"
TONLY = "t"


def t_label_rows(labels):
    """The t row's label map: every label reads row 0."""
    return [0] * len(labels)


def build(features, vocab=None, hidden=4, rel_dim=3, wv_dim=2, seed=0, randomize=True):
    """An rst model; returns it and its tree encoder's parameters."""
    rng = np.random.default_rng(seed)
    cfg = TrainConfig(model="rst", features=features, hidden_size=hidden,
                      relation_dim=rel_dim)
    model = build_model(cfg, vocab, wv_dim, rng)
    if randomize:
        for _, t in model.bundle.items():
            t.data[:] = rng.uniform(-0.7, 0.7, size=t.data.shape)
    return model, model.tree


def documents(trees):
    """One document around each tree, for the calls that take documents."""
    return [Document(f"d{k}", 1, "", [[["x"]]], tree) for k, tree in enumerate(trees)]


def classify(model, tree, wv=None):
    """The distribution of a one-document batch, as a (3,) array."""
    return model.classify(documents([tree]), wv).data[0]


def encode_subtree(tree, params, wv):
    """(h, c) of ``tree``'s root, as run_tree computes it for the left child
    of a document root."""
    root = Internal(tree, Leaf("pad."), make_label("Joint", "N"),
                    make_label("Joint", "N"))
    h, c = encode_trees(documents([root]), params, wv)
    n = params.cell.hidden_size
    return h.data[0, :n], c.data[0, :n]


def label_vector(label, params):
    """What run_tree puts in a label's slot of the cell input."""
    if params.table is None:
        return np.zeros((params.cell.cols - 2 * params.cell.hidden_size) // 2)
    return params.table.data[params.label_rows([label])[0]]


def left_chain(n, label=("Elaboration", "N")):
    """n leaves, each internal node's left child the next internal node."""
    tree = Leaf("edu 0.")
    for k in range(1, n):
        tree = Internal(tree, Leaf(f"edu {k}."), make_label(*label),
                        make_label("Evidence", "S"))
    return tree


def right_chain(n, label=("Elaboration", "N")):
    """n leaves, each internal node's right child the next internal node."""
    tree = Leaf(f"edu {n - 1}.")
    for k in range(n - 2, -1, -1):
        tree = Internal(Leaf(f"edu {k}."), tree, make_label(*label),
                        make_label("Evidence", "S"))
    return tree


def toy_wv(dim=2, seed=1):
    rng = np.random.default_rng(seed)
    pool = ("alpha", "beta", "gamma", "delta", "epsilon", "zeta")
    return WordVectors(dim, {t: rng.uniform(-1, 1, size=dim) for t in pool})


class TestAblationConfig:
    """The feature row, which ``TrainConfig`` holds as one of FEATURE_ROWS."""

    def test_legal_rows_parse(self):
        assert FEATURE_ROWS == ("t", "t,ns", "t,ns,r", "t,ns,r,e")
        for row in FEATURE_ROWS:
            cfg = TrainConfig(features=row)
            assert cfg.features == row
            assert [f for f in ("ns", "r", "e") if cfg.uses(f)] == row.split(",")[1:]

    def test_r_without_ns_rejected(self):
        with pytest.raises(ConfigError):
            TrainConfig(features="t,r")
        with pytest.raises(ConfigError):
            replace(TrainConfig(features="t,ns"), features="t,r")

    def test_e_without_r_rejected(self):
        with pytest.raises(ConfigError):
            TrainConfig(features="t,ns,e")

    def test_t_is_mandatory(self):
        with pytest.raises(ConfigError):
            TrainConfig(features="ns,r")

    # TrainConfig takes a row as it is spelled in FEATURE_ROWS; only the CLI
    # lowercases and strips a spec
    @pytest.mark.parametrize("spec", ["t,r", "t,ns,e", "ns,r", "", "t,ns,r,e,e", 3,
                                      "T", "t, ns", None, ["t"]])
    def test_anything_but_a_row_rejected(self, spec):
        with pytest.raises(ConfigError):
            TrainConfig(features=spec)


class TestLabelEmbedding:
    def test_t_only_gives_zero_vector(self):
        _, params = build(TONLY)
        r = label_vector(make_label("Evidence", "S"), params)
        assert np.array_equal(r, np.zeros(3))

    def test_ns_only_keys_on_nuclearity(self):
        _, params = build(TNS)
        a = label_vector(make_label("Evidence", "S"), params)
        b = label_vector(make_label("Contrast", "S"), params)
        c = label_vector(make_label("Evidence", "N"), params)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_unseen_label_falls_back_to_unk_row(self):
        vocab = build_relation_vocab([two_edu_tree()])
        _, params = build(TNSR, vocab)
        unseen = label_vector(make_label("Never", "N"), params)
        assert np.array_equal(unseen, params.table.data[0])


class TestEncodeSubtree:
    def test_zero_params_e_off_all_states_zero(self):
        for features in (TONLY, TNS):
            model, params = build(features, randomize=False)
            for _, t in model.bundle.items():
                t.data[:] = 0.0
            h, c = encode_subtree(three_edu_tree(), params, None)
            assert np.array_equal(h, np.zeros(4))
            assert np.array_equal(c, np.zeros(4))

    def test_e_off_is_text_invariant(self):
        vocab = build_relation_vocab([three_edu_tree()])
        _, params = build(TNSR, vocab, seed=3)
        a = three_edu_tree(("one one.", "two two.", "three three."))
        b = three_edu_tree(("completely different.", "words here.", "indeed so."))
        ha, ca = encode_subtree(a, params, None)
        hb, cb = encode_subtree(b, params, None)
        assert np.array_equal(ha, hb)
        assert np.array_equal(ca, cb)

    def test_matches_scalar_oracle_on_three_edu_tree(self):
        vocab = build_relation_vocab([three_edu_tree()])
        _, params = build(FULL, vocab, hidden=1, rel_dim=1, wv_dim=1, seed=5)
        wv = toy_wv(dim=1, seed=6)
        tree = three_edu_tree(("alpha beta.", "gamma.", "delta epsilon."))

        cell = params.edu
        w_seq = oracles.scalar_gates(cell)
        tc = params.cell
        w_tree = oracles.scalar_gates(tc)

        def leaf(text):
            toks = [t for t in text.replace(".", "").split()]
            return oracles.scalar_lstm_run(
                [float(v) for v in wv.stack(toks)[:, 0]], w_seq)

        label_row = oracles.reference_label_row(FULL, vocab)

        def rel(label):
            return float(params.table.data[label_row(label)][0])

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
        got_h, got_c = encode_subtree(tree, params, wv)
        assert abs(got_h[0] - want_h) < 1e-12
        assert abs(got_c[0] - want_c) < 1e-12

    def test_every_node_visited_exactly_once(self):
        trees = [two_edu_tree(), three_edu_tree(), left_chain(6), right_chain(5),
                 Internal(three_edu_tree(), right_chain(4),
                          make_label("Joint", "N"), make_label("Joint", "N"))]
        for batch_trees in [[t] for t in trees] + [trees]:
            sched = tree_schedule(batch_trees, t_label_rows)
            n_leaves = sum(count_leaves(t) for t in batch_trees)
            assert sched.leaves == n_leaves
            # each leaf once, left to right and tree after tree: following
            # the schedule down from the roots, leaf row i holds the i-th
            # entry of the batch's concatenated ``Document.edus``
            edus = [tokens for doc in documents(batch_trees) for tokens in doc.edus]
            found = []
            for tree, roots in zip(batch_trees, sched.roots):
                stack = [(tree.right, roots[1]), (tree.left, roots[0])]
                while stack:
                    node, state_row = stack.pop()
                    if isinstance(node, Leaf):
                        found.append((state_row, tokenize(node.text)))
                    else:
                        kids = sched.children[state_row - n_leaves]
                        stack += [(node.right, kids[1]), (node.left, kids[0])]
            assert found == list(enumerate(edus))
            # each internal node below a root in exactly one level: every
            # row of the state table is the child of exactly one node or root
            inner = sum(count_nodes(t) - count_leaves(t) - 1 for t in batch_trees)
            assert sum(sched.level_sizes) == len(sched.children) == inner
            assert sched.labels.shape == (inner, 2)
            rows = np.concatenate((sched.roots.ravel(), sched.children.ravel()))
            assert np.array_equal(np.sort(rows), np.arange(n_leaves + inner))
            # a node's level is its height: its taller child sits on the
            # level right below (the leaves below level 0), the other no higher
            below, start = 0, n_leaves
            for size in sched.level_sizes:
                kids = sched.children[start - n_leaves:start - n_leaves + size]
                assert (kids.max(axis=1) >= below).all() and kids.max() < start
                below, start = start, start + size
            assert sched.roots.shape == (len(batch_trees), 2)


RELATIONS = ("Joint", "Cause", "Contrast", "Summary", "Elaboration", "Same-Unit")
# The vocabulary holds half the relations, and not every nuclearity of
# those: every other label is one it never saw and must read row 0.
SEEN = RelationVocabulary(["Joint_N", "Joint_S", "Cause_S", "Contrast_N"])


def random_tree(rng, n_leaves, shape):
    """A tree of ``n_leaves`` leaves: random splits, or a left or right chain;
    each child label drawn from RELATIONS x {N, S}."""
    def label():
        return make_label(RELATIONS[int(rng.integers(len(RELATIONS)))],
                          "NS"[int(rng.integers(2))])

    def build_range(lo, hi):
        if hi - lo == 1:
            return Leaf(f"edu {lo}.")
        cut = {"left": hi - 1, "right": lo + 1}.get(shape)
        if cut is None:
            cut = int(rng.integers(lo + 1, hi))
        return Internal(build_range(lo, cut), build_range(cut, hi), label(), label())

    return build_range(0, n_leaves)


class TestScheduleMatchesReference:
    """tree_schedule, which maps a batch's labels in one call through the
    map fixed at model build, against the per-label walk it replaced."""

    @pytest.mark.parametrize("features", [TONLY, TNS, TNSR], ids=["t", "t,ns", "t,ns,r"])
    @given(batch=st.lists(st.tuples(st.integers(2, 12),
                                    st.sampled_from(["random", "left", "right"]),
                                    st.integers(0, 2 ** 32 - 1)),
                          min_size=1, max_size=64))
    def test_random_batches(self, features, batch):
        vocab = SEEN if "r" in features.split(",") else None
        _, params = build(features, vocab, randomize=False)
        trees = [random_tree(np.random.default_rng(seed), n, shape)
                 for n, shape, seed in batch]
        got = tree_schedule(trees, params.label_rows)
        want = oracles.reference_tree_schedule(
            trees, oracles.reference_label_row(features, vocab))
        assert got.leaves == want.leaves
        assert got.level_sizes == want.level_sizes
        for name in ("children", "labels", "roots"):
            assert getattr(got, name).dtype == getattr(want, name).dtype, name
            assert np.array_equal(getattr(got, name), getattr(want, name)), name

    def test_unseen_labels_read_row_0(self):
        _, params = build(TNSR, SEEN, randomize=False)
        labels = [make_label("Joint", "S"), make_label("Cause", "N"),
                  make_label("Summary", "S"), make_label("Contrast", "N"),
                  NodeLabel("UNK", "N")]
        assert params.label_rows(labels) == [2, 0, 0, 4, 0]


class TestRunTree:
    """nc.run_tree against the per-node walk it replaces, in values and in
    the gradients of the cell, the label table and the leaf states."""

    @staticmethod
    def run_both(trees, features, seed=0, hidden=3, rel_dim=2):
        vocab = build_relation_vocab(trees) if "r" in features.split(",") else None
        model, params = build(features, vocab, hidden=hidden, rel_dim=rel_dim, seed=seed)
        bundle = model.bundle
        rng = np.random.default_rng(seed + 100)
        n_leaves = sum(count_leaves(t) for t in trees)
        leaf_h = bundle.add("leaf_h", rng.uniform(-1, 1, size=(n_leaves, hidden)))
        leaf_c = bundle.add("leaf_c", rng.uniform(-1, 1, size=(n_leaves, hidden)))
        table = params.table
        wh = rng.uniform(-1, 1, size=(len(trees), 2 * hidden))
        wc = rng.uniform(-1, 1, size=(len(trees), 2 * hidden))

        def grads():
            return {name: t.grad.copy() for name, t in bundle.items()}

        with nc.record():
            sched = tree_schedule(trees, params.label_rows)
            h, c = nc.run_tree(leaf_h, leaf_c, sched.children, sched.labels,
                               sched.level_sizes, sched.roots, table, params.cell)
            assert len(nc._tape) == 1
            nc.backward(oracles.add(oracles.vsum(oracles.mul(h, nc.constant(wh))),
                                    oracles.vsum(oracles.mul(c, nc.constant(wc)))),
                        bundle)
            got = h.data, c.data, grads()
        with nc.record():
            states = oracles.composed_tree_walk(
                trees, leaf_h, leaf_c, oracles.reference_label_row(features, vocab),
                table, params.cell)
            loss = None
            for (h_k, c_k), wh_k, wc_k in zip(states, wh, wc):
                for state, weight in ((h_k, wh_k), (c_k, wc_k)):
                    term = oracles.vsum(oracles.mul(state, nc.constant(weight)))
                    loss = term if loss is None else oracles.add(loss, term)
            nc.backward(loss, bundle)
            want = (np.array([h_k.data for h_k, _ in states]),
                    np.array([c_k.data for _, c_k in states]), grads())
        return got, want, table

    def assert_match(self, trees, features, **kwargs):
        (h, c, grads), (want_h, want_c, want_grads), table = \
            self.run_both(trees, features, **kwargs)
        np.testing.assert_allclose(h, want_h, rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(c, want_c, rtol=1e-12, atol=0.0)
        names = ["tree.w", "tree.b", "leaf_h", "leaf_c"]
        if table is not None:
            names.append("relation_table" if "r" in features.split(",")
                         else "nuclearity_table")
        for name in names:
            assert np.any(grads[name] != 0.0), name
        for name in grads:
            np.testing.assert_allclose(grads[name], want_grads[name], rtol=1e-12,
                                       atol=0.0, err_msg=name)

    @pytest.mark.parametrize("features", [TONLY, TNS, TNSR], ids=["t", "t,ns", "t,ns,r"])
    def test_mixed_batch_matches_per_node_walk(self, features):
        trees = [three_edu_tree(), two_edu_tree(),
                 Internal(left_chain(4), right_chain(3, ("Contrast", "S")),
                          make_label("Joint", "N"), make_label("Cause", "S")),
                 Internal(right_chain(2), three_edu_tree(),
                          make_label("Summary", "S"), make_label("Joint", "N"))]
        self.assert_match(trees, features, seed=3)

    def test_root_with_a_leaf_child(self):
        # three_edu_tree's right root child is a leaf: its state passes through
        self.assert_match([three_edu_tree()], TNSR, seed=4)

    @pytest.mark.parametrize("chain", [left_chain, right_chain])
    def test_300_edu_chain(self, chain):
        trees = [chain(300)]
        sched = tree_schedule(trees, t_label_rows)
        assert sched.level_sizes == [1] * 298
        self.assert_match(trees, TNS, seed=5)

    def test_batched_trees_equal_one_tree_batches(self):
        trees = [three_edu_tree(), left_chain(5), right_chain(4), two_edu_tree()]
        vocab = build_relation_vocab(trees)
        _, params = build(TNSR, vocab, seed=6)
        h, c = encode_trees(documents(trees), params, None)
        for k, tree in enumerate(trees):
            h_k, c_k = encode_trees(documents([tree]), params, None)
            np.testing.assert_allclose(h.data[k], h_k.data[0], rtol=1e-12, atol=0.0)
            np.testing.assert_allclose(c.data[k], c_k.data[0], rtol=1e-12, atol=0.0)

    def test_single_leaf_tree_rejected(self):
        with pytest.raises(DataError):
            tree_schedule([two_edu_tree(), Leaf("only")], t_label_rows)


class TestClassify:
    def test_zero_params_uniform(self):
        model, _ = build(TONLY, randomize=False)
        for _, t in model.bundle.items():
            t.data[:] = 0.0
        dist = classify(model, two_edu_tree())
        assert dist == pytest.approx([1 / 3] * 3, abs=1e-15)

    def test_distribution_sums_to_one(self):
        vocab = build_relation_vocab([three_edu_tree()])
        for seed in range(5):
            model, _ = build(TNSR, vocab, seed=seed)
            dist = classify(model, three_edu_tree())
            assert abs(dist.sum() - 1.0) <= 1e-12
            assert (dist >= 0).all()

    def test_t_only_depends_on_shape_alone(self):
        model, _ = build(TONLY, seed=8)
        a = three_edu_tree(("red red.", "blue.", "green green."))
        b = Internal(
            Internal(Leaf("entirely other."), Leaf("unrelated words."),
                     make_label("Summary", "S"), make_label("Cause", "N")),
            Leaf("third thing."),
            make_label("Joint", "N"), make_label("Joint", "N"))
        da = classify(model, a)
        db = classify(model, b)
        assert np.array_equal(da, db)

    def test_single_leaf_rejected(self):
        model, _ = build(TONLY)
        with pytest.raises(DataError):
            classify(model, Leaf("only"))

    def test_swapping_root_children_changes_distribution(self):
        hits = 0
        for seed in range(100):
            model, _ = build(TONLY, seed=seed)
            base = three_edu_tree()
            swapped = Internal(base.right, base.left, base.right_label,
                               base.left_label)
            da = classify(model, base)
            db = classify(model, swapped)
            hits += int(not np.allclose(da, db, atol=1e-12))
        assert hits >= 99


class TestGradients:
    def test_full_model_gradients_match_finite_differences(self):
        cfg = GeneratorConfig(n_train=3, n_test=0, edu_range=(3, 4),
                              tokens_per_edu=(2, 3), wv_dim=2)
        split = synthesize_corpus(cfg, seed=21)
        vocab = build_relation_vocab(d.tree for d in split.train)
        model, _ = build(FULL, vocab, hidden=3, rel_dim=2, wv_dim=2, seed=2)
        bundle = model.bundle
        wv = toy_wv(dim=2, seed=3)
        doc = split.train[0]

        def loss() -> nc.Tensor:
            return cross_entropy(model.classify([doc], wv), [doc.label])

        with nc.record():
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
        cfg = TrainConfig(model="rst", features=FULL, hidden_size=100,
                          relation_dim=50)
        model = build_model(cfg, vocab, 300, np.random.default_rng(0))
        counts = oracles.count_parameters(model.bundle)
        # sequence cell: 4 gates over [x(300); h(100)] -> 100, plus biases
        assert counts["edu"] == 4 * ((300 + 100) * 100 + 100) == 160_400
        # tree cell: 5 gates over [h_l(100); h_r(100); r_l(50); r_r(50)]
        assert counts["tree"] == 5 * ((2 * 100 + 2 * 50) * 100 + 100) == 150_500
        assert counts["classifier"] == 200 * 3 + 3 == 603
        assert counts["relation_table"] == vocab.size * 50
        assert counts["total"] == sum(v for k, v in counts.items() if k != "total")

    def test_word_vectors_never_counted(self):
        model, _ = build(FULL, build_relation_vocab([two_edu_tree()]),
                         hidden=4, rel_dim=3, wv_dim=7)
        assert all("wv" not in name for name, _ in model.bundle.items())
