from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, strategies as st

from rstcoh import corpus, rst_data
from rstcoh.errors import DataError, ParseError
from rstcoh.rst_data import (Internal, Leaf, NodeLabel, Nuclearity,
                             build_relation_vocab, parse_tree, serialize_tree,
                             validate_tree)

from conftest import make_label, two_edu_tree


TWO_EDU = '(rel Elaboration/N Evidence/S (edu "A claim.") (edu "Its proof."))'


class TestParse:
    def test_two_edu_example(self):
        tree = parse_tree(TWO_EDU)
        assert isinstance(tree, Internal)
        assert tree.left == Leaf("A claim.")
        assert tree.right == Leaf("Its proof.")
        assert tree.left_label == NodeLabel("Elaboration", Nuclearity.N)
        assert tree.right_label == NodeLabel("Evidence", Nuclearity.S)

    def test_single_leaf(self):
        tree = parse_tree('(edu "only one unit")')
        assert tree == Leaf("only one unit")
        assert [v.code for v in validate_tree(tree)] == ["DegenerateTree"]

    def test_whitespace_between_tokens_is_insignificant(self):
        spaced = ('( rel   Elaboration / N Evidence/S\n'
                  '   (edu "A claim.")   (edu "Its proof.") )')
        assert parse_tree(spaced) == parse_tree(TWO_EDU)

    def test_escaped_quote_and_backslash(self):
        tree = parse_tree(r'(edu "say \"hi\" and \\ more")')
        assert tree == Leaf('say "hi" and \\ more')

    def test_bad_nuclearity_offset_points_at_token(self):
        text = '(rel Foo/X Bar/S (edu "a") (edu "b"))'
        with pytest.raises(ParseError) as exc:
            parse_tree(text)
        assert "bad nuclearity" in str(exc.value)
        assert exc.value.offset == text.index("X")

    def test_unknown_keyword(self):
        with pytest.raises(ParseError) as exc:
            parse_tree('(node "whatever")')
        assert "unknown node keyword" in str(exc.value)

    def test_unbalanced_parentheses(self):
        with pytest.raises(ParseError) as exc:
            parse_tree('(rel A/N B/S (edu "a") (edu "b")')
        assert "unbalanced" in str(exc.value)

    def test_trailing_content(self):
        with pytest.raises(ParseError):
            parse_tree(TWO_EDU + ' (edu "extra")')

    def test_empty_edu_string(self):
        with pytest.raises(ParseError) as exc:
            parse_tree('(edu "")')
        assert "empty EDU" in str(exc.value)

    def test_byte_offset_counts_utf8_bytes(self):
        # 2-byte character inside the EDU text before the offending token
        text = '(rel A/N B/S (edu "café") (foo "b"))'
        with pytest.raises(ParseError) as exc:
            parse_tree(text)
        assert "unknown node keyword" in str(exc.value)
        assert exc.value.offset == text.encode("utf-8").index(b"foo")


class TestSerialize:
    def test_round_trip_two_edu(self):
        tree = parse_tree(TWO_EDU)
        assert parse_tree(serialize_tree(tree)) == tree
        assert serialize_tree(tree) == TWO_EDU

    def test_quote_escaped_and_recovered(self):
        tree = Internal(Leaf('with "quote"'), Leaf("plain"),
                        make_label("Joint", "N"), make_label("Joint", "S"))
        out = serialize_tree(tree)
        assert '\\"' in out
        assert parse_tree(out) == tree

    def test_deep_left_chain_does_not_recurse(self):
        # structural == on dataclasses recurses, so compare canonical strings
        tree: rst_data.RstTree = Leaf("x0")
        for k in range(1, 3000):
            tree = Internal(tree, Leaf(f"x{k}"),
                            make_label("Joint", "N"), make_label("Joint", "S"))
        text = serialize_tree(tree)
        assert serialize_tree(parse_tree(text)) == text


LABEL_ST = st.builds(
    NodeLabel,
    st.from_regex(r"[A-Za-z][A-Za-z0-9-]{0,6}", fullmatch=True),
    st.sampled_from([Nuclearity.N, Nuclearity.S]))

TEXT_ST = st.text(min_size=1, max_size=20).filter(lambda s: s.strip())

TREE_ST = st.recursive(
    st.builds(Leaf, TEXT_ST),
    lambda children: st.builds(Internal, children, children, LABEL_ST, LABEL_ST),
    max_leaves=12)


class TestProperties:
    @given(TREE_ST)
    def test_parse_serialize_identity(self, tree):
        assert parse_tree(serialize_tree(tree)) == tree

    @given(TREE_ST)
    def test_serialize_parse_fixpoint_on_canonical_strings(self, tree):
        text = serialize_tree(tree)
        assert serialize_tree(parse_tree(text)) == text

    @given(st.permutations(range(4)))
    def test_vocab_is_order_invariant(self, order):
        trees = [
            two_edu_tree(),
            Internal(Leaf("a"), Leaf("b"), make_label("Cause", "N"),
                     make_label("Cause", "S")),
            Internal(Leaf("c"), Leaf("d"), make_label("Joint", "N"),
                     make_label("Joint", "N")),
            Internal(Leaf("e"), Leaf("f"), make_label("Contrast", "S"),
                     make_label("Evidence", "S")),
        ]
        base = build_relation_vocab(trees)
        shuffled = build_relation_vocab([trees[i] for i in order])
        assert shuffled == base


class TestValidate:
    def test_valid_two_edu(self):
        assert validate_tree(two_edu_tree()) == []

    def test_empty_relation(self):
        tree = Internal(Leaf("a"), Leaf("b"), make_label("", "N"),
                        make_label("Evidence", "S"))
        assert [v.code for v in validate_tree(tree)] == ["EmptyRelation"]

    def test_empty_edu_text(self):
        tree = Internal(Leaf("a"), Leaf("   "), make_label("Joint", "N"),
                        make_label("Joint", "S"))
        assert [v.code for v in validate_tree(tree)] == ["EmptyEduText"]


class TestVocabulary:
    def test_build_from_one_tree(self):
        vocab = build_relation_vocab([two_edu_tree()])
        assert vocab.labels == ("UNK", "Elaboration_N", "Evidence_S")

    def test_unseen_label_maps_to_unk(self):
        vocab = build_relation_vocab([two_edu_tree()])
        assert vocab.index_of("Nonexistent_N") == 0
        assert vocab.index_of("Evidence_S") == 2

    def test_empty_input_raises(self):
        with pytest.raises(DataError):
            build_relation_vocab([])

    def test_all_31_default_labels_realized_gives_size_32(self):
        cfg = corpus.GeneratorConfig(n_train=200, n_test=0)
        split = corpus.synthesize_corpus(cfg, seed=5)
        vocab = build_relation_vocab(doc.tree for doc in split.train)
        realized = {lab.combined() for doc in split.train
                    for lab in rst_data.child_labels(doc.tree)}
        assert realized == set(corpus.DEFAULT_LABELS)
        assert len(corpus.DEFAULT_LABELS) == 31
        assert vocab.size == 32

    def test_lookup_total_over_validated_trees(self, tiny_split):
        vocab = build_relation_vocab(doc.tree for doc in tiny_split.train)
        for doc in tiny_split.train:
            for lab in rst_data.child_labels(doc.tree):
                idx = vocab.index_of_label(lab)
                assert 0 <= idx < vocab.size
