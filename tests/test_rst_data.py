from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, strategies as st

from rstcoh import corpus, rst_data
from rstcoh.errors import DataError, ParseError
from rstcoh.rst_data import (Internal, Leaf, NodeLabel, RelationVocabulary,
                             build_relation_vocab, count_leaves, flatten, parse_label,
                             parse_tree, serialize_tree)

import oracles
from conftest import make_label, three_edu_tree, two_edu_tree


TWO_EDU = '(rel Elaboration/N Evidence/S (edu "A claim.") (edu "Its proof."))'


class TestParse:
    def test_two_edu_example(self):
        tree = parse_tree(TWO_EDU)
        assert isinstance(tree, Internal)
        assert tree.left == Leaf("A claim.")
        assert tree.right == Leaf("Its proof.")
        assert tree.left_label == NodeLabel("Elaboration", "N")
        assert tree.right_label == NodeLabel("Evidence", "S")

    def test_single_leaf(self):
        tree = parse_tree('(edu "only one unit")')
        assert tree == Leaf("only one unit")
        assert [v.code for v in flatten(tree).violations] == ["DegenerateTree"]

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
    st.sampled_from(["N", "S"]))

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

    @given(LABEL_ST)
    def test_parse_label_reads_what_combined_writes(self, label):
        assert parse_label(label.combined()) == label

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
        base = build_relation_vocab(map(flatten, trees))
        shuffled = build_relation_vocab([flatten(trees[i]) for i in order])
        assert shuffled == base


def _outcome(parse, text):
    """The tree ``parse`` builds from ``text``, or its error's message and
    byte offset."""
    try:
        return parse(text)
    except ParseError as exc:
        return ("ParseError", str(exc), exc.offset)


def _random_tree(rng, depth=0):
    texts = ("plain", 'with "quotes"', "back\\slash", "café au lait",
             "mixed \\\" both", "tab\tchar", "\u00a0nbsp\u2003em")
    if depth >= 4 or (depth > 0 and rng.random() < 0.4):
        return Leaf(texts[int(rng.integers(0, len(texts)))])
    labels = ("Cause", "Same-Unit", "Elaboration", "N", "S2", "edu", "rel")

    def lab():
        return make_label(labels[int(rng.integers(0, len(labels)))],
                          "N" if rng.random() < 0.5 else "S")
    return Internal(_random_tree(rng, depth + 1), _random_tree(rng, depth + 1),
                    lab(), lab())


WHITESPACE_VARIANTS = {
    "spaces inside and none between": '( rel A / N B / S(edu"a")(edu "b") )',
    "tabs": '\t(rel\tA/N\tB/S\t(edu\t"a")\t(edu "b"))\t',
    "carriage returns": '(rel\rA/N\r\nB/S\r(edu "a")\r(edu "b")\r)\r',
    "\\x1c": '\x1c(rel\x1cA\x1c/\x1cN\x1cB/S(edu\x1c"a")(edu "b"))\x1c',
    "U+00A0": '(rel\u00a0A/N\u00a0B/S (edu "a")\u00a0(edu\u00a0"b")\u00a0)\u00a0',
    "U+2003": '\u2003(rel\u2003A/N\u2003B/S\u2003(edu "a") (edu "b"))',
}

# (case, text, the message the case stands for): one case for each of the ten
# messages, then the cases where the order of the checks shows
ERROR_CASES = (
    ("unterminated escape", '(edu "abc\\', "unterminated escape"),
    ("unknown escape", '(edu "a\\x")', "unknown escape \\x"),
    ("unterminated string", '(rel A/N B/S (edu "a") (edu "b))', "unterminated string"),
    ("unexpected character", '(rel A/N B/S (edu "a") 9 (edu "b"))',
     "unexpected character '9'"),
    ("end of input", '(rel A/N B/S (edu "a") (edu "b")',
     "expected ')', got end of input"),
    ("wrong token", '(rel A/N B/S (edu "a") (edu "b") (edu "c"))',
     "expected ')', got '('"),
    ("bad nuclearity", '(rel Foo/X Bar/S (edu "a") (edu "b"))',
     "bad nuclearity token 'X'"),
    ("trailing content", TWO_EDU + ' (edu "extra")', "trailing content"),
    ("empty EDU string", '(rel A/N B/S (edu "a") (edu ""))', "empty EDU string"),
    ("unknown node keyword", '(node "x")', "unknown node keyword 'node'"),
    ("lexical error after a grammar error", '(rel Foo/X Bar/S (edu "a") (edu "b") %)',
     "unexpected character '%'"),
    ("unknown escape after a grammar error", '(rel A/N B/S (edu "a") ) (edu "\\q")',
     "unknown escape \\q"),
    ("multi-byte characters before the bad token",
     '(rel A/N B/S (edu "café ☃ 𝄞") (foo "b"))', "unknown node keyword 'foo'"),
    ("multi-byte bad character", '(rel A/N B/S (edu "a") é)', "unexpected character 'é'"),
    ("nuclearity run into the next label", '(rel A/NB/S (edu "a") (edu "b"))',
     "bad nuclearity token 'NB'"),
    ("keyword run into the label", '(relA/N B/S (edu "a") (edu "b"))',
     "unknown node keyword 'relA'"),
    ("stray ) for a node", '(rel A/N B/S (edu "a") ) (edu "b"))', "expected '(', got ')'"),
    ("stray ) first", ')', "expected '(', got ')'"),
    ("stray ) after the root", '(edu "a"))', "trailing content"),
    ("trailing atom", TWO_EDU + " x", "trailing content"),
    ("string for a keyword", '("edu" "a")', "expected node keyword, got 'edu'"),
    ("string for a label", '(rel "A"/N B/S (edu "a") (edu "b"))',
     "expected relation label, got 'A'"),
    ("missing slash", '(rel A N B/S (edu "a") (edu "b"))', "expected '/', got 'N'"),
    ("end in a header", '(rel A/N B/', "expected nuclearity, got end of input"),
    ("empty line", " \t", "expected '(', got end of input"),
)


class TestAgainstReference:
    """``parse_tree`` against ``oracles.reference_parse_tree``, the
    token-by-token parser it replaced: equal trees, and the same error
    message and byte offset."""

    def test_random_round_trip_trees(self):
        rng = np.random.default_rng(88)
        for k in range(1000):
            text = serialize_tree(_random_tree(rng))
            assert parse_tree(text) == oracles.reference_parse_tree(text), f"tree {k}"

    @pytest.mark.parametrize("text", WHITESPACE_VARIANTS.values(),
                             ids=WHITESPACE_VARIANTS.keys())
    def test_whitespace_variants(self, text):
        tree = parse_tree(text)
        assert tree == oracles.reference_parse_tree(text)
        assert tree == Internal(Leaf("a"), Leaf("b"), make_label("A", "N"),
                                make_label("B", "S"))

    @pytest.mark.parametrize("text,message", [case[1:] for case in ERROR_CASES],
                             ids=[case[0] for case in ERROR_CASES])
    def test_error_message_and_offset(self, text, message):
        ours = _outcome(parse_tree, text)
        assert ours == _outcome(oracles.reference_parse_tree, text)
        assert ours[0] == "ParseError" and message in ours[1]

    def test_offset_counts_the_bytes_of_multi_byte_characters(self):
        text = '(rel A/N B/S (edu "café ☃ 𝄞") (foo "b"))'
        assert _outcome(parse_tree, text)[2] == text.encode("utf-8").index(b"foo")


# characters the fuzz inserts, deletes and replaces: the grammar's
# punctuation, whitespace of several kinds, nuclearity letters, a multi-byte
# letter and the keyword letters
MUTATION_CHARS = tuple('()/"\\') + (" ", "\t", "\r", "\x1c", "\u00a0", "\u2003",
                                      "N", "S", "é", "e", "d", "u", "r", "l", "A", "x")
EDIT_ST = st.tuples(st.sampled_from(("insert", "delete", "replace")),
                    st.integers(min_value=0), st.sampled_from(MUTATION_CHARS))


class TestFuzzAgainstReference:
    @given(TREE_ST, st.lists(EDIT_ST, min_size=1, max_size=4))
    def test_mutated_trees_parse_as_the_reference_does(self, tree, edits):
        text = serialize_tree(tree)
        for op, at, char in edits:
            i = at % (len(text) + 1)
            if op == "insert":
                text = text[:i] + char + text[i:]
            elif op == "delete":
                text = text[:i] + text[i + 1:]
            else:
                text = text[:i] + char + text[i + 1:]
        assert _outcome(parse_tree, text) == _outcome(oracles.reference_parse_tree, text)


class TestFlatten:
    @given(TREE_ST)
    def test_leaves_and_labels_match_the_tree_and_its_reparse(self, tree):
        want = oracles.reference_leaves_and_labels(tree)
        for t in (tree, parse_tree(serialize_tree(tree))):
            shape = flatten(t)
            assert (shape.leaves, shape.labels) == want
            assert count_leaves(t) == len(want[0])

    def test_synthesized_trees(self, tiny_split):
        for doc in tiny_split.train + tiny_split.test:
            shape = flatten(doc.tree)
            assert (shape.leaves, shape.labels) == \
                oracles.reference_leaves_and_labels(doc.tree)
            assert len(shape.nodes) == len(shape.leaves) - 2

    def test_heights_and_positions(self):
        # the inner node (height 1) joins leaves 0 and 1; the root, its
        # first node of height 1 and leaf 2
        shape = flatten(three_edu_tree())
        assert shape.nodes.dtype == np.intp
        assert shape.nodes.tolist() == [[1, 0, 0, 0, 1]]
        assert shape.root == (1, 0, 0, 2)
        assert shape.labels[-2:] == [make_label("Background", "N"),
                                     make_label("Evidence", "S")]

    def test_single_leaf(self):
        shape = flatten(Leaf("x"))
        assert (shape.leaves, shape.labels, shape.root) == (["x"], [], None)
        assert shape.nodes.shape == (0, 5)
        assert count_leaves(Leaf("x")) == 1

    def test_deep_right_chain_does_not_recurse(self):
        tree: rst_data.RstTree = Leaf("x2999")
        for k in range(2998, -1, -1):
            tree = Internal(Leaf(f"x{k}"), tree,
                            make_label("Joint", "N"), make_label("Joint", "S"))
        shape = flatten(tree)
        assert shape.leaves == [f"x{k}" for k in range(3000)]
        assert shape.nodes[:, 0].tolist() == list(range(1, 2999))
        assert shape.root == (0, 2998, 0, 0)


# Trees that may break the rules: blank leaf texts and empty relations.
RULE_LABEL_ST = st.one_of(LABEL_ST, st.builds(NodeLabel, st.just(""),
                                              st.sampled_from(["N", "S"])))
RULE_TREE_ST = st.recursive(
    st.builds(Leaf, st.one_of(st.sampled_from(["", " ", "\t"]), TEXT_ST)),
    lambda children: st.builds(Internal, children, children, RULE_LABEL_ST,
                               RULE_LABEL_ST),
    max_leaves=12)


class TestValidate:
    @given(RULE_TREE_ST)
    def test_violations_match_the_reference_walk(self, tree):
        assert flatten(tree).violations == oracles.reference_validate_tree(tree)

    @pytest.mark.parametrize("text", ["x", "", " ", "\t"])
    def test_lone_leaf(self, text):
        assert flatten(Leaf(text)).violations == oracles.reference_validate_tree(Leaf(text))

    def test_paths_are_l_r_steps_from_the_root(self):
        inner = Internal(Leaf("a"), Leaf("\t"), make_label("", "N"), make_label("", "S"))
        tree = Internal(Leaf("b"), inner, make_label("Joint", "N"), make_label("", "S"))
        assert flatten(tree).violations == [
            rst_data.Violation("EmptyEduText", "RR"),
            rst_data.Violation("EmptyRelation", ""),
            rst_data.Violation("EmptyRelation", "R"),
            rst_data.Violation("EmptyRelation", "R")]

    def test_valid_two_edu(self):
        assert flatten(two_edu_tree()).violations == []

    def test_empty_relation(self):
        tree = Internal(Leaf("a"), Leaf("b"), make_label("", "N"),
                        make_label("Evidence", "S"))
        assert [v.code for v in flatten(tree).violations] == ["EmptyRelation"]

    def test_empty_edu_text(self):
        tree = Internal(Leaf("a"), Leaf("   "), make_label("Joint", "N"),
                        make_label("Joint", "S"))
        assert [v.code for v in flatten(tree).violations] == ["EmptyEduText"]


class TestVocabulary:
    def test_build_from_one_tree(self):
        vocab = build_relation_vocab([flatten(two_edu_tree())])
        assert vocab.labels == ("UNK", "Elaboration_N", "Evidence_S")

    def test_unseen_label_maps_to_unk(self):
        vocab = build_relation_vocab([flatten(two_edu_tree())])
        rows = vocab.rows
        assert rows.get(make_label("Nonexistent", "N"), 0) == 0
        assert rows[make_label("Evidence", "S")] == 2
        assert rows.get(make_label("Evidence", "N"), 0) == 0

    def test_empty_input_raises(self):
        with pytest.raises(DataError):
            build_relation_vocab([])

    @pytest.mark.parametrize("text", ["", "garbage", "Foo_X", "A_B_N", 3])
    def test_parse_label_rejects_non_labels(self, text):
        with pytest.raises(DataError):
            parse_label(text)

    @pytest.mark.parametrize("labels", [["UNK", "garbage"], ["UNK", "Foo_X"],
                                        ["Cause_N", "Cause_N"]])
    def test_entries_that_are_not_distinct_labels_rejected(self, labels):
        with pytest.raises(DataError):
            RelationVocabulary(labels)

    def test_all_31_default_labels_realized_gives_size_32(self):
        cfg = corpus.GeneratorConfig(n_train=200, n_test=0)
        split = corpus.synthesize_corpus(cfg, seed=5)
        vocab = build_relation_vocab(doc.shape for doc in split.train)
        realized = {lab.combined() for doc in split.train for lab in doc.shape.labels}
        assert realized == set(corpus.DEFAULT_LABELS)
        assert len(corpus.DEFAULT_LABELS) == 31
        assert vocab.size == 32

    def test_lookup_total_over_validated_trees(self, tiny_split):
        vocab = build_relation_vocab(doc.shape for doc in tiny_split.train)
        for doc in tiny_split.train:
            for lab in doc.shape.labels:
                idx = vocab.rows.get(lab, 0)
                assert 0 <= idx < vocab.size
