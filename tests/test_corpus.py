from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy import stats

from rstcoh import corpus, rst_data
from rstcoh.corpus import (GeneratorConfig, join_paragraphs,
                           load_corpus, load_word_vectors, segment,
                           synthesize_corpus, synthesize_word_vectors, tokenize)
from rstcoh.errors import ConfigError, DataError, IngestError, ParseError

import oracles
from test_rst_data import ERROR_CASES


class TestSegment:
    def test_two_sentences_one_paragraph(self):
        assert segment("One. Two.") == [[["one"], ["two"]]]

    def test_blank_line_splits_paragraphs(self):
        assert segment("A.\n\nB.") == [[["a"]], [["b"]]]

    def test_lowercase_after_period_does_not_split(self):
        # boundary needs whitespace + uppercase after [.?!]
        assert segment("Dr. who?") == [[["dr", "who"]]]

    def test_punctuation_separates_tokens(self):
        assert segment("Half-baked, really!") == [[["half", "baked", "really"]]]

    def test_no_tokens_raises(self):
        with pytest.raises(DataError):
            segment("?!... ---")

    def test_single_newline_stays_in_paragraph(self):
        assert segment("one two\nthree. Four.") == [[["one", "two", "three"], ["four"]]]

    @given(st.lists(
        st.lists(
            st.lists(st.sampled_from(corpus.DEFAULT_TOKEN_POOL), min_size=1, max_size=5),
            min_size=1, max_size=3),
        min_size=1, max_size=3))
    def test_segment_of_joined_output_is_stable(self, paragraphs):
        joined = join_paragraphs(paragraphs)
        assert segment(joined) == paragraphs
        # idempotence: segmenting the re-joined segmentation changes nothing
        assert segment(join_paragraphs(segment(joined))) == paragraphs


def write_corpus(tmp_path, docs, trees):
    docs_path = tmp_path / "documents.jsonl"
    trees_path = tmp_path / "trees.txt"
    with open(docs_path, "w") as fh:
        for d in docs:
            fh.write(json.dumps(d) + "\n")
    with open(trees_path, "w") as fh:
        for doc_id, text in trees:
            fh.write(f"{doc_id}\t{text}\n")
    return docs_path, trees_path


TREE = '(rel Elaboration/N Evidence/S (edu "A claim.") (edu "Its proof."))'


class TestLoadCorpus:
    def test_nine_of_ten_trees_supplied(self, tmp_path):
        docs = [{"id": f"d{i}", "label": 1 + i % 3, "text": "Alpha beta. Gamma."}
                for i in range(10)]
        trees = [(f"d{i}", TREE) for i in range(9)]
        split = load_corpus(*write_corpus(tmp_path, docs, trees))
        assert len(split.train) == 9
        assert len(split.exclusion_log) == 1
        assert split.exclusion_log[0].doc_id == "d9"
        assert split.exclusion_log[0].reason == "missing tree"

    def test_retained_plus_excluded_equals_input(self, tmp_path, monkeypatch):
        # one excluded document per reason, in file order, and a tree line
        # with no document, which is never parsed and adds nothing
        docs = [{"id": f"d{i}", "label": 3, "text": "Alpha beta."} for i in range(7)]
        trees = [("d0", TREE), ("d1", '(edu "degenerate")'),
                 ("d2", "(rel broken"), ("d3", TREE),
                 ("d4", '(rel A/N B/S (edu "!!!") (edu "ok words"))'),
                 ("d5", '(rel A/N B/S (rel C/N D/S (edu "a") (edu " ")) (edu "b"))'),
                 ("orphan", '(rel A/N B/S (edu "a")')]
        parsed = []
        parse_tree = rst_data.parse_tree
        monkeypatch.setattr(rst_data, "parse_tree",
                            lambda text: parsed.append(text) or parse_tree(text))
        split = load_corpus(*write_corpus(tmp_path, docs, trees))
        assert [d.id for d in split.train] == ["d0", "d3"]
        assert [(e.doc_id, e.reason) for e in split.exclusion_log] == [
            ("d1", "invalid tree: DegenerateTree"),
            ("d2", "tree parse error: unbalanced parentheses: expected '/', "
                   "got end of input (byte offset 11)"),
            ("d4", "EDU with no tokens"),
            ("d5", "invalid tree: EmptyEduText"),
            ("d6", "missing tree")]
        assert parsed == [text for _, text in trees[:-1]]

    def test_parse_error_reasons_are_the_reference_messages(self, tmp_path):
        # exclusion reasons are part of summary.json's bytes
        docs = [{"id": f"d{k}", "label": 1, "text": "Alpha beta."}
                for k in range(len(ERROR_CASES))]
        trees = [(f"d{k}", case[1]) for k, case in enumerate(ERROR_CASES)]
        split = load_corpus(*write_corpus(tmp_path, docs, trees))
        expected = []
        for doc_id, text in trees:
            with pytest.raises(ParseError) as exc:
                oracles.reference_parse_tree(text)
            expected.append((doc_id, f"tree parse error: {exc.value}"))
        assert [(e.doc_id, e.reason) for e in split.exclusion_log] == expected

    def test_paper_scale_accounting_199_of_200(self, tmp_path):
        # 200 test records, 199 parsed trees -> 99.5% retention
        docs = [{"id": f"t{i}", "label": 1 + i % 3, "text": "Alpha beta. Gamma.",
                 "split": "test"} for i in range(200)]
        trees = [(f"t{i}", TREE) for i in range(199)]
        split = load_corpus(*write_corpus(tmp_path, docs, trees))
        assert len(split.test) == 199
        assert len(split.exclusion_log) == 1
        retention = len(split.test) / (len(split.test) + len(split.exclusion_log))
        assert retention == pytest.approx(0.995)

    def test_label_out_of_range_is_ingest_error(self, tmp_path):
        docs = [{"id": "d0", "label": 4, "text": "Alpha."}]
        with pytest.raises(IngestError) as exc:
            load_corpus(*write_corpus(tmp_path, docs, [("d0", TREE)]))
        assert exc.value.line == 1

    def test_duplicate_document_id(self, tmp_path):
        docs = [{"id": "d0", "label": 1, "text": "Alpha beta."},
                {"id": "d0", "label": 2, "text": "Gamma delta."}]
        with pytest.raises(DataError):
            load_corpus(*write_corpus(tmp_path, docs, [("d0", TREE)]))

    def test_split_field_routes_documents(self, tmp_path):
        docs = [{"id": "a", "label": 1, "text": "Alpha beta.", "split": "train"},
                {"id": "b", "label": 2, "text": "Gamma delta.", "split": "test"}]
        split = load_corpus(*write_corpus(tmp_path, docs, [("a", TREE), ("b", TREE)]))
        assert [d.id for d in split.train] == ["a"]
        assert [d.id for d in split.test] == ["b"]

    def test_only_newline_ends_a_line(self, tmp_path):
        # a lone \r is whitespace inside a tree line; CRLF endings load
        docs_path, trees_path = write_corpus(tmp_path, [], [])
        docs_path.write_bytes(b'{"id": "a", "label": 1, "text": "X y."}\r\n')
        trees_path.write_bytes(b'a\t(rel A/N B/S (edu "x")\r(edu "y"))\r\n')
        split = load_corpus(docs_path, trees_path)
        assert [d.id for d in split.train] == ["a"]
        assert split.train[0].edus == [["x"], ["y"]]

    def test_explicit_paragraphs_override_segmentation(self, tmp_path):
        docs = [{"id": "a", "label": 1, "text": "Alpha beta.",
                 "paragraphs": [[["alpha"], ["beta"]]]}]
        split = load_corpus(*write_corpus(tmp_path, docs, [("a", TREE)]))
        assert split.train[0].paragraphs == [[["alpha"], ["beta"]]]


class TestWordVectors:
    def test_basic_lookup(self, tmp_path):
        path = tmp_path / "vec.txt"
        path.write_text("the 0.1 0.2\ncat 0.3 0.4\n")
        wv = load_word_vectors(path, vocab={"the"})
        assert wv.dimension == 2
        assert np.array_equal(wv.stack(["the"]), [[0.1, 0.2]])
        assert "cat" not in wv.rows

    def test_oov_is_zero_vector(self, tmp_path):
        path = tmp_path / "vec.txt"
        path.write_text("the 0.1 0.2\n")
        wv = load_word_vectors(path)
        assert np.array_equal(wv.stack(["missing"]), [[0.0, 0.0]])

    @given(tokens=st.lists(st.sampled_from(["the", "cat", "sat", "mat", "dog", ""]),
                           max_size=40))
    def test_stack_equals_per_token_reference(self, tokens):
        # "mat", "dog" and "" are out of vocabulary and read zeros
        vectors = {"the": np.array([0.1, -0.2, 0.3]), "cat": np.array([1.5, 0.0, -4.0]),
                   "sat": np.array([-0.7, 0.25, 2.0])}
        wv = corpus.WordVectors(3, vectors)
        got = wv.stack(tokens)
        assert got.shape == (len(tokens), 3) and got.dtype == np.float64
        assert np.array_equal(got, oracles.reference_stack(vectors, 3, tokens))

    def test_stack_of_no_tokens_is_zero_rows(self):
        wv = corpus.WordVectors(4, {"the": np.ones(4)})
        assert wv.stack([]).shape == (0, 4)
        assert corpus.WordVectors(2, {}).stack([]).shape == (0, 2)

    def test_vectors_are_frozen(self):
        vectors = {"the": np.array([0.1, 0.2])}
        wv = corpus.WordVectors(2, vectors)
        vectors["the"][0] = 9.0  # the matrix holds a copy
        assert np.array_equal(wv.stack(["the"]), [[0.1, 0.2]])
        with pytest.raises(ValueError):
            wv.matrix[1, 0] = 1.0
        with pytest.raises(TypeError):
            wv.rows["cat"] = 1

    def test_inconsistent_dimension_raises(self, tmp_path):
        path = tmp_path / "vec.txt"
        path.write_text("the 0.1 0.2 0.3\ncat 0.1 0.2\n")
        with pytest.raises(DataError):
            load_word_vectors(path)

    @pytest.mark.parametrize("value", ["nan", "inf", "-Infinity"])
    def test_non_finite_value_rejected_with_its_line(self, tmp_path, value):
        path = tmp_path / "vec.txt"
        path.write_text(f"the 0.1 0.2\ncat 0.3 {value}\n")
        with pytest.raises(DataError, match="line 2"):
            load_word_vectors(path)

    def test_trailing_spaces_and_crlf_endings_load(self, tmp_path):
        path = tmp_path / "vec.txt"
        path.write_bytes(b"the 0.1 0.2 \r\ncat 0.3\t0.4  \r\n")
        wv = load_word_vectors(path)
        assert wv.dimension == 2
        assert np.array_equal(wv.stack(["the", "cat"]), [[0.1, 0.2], [0.3, 0.4]])

    def test_word2vec_count_dim_header_skipped(self, tmp_path):
        path = tmp_path / "vec.txt"
        path.write_text("2 2\nthe 0.1 0.2\ncat 0.3 0.4\n")
        wv = load_word_vectors(path)
        assert wv.dimension == 2
        assert sorted(wv.rows) == ["cat", "the"]

    def test_first_line_kept_when_its_dim_does_not_match(self, tmp_path):
        # a one-dimensional file whose first token is a number
        path = tmp_path / "vec.txt"
        path.write_text("5 3\nthe 0.5\n")
        wv = load_word_vectors(path)
        assert wv.dimension == 1
        assert np.array_equal(wv.stack(["5"]), [[3.0]])

    def test_file_round_trip_is_exact(self, tmp_path):
        cfg = GeneratorConfig(wv_dim=5)
        wv = synthesize_word_vectors(cfg, seed=3)
        path = tmp_path / "vec.txt"
        corpus.write_word_vectors(path, wv)
        back = load_word_vectors(path)
        assert back.dimension == 5
        assert sorted(back.rows) == sorted(wv.rows)
        for tok, row in wv.rows.items():
            assert np.array_equal(back.matrix[back.rows[tok]], wv.matrix[row])


class TestGenerator:
    def test_same_seed_is_byte_identical(self):
        cfg = GeneratorConfig(n_train=20, n_test=10)

        def dump(split):
            return [(d.id, d.label, d.text, d.tree, d.paragraphs)
                    for d in split.train + split.test]

        assert dump(synthesize_corpus(cfg, 42)) == dump(synthesize_corpus(cfg, 42))

    def test_different_seeds_differ(self):
        cfg = GeneratorConfig(n_train=5, n_test=0)
        a = synthesize_corpus(cfg, 1)
        b = synthesize_corpus(cfg, 2)
        assert any(x.text != y.text for x, y in zip(a.train, b.train))

    def test_signal_zero_distributions_identical(self):
        cfg = GeneratorConfig(signal_strength=0.0)
        dists = [oracles.class_label_distribution(cfg, k) for k in (1, 2, 3)]
        assert dists[0] == dists[1] == dists[2]

    def test_signal_out_of_range_rejected(self):
        with pytest.raises(ConfigError):
            synthesize_corpus(GeneratorConfig(signal_strength=1.5), 0)
        with pytest.raises(ConfigError):
            synthesize_corpus(GeneratorConfig(signal_strength=-0.1), 0)

    @pytest.mark.parametrize("field,value", [
        ("max_paragraphs", 0), ("wv_dim", 0), ("max_paragraphs", 1.5),
        ("n_test", True), ("tokens_per_edu", (2, 3.0))])
    def test_non_integer_or_non_positive_counts_rejected(self, field, value):
        with pytest.raises(ConfigError):
            GeneratorConfig(**{field: value})

    def test_documents_are_internally_consistent(self, tiny_split):
        for doc in tiny_split.train + tiny_split.test:
            assert doc.label in (1, 2, 3)
            assert doc.shape.violations == []
            assert segment(doc.text) == doc.paragraphs
            # leaves are the document's sentences, in order
            sents = [s for para in doc.paragraphs for s in para]
            leaf_tokens = [tokenize(t) for t in doc.shape.leaves]
            assert leaf_tokens == sents
            assert (doc.shape.leaves, doc.shape.labels) == \
                oracles.reference_leaves_and_labels(oracles.reference_parse_tree(doc.tree))
            assert doc.edus == sents

    def test_generator_writes_canonical_text(self):
        cfg = GeneratorConfig(n_train=60, n_test=20, edu_range=(2, 12))
        split = synthesize_corpus(cfg, seed=3)
        for doc in split.train + split.test:
            assert doc.tree == oracles.reference_serialize_tree(
                oracles.reference_parse_tree(doc.tree))

    def test_edu_count_range_respected(self, tiny_split):
        for doc in tiny_split.train:
            assert 3 <= rst_data.count_leaves(doc.tree) <= 6

    def test_centroid_oracle_separates_signal_09(self):
        cfg = GeneratorConfig(n_train=300, n_test=150, signal_strength=0.9)
        split = synthesize_corpus(cfg, seed=11)
        acc = oracles.label_histogram_centroid_accuracy(
            split.train, split.test, corpus.DEFAULT_LABELS,
            lambda d: [lab.combined() for lab in d.shape.labels])
        assert acc >= 0.85

    def test_label_distribution_chi_squared(self):
        cfg = GeneratorConfig(signal_strength=0.7)
        rng = np.random.default_rng(123)
        n = 10_000
        for klass in (1, 2, 3):
            expected = oracles.class_label_distribution(cfg, klass)
            counts = {lab: 0 for lab in cfg.labels}
            for _ in range(n):
                counts[corpus._sample_label(rng, cfg, klass).combined()] += 1
            obs = np.array([counts[lab] for lab in cfg.labels], dtype=float)
            exp = np.array([expected[lab] * n for lab in cfg.labels])
            result = stats.chisquare(obs, exp)
            assert result.pvalue > 1e-3

    def test_round_trip_through_files(self, tmp_path, tiny_split):
        # every document reads back as it was made, with its paragraphs,
        # EDUs and tree, also from a pool with digits after the first letter
        digits = synthesize_corpus(GeneratorConfig(
            n_train=30, n_test=10, tokens_per_edu=(1, 3), token_signal=0.5,
            token_pool=("alder", "b2", "c3po", "elm", "x9", "fig")), seed=7)
        for split in (tiny_split, digits):
            corpus.write_documents(tmp_path / "documents.jsonl", split)
            corpus.write_trees(tmp_path / "trees.txt", split)
            back = load_corpus(tmp_path / "documents.jsonl", tmp_path / "trees.txt")
            assert [d.id for d in back.train] == [d.id for d in split.train]
            assert [d.id for d in back.test] == [d.id for d in split.test]
            assert not back.exclusion_log
            for a, b in zip(back.train + back.test, split.train + split.test):
                assert a.label == b.label and a.text == b.text and a.tree == b.tree
                assert a.paragraphs == b.paragraphs and a.edus == b.edus
