from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

sys.path.insert(0, str(Path(__file__).parent))

settings.register_profile("default", deadline=None, max_examples=50)
settings.load_profile("default")

from rstcoh import corpus, rst_data  # noqa: E402

import oracles  # noqa: E402
from oracles import Internal, Leaf  # noqa: E402


def make_label(rel: str, nuc: str) -> rst_data.NodeLabel:
    return rst_data.NodeLabel(rel, nuc)


def count_nodes(text: str) -> int:
    # a full binary tree has one internal node fewer than it has leaves
    return 2 * rst_data.count_leaves(text) - 1


def text_of(tree: oracles.RstTree) -> str:
    """The text the package holds for the hand-built object tree ``tree``."""
    return oracles.reference_serialize_tree(tree)


def shape_of(tree: oracles.RstTree) -> rst_data.TreeShape:
    """The package's flat form of the hand-built object tree ``tree``."""
    return rst_data.parse_tree(text_of(tree))


def comparable(shape: rst_data.TreeShape) -> rst_data.TreeShape:
    """``shape`` with its node array as nested lists, so that ``==`` compares
    two flat forms whole."""
    return shape._replace(nodes=shape.nodes.tolist())


def two_edu_tree(left_text="A claim.", right_text="Its proof.") -> str:
    return text_of(Internal(Leaf(left_text), Leaf(right_text),
                            make_label("Elaboration", "N"), make_label("Evidence", "S")))


def three_edu_tree(texts=("Alpha beta.", "Gamma delta.", "Epsilon zeta.")) -> str:
    inner = Internal(Leaf(texts[0]), Leaf(texts[1]),
                     make_label("Contrast", "N"), make_label("Elaboration", "S"))
    return text_of(Internal(inner, Leaf(texts[2]),
                            make_label("Background", "N"), make_label("Evidence", "S")))


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture(scope="session")
def tiny_generator_config():
    return corpus.GeneratorConfig(n_train=24, n_test=12, edu_range=(3, 6),
                                  tokens_per_edu=(2, 4), wv_dim=4)


@pytest.fixture(scope="session")
def tiny_split(tiny_generator_config):
    return corpus.synthesize_corpus(tiny_generator_config, seed=7)


@pytest.fixture(scope="session")
def tiny_wv(tiny_generator_config):
    return corpus.synthesize_word_vectors(tiny_generator_config, seed=7)
