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


def make_label(rel: str, nuc: str) -> rst_data.NodeLabel:
    return rst_data.NodeLabel(rel, nuc)


def count_nodes(tree: rst_data.RstTree) -> int:
    return sum(1 for _ in rst_data.iter_nodes(tree))


def two_edu_tree(left_text="A claim.", right_text="Its proof.") -> rst_data.Internal:
    return rst_data.Internal(
        rst_data.Leaf(left_text), rst_data.Leaf(right_text),
        make_label("Elaboration", "N"), make_label("Evidence", "S"))


def three_edu_tree(texts=("Alpha beta.", "Gamma delta.", "Epsilon zeta.")):
    inner = rst_data.Internal(
        rst_data.Leaf(texts[0]), rst_data.Leaf(texts[1]),
        make_label("Contrast", "N"), make_label("Elaboration", "S"))
    return rst_data.Internal(
        inner, rst_data.Leaf(texts[2]),
        make_label("Background", "N"), make_label("Evidence", "S"))


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
