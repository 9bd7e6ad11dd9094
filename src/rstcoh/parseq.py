"""Hierarchical sentence/paragraph/document baseline and the tree ensemble.

ParSeq stacks three LSTMs: one over each sentence's word vectors, one over
the resulting sentence vectors per paragraph, one over the paragraph
vectors; the final document vector feeds a softmax head. The
ensemble concatenates the tree encoder's root-children states (leaves
forced to zero vectors) with the ParSeq document vector before one joint
head.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numcore as nc
from .corpus import Document, WordVectors
from .errors import ConfigError, EmptyDocumentError
from .rst_data import RelationVocabulary
from .tree_model import (AblationConfig, SoftmaxHead, TreeModelParams, init_head,
                         init_tree_model, root_children_states)


@dataclass
class ParseqParams:
    lstm1: nc.CellParams  # words -> sentence vector
    lstm2: nc.CellParams  # sentence vectors -> paragraph vector
    lstm3: nc.CellParams  # paragraph vectors -> document vector
    classifier: SoftmaxHead | None


def init_parseq(bundle: nc.ParameterBundle, rng: np.random.Generator,
                wv_dim: int, hidden_size: int, prefix: str = "seq",
                with_classifier: bool = True) -> ParseqParams:
    lstm1 = nc.init_lstm_cell(bundle, f"{prefix}.lstm1", rng, wv_dim, hidden_size)
    lstm2 = nc.init_lstm_cell(bundle, f"{prefix}.lstm2", rng, hidden_size, hidden_size)
    lstm3 = nc.init_lstm_cell(bundle, f"{prefix}.lstm3", rng, hidden_size, hidden_size)
    classifier = None
    if with_classifier:
        classifier = init_head(bundle, "classifier", rng, hidden_size)
    return ParseqParams(lstm1, lstm2, lstm3, classifier)


def encode_parseq(doc: Document, wv: WordVectors, p: ParseqParams) -> nc.Tensor:
    """Document vector: final hidden state at each of the three levels,
    all chains starting from the zero state. Each level is one packed pass:
    all sentences of the document, then all its paragraphs."""
    if not doc.paragraphs:
        raise EmptyDocumentError(f"document {doc.id!r} has no paragraphs")
    for paragraph in doc.paragraphs:
        if not paragraph:
            raise EmptyDocumentError(f"document {doc.id!r} has an empty paragraph")
        if not all(paragraph):
            raise EmptyDocumentError(f"document {doc.id!r} has an empty sentence")
    sentences = nc.run_lstms([[nc.constant(wv.lookup(tok)) for tok in sentence]
                              for paragraph in doc.paragraphs
                              for sentence in paragraph], p.lstm1)
    states = iter(sentences)
    paragraphs = nc.run_lstms([[next(states)[0] for _ in paragraph]
                               for paragraph in doc.paragraphs], p.lstm2)
    d, _ = nc.run_lstm([h for h, _ in paragraphs], p.lstm3)
    return d


def classify_parseq(doc: Document, wv: WordVectors, p: ParseqParams) -> nc.Tensor:
    if p.classifier is None:
        raise ConfigError("model has no classification head")
    return p.classifier(encode_parseq(doc, wv, p))


@dataclass
class EnsembleParams:
    tree: TreeModelParams  # no EDU encoder, no own classifier
    seq: ParseqParams  # no own classifier
    joint: SoftmaxHead  # (3, 2*hidden + hidden)


def init_ensemble(bundle: nc.ParameterBundle, rng: np.random.Generator,
                  abl: AblationConfig, vocab: RelationVocabulary | None,
                  hidden_size: int, relation_dim: int, wv_dim: int) -> EnsembleParams:
    if abl.e:
        raise ConfigError("the ensemble never uses EDU embeddings (tree leaves are zero)")
    tree = init_tree_model(bundle, rng, abl, vocab, hidden_size, relation_dim,
                           wv_dim, with_classifier=False)
    seq = init_parseq(bundle, rng, wv_dim, hidden_size, with_classifier=False)
    return EnsembleParams(tree, seq, init_head(bundle, "joint", rng, 3 * hidden_size))


def classify_ensemble(doc: Document, wv: WordVectors, p: EnsembleParams,
                      abl: AblationConfig,
                      vocab: RelationVocabulary | None = None) -> nc.Tensor:
    """Joint softmax over [h_l; h_r; d_parseq]; tree leaves stay zero."""
    if abl.e:
        raise ConfigError("the ensemble never uses EDU embeddings (tree leaves are zero)")
    h_l, h_r = root_children_states(doc.tree, p.tree, None, abl, vocab)
    return p.joint(nc.concat((h_l, h_r, encode_parseq(doc, wv, p.seq))))
