"""Hierarchical sentence/paragraph/document baseline and the tree ensemble.

ParSeq stacks three LSTMs: one over each sentence's word vectors, one over
the resulting sentence vectors per paragraph, one over the paragraph
vectors; the final document vector feeds an affine softmax head. The
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
from .tree_model import (N_CLASSES, AblationConfig, Affine, TreeModelParams,
                         init_tree_model, root_children_states)


@dataclass
class ParseqParams:
    lstm1: nc.CellParams  # words -> sentence vector
    lstm2: nc.CellParams  # sentence vectors -> paragraph vector
    lstm3: nc.CellParams  # paragraph vectors -> document vector
    classifier: Affine | None


def init_parseq(bundle: nc.ParameterBundle, rng: np.random.Generator,
                wv_dim: int, hidden_size: int, prefix: str = "seq",
                with_classifier: bool = True) -> ParseqParams:
    lstm1 = nc.init_lstm_cell(bundle, f"{prefix}.lstm1", rng, wv_dim, hidden_size)
    lstm2 = nc.init_lstm_cell(bundle, f"{prefix}.lstm2", rng, hidden_size, hidden_size)
    lstm3 = nc.init_lstm_cell(bundle, f"{prefix}.lstm3", rng, hidden_size, hidden_size)
    classifier = None
    if with_classifier:
        classifier = Affine(
            bundle.add("classifier.w", nc.glorot(rng, (N_CLASSES, hidden_size))),
            bundle.add("classifier.b", np.zeros(N_CLASSES)))
    return ParseqParams(lstm1, lstm2, lstm3, classifier)


def encode_parseq(doc: Document, wv: WordVectors, p: ParseqParams) -> nc.Tensor:
    """Document vector: final hidden state at each of the three levels,
    all chains starting from the zero state."""
    if not doc.paragraphs:
        raise EmptyDocumentError(f"document {doc.id!r} has no paragraphs")
    paragraph_vecs = []
    for paragraph in doc.paragraphs:
        if not paragraph:
            raise EmptyDocumentError(f"document {doc.id!r} has an empty paragraph")
        sentence_vecs = []
        for sentence in paragraph:
            if not sentence:
                raise EmptyDocumentError(f"document {doc.id!r} has an empty sentence")
            words = [nc.constant(wv.lookup(tok)) for tok in sentence]
            h, _ = nc.run_lstm(words, p.lstm1)
            sentence_vecs.append(h)
        h, _ = nc.run_lstm(sentence_vecs, p.lstm2)
        paragraph_vecs.append(h)
    d, _ = nc.run_lstm(paragraph_vecs, p.lstm3)
    return d


def classify_parseq(doc: Document, wv: WordVectors, p: ParseqParams) -> nc.Tensor:
    if p.classifier is None:
        raise ConfigError("model has no classification head")
    return nc.softmax(p.classifier.apply(encode_parseq(doc, wv, p)))


@dataclass
class EnsembleParams:
    tree: TreeModelParams  # no EDU encoder, no own classifier
    seq: ParseqParams  # no own classifier
    joint: Affine  # (3, 2*hidden + hidden)


def init_ensemble(bundle: nc.ParameterBundle, rng: np.random.Generator,
                  abl: AblationConfig, vocab: RelationVocabulary | None,
                  hidden_size: int, relation_dim: int, wv_dim: int) -> EnsembleParams:
    if abl.e:
        raise ConfigError("the ensemble never uses EDU embeddings (tree leaves are zero)")
    tree = init_tree_model(bundle, rng, abl, vocab, hidden_size, relation_dim,
                           wv_dim, with_classifier=False)
    seq = init_parseq(bundle, rng, wv_dim, hidden_size, with_classifier=False)
    joint = Affine(
        bundle.add("joint.w", nc.glorot(rng, (N_CLASSES, 3 * hidden_size))),
        bundle.add("joint.b", np.zeros(N_CLASSES)))
    return EnsembleParams(tree, seq, joint)


def classify_ensemble(doc: Document, wv: WordVectors, p: EnsembleParams,
                      abl: AblationConfig,
                      vocab: RelationVocabulary | None = None) -> nc.Tensor:
    """Joint softmax over [h_l; h_r; d_parseq]; tree leaves stay zero."""
    if abl.e:
        raise ConfigError("the ensemble never uses EDU embeddings (tree leaves are zero)")
    h_l, h_r = root_children_states(doc.tree, p.tree, None, abl, vocab)
    d_seq = encode_parseq(doc, wv, p.seq)
    d = nc.concat((h_l, h_r, d_seq))
    return nc.softmax(p.joint.apply(d))
