"""Hierarchical sentence/paragraph/document encoder (the ParSeq baseline).

ParSeq stacks three LSTMs: one over each sentence's word vectors, one over
the resulting sentence vectors per paragraph, one over the paragraph
vectors. The final document vector is the ParSeq model's input to its
softmax head, and the ensemble's, after the tree encoder's root-children
states; ``trainer.build_model`` builds both.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numcore as nc
from .corpus import Document, WordVectors
from .errors import DataError


@dataclass
class ParseqParams:
    lstm1: nc.CellParams  # words -> sentence vector
    lstm2: nc.CellParams  # sentence vectors -> paragraph vector
    lstm3: nc.CellParams  # paragraph vectors -> document vector


def init_parseq(bundle: nc.ParameterBundle, rng: np.random.Generator,
                wv_dim: int, hidden_size: int) -> ParseqParams:
    """Register ``seq.lstm1``, ``seq.lstm2`` and ``seq.lstm3``, in that order."""
    return ParseqParams(
        nc.init_lstm_cell(bundle, "seq.lstm1", rng, wv_dim, hidden_size),
        nc.init_lstm_cell(bundle, "seq.lstm2", rng, hidden_size, hidden_size),
        nc.init_lstm_cell(bundle, "seq.lstm3", rng, hidden_size, hidden_size))


def encode_parseq(doc: Document, wv: WordVectors, p: ParseqParams) -> nc.Tensor:
    """Document vector: final hidden state at each of the three levels,
    all chains starting from the zero state. Each level is one packed pass:
    all sentences of the document, then all its paragraphs."""
    if not doc.paragraphs:
        raise DataError(f"document {doc.id!r} has no paragraphs")
    for paragraph in doc.paragraphs:
        if not paragraph:
            raise DataError(f"document {doc.id!r} has an empty paragraph")
        if not all(paragraph):
            raise DataError(f"document {doc.id!r} has an empty sentence")
    sentences = nc.run_lstms([[nc.constant(wv.lookup(tok)) for tok in sentence]
                              for paragraph in doc.paragraphs
                              for sentence in paragraph], p.lstm1)
    states = iter(sentences)
    paragraphs = nc.run_lstms([[next(states)[0] for _ in paragraph]
                               for paragraph in doc.paragraphs], p.lstm2)
    d, _ = nc.run_lstm([h for h, _ in paragraphs], p.lstm3)
    return d
