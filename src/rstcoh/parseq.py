"""Hierarchical sentence/paragraph/document encoder (the ParSeq baseline).

ParSeq stacks three LSTMs: one over each sentence's word vectors, one over
the resulting sentence vectors per paragraph, one over the paragraph
vectors. The final document vector is the ParSeq model's input to its
softmax head, and the ensemble's, after the tree encoder's root-children
states; ``trainer.build_model`` builds both. A batch of documents takes
three packed passes, one per level. The caller supplies the word vectors:
``trainer.train`` and ``rstcoh evaluate`` check that they are there.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Sequence

import numpy as np

from . import numcore as nc
from .corpus import Document, WordVectors


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


def encode_parseq(docs: Sequence[Document], wv: WordVectors,
                  p: ParseqParams) -> nc.Tensor:
    """Document vectors, (len(docs), H): the final hidden state at each of
    the three levels, all chains starting from the zero state. Each level is
    one packed pass over the whole batch: all sentences, then all
    paragraphs, then all documents. Ingest guarantees that every document
    has paragraphs and that none of them, and none of their sentences, is
    empty."""
    paragraphs = list(chain.from_iterable(doc.paragraphs for doc in docs))
    sentences = list(chain.from_iterable(paragraphs))
    x = nc.constant(wv.stack(list(chain.from_iterable(sentences))))
    h, _ = nc.run_lstms(x, list(map(len, sentences)), p.lstm1)
    h, _ = nc.run_lstms(h, list(map(len, paragraphs)), p.lstm2)
    h, _ = nc.run_lstms(h, [len(doc.paragraphs) for doc in docs], p.lstm3)
    return h
