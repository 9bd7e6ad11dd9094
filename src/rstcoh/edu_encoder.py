"""Encode EDU token sequences into the fixed vectors used at tree leaves."""

from __future__ import annotations

from . import numcore as nc
from .corpus import WordVectors
from .errors import DataError


def encode_edus(edus: list[list[str]], wv: WordVectors,
                p: nc.CellParams) -> list[tuple[nc.Tensor, nc.Tensor]]:
    """Run the LSTM over each EDU's word vectors from the zero state, all
    EDUs in one packed pass.

    Returns each EDU's final hidden state (its embedding) and final cell
    state, which seed the tree recursion at its leaf. Word vectors of the
    wrong dimension raise DataError.
    """
    if any(not tokens for tokens in edus):
        raise DataError("cannot encode an EDU with no tokens")
    return nc.run_lstms([[nc.constant(wv.lookup(tok)) for tok in tokens]
                         for tokens in edus], p)

