"""Encode EDU token sequences into the fixed vectors used at tree leaves."""

from __future__ import annotations

from . import numcore as nc
from .corpus import WordVectors
from .errors import DataError


def encode_edus(edus: list[list[str]], wv: WordVectors,
                p: nc.CellParams) -> tuple[nc.Tensor, nc.Tensor]:
    """Run the LSTM over each EDU's word vectors from the zero state, all
    EDUs in one packed pass.

    Returns the final hidden states (the EDU embeddings) and final cell
    states as two (len(edus), H) tensors, which seed the tree recursion at
    its leaves. Word vectors of the wrong dimension raise DataError.
    """
    if any(not tokens for tokens in edus):
        raise DataError("cannot encode an EDU with no tokens")
    x = nc.constant(wv.stack([tok for tokens in edus for tok in tokens]))
    return nc.run_lstms(x, [len(tokens) for tokens in edus], p)
