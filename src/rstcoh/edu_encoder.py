"""Encode an EDU's token sequence into the fixed vector used at tree leaves."""

from __future__ import annotations

from . import numcore as nc
from .corpus import WordVectors
from .errors import ValidationError


def encode_edu(tokens: list[str], wv: WordVectors,
               p: nc.CellParams) -> tuple[nc.Tensor, nc.Tensor]:
    """Run the LSTM over the tokens' word vectors from the zero state.

    Returns the final hidden state (the EDU embedding) and the final cell
    state, both of which seed the tree recursion at this leaf. Word vectors
    of the wrong dimension raise DimensionError at the first step.
    """
    if not tokens:
        raise ValidationError("cannot encode an EDU with no tokens")
    inputs = [nc.constant(wv.lookup(tok)) for tok in tokens]
    return nc.run_lstm(inputs, p)
