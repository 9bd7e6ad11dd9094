from __future__ import annotations

import numpy as np
import pytest

from rstcoh import numcore as nc
from rstcoh.corpus import WordVectors
from rstcoh.edu_encoder import encode_edu
from rstcoh.errors import DimensionError, ValidationError

import oracles


def make_encoder(wv_dim, hidden, seed=0, zero=False):
    bundle = nc.ParameterBundle()
    rng = np.random.default_rng(seed)
    enc = nc.init_lstm_cell(bundle, "edu", rng, wv_dim, hidden)
    if zero:
        for t in bundle.tensors():
            t.data[:] = 0.0
    else:
        for t in bundle.tensors():
            t.data[:] = rng.uniform(-0.8, 0.8, size=t.data.shape)
    return enc, bundle


def test_zero_params_give_zero_embedding():
    enc, _ = make_encoder(2, 3, zero=True)
    wv = WordVectors(2, {"a": np.array([1.0, 2.0]), "b": np.array([-1.0, 0.5])})
    e, c = encode_edu(["a", "b", "a"], wv, enc)
    assert np.array_equal(e.data, np.zeros(3))
    assert np.array_equal(c.data, np.zeros(3))


def test_single_oov_token_equals_zero_input_step():
    enc, _ = make_encoder(2, 3, seed=5)
    wv = WordVectors(2, {})
    e, c = encode_edu(["unknown"], wv, enc)
    h2, c2 = nc.lstm_cell_step(nc.zeros(2), nc.zeros(3), nc.zeros(3), enc)
    assert np.array_equal(e.data, h2.data)
    assert np.array_equal(c.data, c2.data)


def test_three_tokens_match_scalar_oracle():
    enc, _ = make_encoder(1, 1, seed=7)
    w = {g: (float(enc.w[g].data[0, 0]),
             float(enc.w[g].data[0, 1]),
             float(enc.b[g].data[0]))
         for g in ("i", "f", "o", "u")}
    values = {"x": 0.4, "y": -1.1, "z": 0.9}
    wv = WordVectors(1, {k: np.array([v]) for k, v in values.items()})
    e, c = encode_edu(["x", "y", "z"], wv, enc)
    want_h, want_c = oracles.scalar_lstm_run([values[t] for t in "xyz"], w)
    assert abs(e.data[0] - want_h) < 1e-12
    assert abs(c.data[0] - want_c) < 1e-12


def test_output_depends_on_every_token():
    enc, _ = make_encoder(2, 3, seed=9)
    base = WordVectors(2, {"a": np.array([0.5, -0.5]), "b": np.array([1.0, 0.3]),
                           "c": np.array([-0.2, 0.8])})
    e0, _ = encode_edu(["a", "b", "c"], base, enc)
    for tok in ("a", "b", "c"):
        perturbed = WordVectors(2, dict(base.vectors))
        perturbed.vectors[tok] = base.vectors[tok] + np.array([0.05, -0.02])
        e1, _ = encode_edu(["a", "b", "c"], perturbed, enc)
        assert not np.array_equal(e0.data, e1.data)


def test_empty_tokens_rejected():
    enc, _ = make_encoder(2, 3)
    with pytest.raises(ValidationError):
        encode_edu([], WordVectors(2, {}), enc)


def test_dimension_mismatch_rejected():
    enc, _ = make_encoder(2, 3)
    with pytest.raises(DimensionError):
        encode_edu(["a"], WordVectors(4, {}), enc)
