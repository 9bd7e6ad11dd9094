from __future__ import annotations

import json
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from rstcoh import numcore as nc
from rstcoh.errors import DimensionError, ShapeError, StateError

import oracles


def zero_cell(input_size, hidden_size, bundle=None):
    bundle = bundle or nc.ParameterBundle()
    cell = nc.init_lstm_cell(bundle, "cell", np.random.default_rng(0),
                             input_size, hidden_size)
    for t in bundle.tensors():
        t.data[:] = 0.0
    return cell, bundle


def random_cell(input_size, hidden_size, seed=0):
    bundle = nc.ParameterBundle()
    rng = np.random.default_rng(seed)
    cell = nc.init_lstm_cell(bundle, "cell", rng, input_size, hidden_size)
    for t in bundle.tensors():
        t.data[:] = rng.uniform(-0.8, 0.8, size=t.data.shape)
    return cell, bundle


class TestLstmCell:
    def test_zero_params_zero_cell_is_fixpoint(self):
        cell, _ = zero_cell(3, 4)
        h, c = nc.lstm_cell_step(nc.zeros(3), nc.zeros(4), nc.zeros(4), cell)
        assert np.array_equal(h.data, np.zeros(4))
        assert np.array_equal(c.data, np.zeros(4))

    def test_zero_params_ones_cell(self):
        # gates at sigma(0)=0.5, candidate tanh(0)=0: c' = 0.5*c, h' = 0.5*tanh(0.5)
        cell, _ = zero_cell(3, 4)
        h, c = nc.lstm_cell_step(nc.zeros(3), nc.zeros(4), nc.constant(np.ones(4)), cell)
        assert c.data == pytest.approx([0.5] * 4, abs=1e-15)
        assert h.data == pytest.approx([0.5 * math.tanh(0.5)] * 4, abs=1e-15)

    def test_matches_scalar_oracle(self):
        cell, _ = random_cell(1, 1, seed=3)
        w = {g: (float(cell.w[g].data[0, 0]),
                 float(cell.w[g].data[0, 1]),
                 float(cell.b[g].data[0]))
             for g in ("i", "f", "o", "u")}
        rng = np.random.default_rng(4)
        for _ in range(20):
            x, h, c = rng.uniform(-2, 2, size=3)
            got_h, got_c = nc.lstm_cell_step(nc.constant([x]), nc.constant([h]),
                                             nc.constant([c]), cell)
            want_h, want_c = oracles.scalar_lstm_step(x, h, c, w)
            assert abs(got_h.data[0] - want_h) < 1e-12
            assert abs(got_c.data[0] - want_c) < 1e-12

    def test_dimension_mismatch(self):
        cell, _ = zero_cell(3, 4)
        with pytest.raises(DimensionError):
            nc.lstm_cell_step(nc.zeros(2), nc.zeros(4), nc.zeros(4), cell)
        with pytest.raises(DimensionError):
            nc.lstm_cell_step(nc.zeros(3), nc.zeros(5), nc.zeros(4), cell)

    @given(st.lists(st.lists(st.floats(-5, 5), min_size=2, max_size=2),
                    min_size=1, max_size=8))
    def test_zero_fixpoint_for_any_sequence(self, seq):
        cell, _ = zero_cell(2, 3)
        h, c = nc.run_lstm([nc.constant(x) for x in seq], cell)
        assert np.array_equal(h.data, np.zeros(3))
        assert np.array_equal(c.data, np.zeros(3))

    def test_forward_determinism(self):
        cell, _ = random_cell(2, 3, seed=9)
        xs = [nc.constant([0.3, -0.7]), nc.constant([1.1, 0.2])]
        h1, c1 = nc.run_lstm(xs, cell)
        h2, c2 = nc.run_lstm(xs, cell)
        assert np.array_equal(h1.data, h2.data)
        assert np.array_equal(c1.data, c2.data)


class TestBackward:
    def test_constant_loss_zero_grads(self):
        bundle = nc.ParameterBundle()
        w = bundle.add("w", [1.0, 2.0])
        loss = nc.constant(3.5)
        nc.backward(loss, bundle)
        assert np.array_equal(w.grad, np.zeros(2))

    def test_linear_loss_exact(self):
        bundle = nc.ParameterBundle()
        w = bundle.add("w", [1.0, -2.0, 0.5])
        x = nc.constant([4.0, 5.0, 6.0])
        nc.backward(nc.vsum(nc.mul(w, x)), bundle)
        assert np.array_equal(w.grad, x.data)

    def test_non_scalar_loss_raises(self):
        bundle = nc.ParameterBundle()
        w = bundle.add("w", [1.0, 2.0])
        with pytest.raises(ShapeError):
            nc.backward(nc.mul(w, w), bundle)

    def test_non_participating_param_gets_zero(self):
        bundle = nc.ParameterBundle()
        w = bundle.add("w", [1.0, 2.0])
        unused = bundle.add("unused", [[3.0, 1.0]])
        nc.backward(nc.vsum(w), bundle)
        assert np.array_equal(w.grad, np.ones(2))
        assert np.array_equal(unused.grad, np.zeros((1, 2)))

    def test_reused_node_accumulates(self):
        bundle = nc.ParameterBundle()
        w = bundle.add("w", [2.0])
        y = nc.mul(w, w)  # w^2 -> dy/dw = 2w = 4
        loss = nc.vsum(nc.add(y, y))  # 2 w^2 -> 4w = 8
        nc.backward(loss, bundle)
        assert w.grad == pytest.approx([8.0], abs=1e-15)

    def test_op_grads_match_finite_differences(self, rng):
        bundle = nc.ParameterBundle()
        w = bundle.add("w", rng.uniform(-1, 1, size=(3, 5)))
        v = bundle.add("v", rng.uniform(-1, 1, size=5))
        m = bundle.add("m", rng.uniform(-1, 1, size=(4, 3)))

        def loss_fn():
            z = nc.concat((nc.tanh(nc.matvec(nc.Tensor(w.data, True), nc.Tensor(v.data, True))),
                           nc.row(nc.Tensor(m.data, True), 2)))
            p = nc.softmax(z)
            return float(nc.neg(nc.log(nc.clamp_min(nc.pick(p, 1), 1e-12))).data)

        z = nc.concat((nc.tanh(nc.matvec(w, v)), nc.row(m, 2)))
        p = nc.softmax(z)
        loss = nc.neg(nc.log(nc.clamp_min(nc.pick(p, 1), 1e-12)))
        nc.backward(loss, bundle)
        analytic = {name: t.grad for name, t in bundle.items()}
        numeric = oracles.finite_difference_gradients(loss_fn, bundle)
        assert not oracles.gradient_mismatches(analytic, numeric)

    def test_lstm_chain_grads_match_finite_differences(self):
        cell, bundle = random_cell(2, 3, seed=11)
        rng = np.random.default_rng(12)
        xs = [rng.uniform(-1, 1, size=2) for _ in range(4)]

        def forward() -> nc.Tensor:
            h, c = nc.run_lstm([nc.constant(x) for x in xs], cell)
            p = nc.softmax(h)
            return nc.neg(nc.log(nc.clamp_min(nc.pick(p, 0), 1e-12)))

        loss = forward()
        nc.backward(loss, bundle)
        analytic = {name: t.grad for name, t in bundle.items()}
        numeric = oracles.finite_difference_gradients(lambda: float(forward().data),
                                                      bundle)
        assert not oracles.gradient_mismatches(analytic, numeric)


class TestAdam:
    def test_zero_gradient_leaves_params_unchanged(self):
        bundle = nc.ParameterBundle()
        w = bundle.add("w", [1.0, -2.0])
        bundle.zero_grads()
        state = nc.AdamState(bundle)
        nc.adam_step(bundle, state, 1, 1e-2)
        assert np.array_equal(w.data, [1.0, -2.0])

    def test_first_step_magnitude_is_learning_rate(self):
        bundle = nc.ParameterBundle()
        w = bundle.add("w", [0.0])
        w.grad = np.array([0.1])
        state = nc.AdamState(bundle)
        nc.adam_step(bundle, state, 1, 1e-4)
        # first bias-corrected step is ~ lr * sign(g)
        assert w.data[0] == pytest.approx(-1e-4, rel=1e-6)

    def test_two_steps_match_hand_unroll(self):
        bundle = nc.ParameterBundle()
        w = bundle.add("w", [0.3])
        state = nc.AdamState(bundle)
        g = 0.25
        for t in (1, 2):
            w.grad = np.array([g])
            nc.adam_step(bundle, state, t, 1e-3)
        want = oracles.scalar_adam_unroll(0.3, [g, g], 1e-3)
        assert abs(w.data[0] - want) < 1e-12

    def test_step_index_below_one_raises(self):
        bundle = nc.ParameterBundle()
        bundle.add("w", [0.0])
        bundle.zero_grads()
        state = nc.AdamState(bundle)
        with pytest.raises(StateError):
            nc.adam_step(bundle, state, 0, 1e-3)


class TestBundleAndCheckpoint:
    def test_duplicate_name_rejected(self):
        bundle = nc.ParameterBundle()
        bundle.add("w", [1.0])
        with pytest.raises(StateError):
            bundle.add("w", [2.0])

    def test_ordering_is_stable(self):
        def build():
            b = nc.ParameterBundle()
            b.add("b", [1.0])
            b.add("a", [2.0])
            return b.names()

        assert build() == build() == ["b", "a"]

    def test_checkpoint_roundtrip_and_byte_stability(self, tmp_path, rng):
        bundle = nc.ParameterBundle()
        bundle.add("w", rng.uniform(-1, 1, size=(2, 3)))
        bundle.add("b", rng.uniform(-1, 1, size=3))
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        nc.save_checkpoint(p1, bundle, meta={"model": "rst"})
        nc.save_checkpoint(p2, bundle, meta={"model": "rst"})
        assert p1.read_bytes() == p2.read_bytes()
        meta, tensors = nc.load_checkpoint(p1)
        assert meta == {"model": "rst"}
        fresh = nc.ParameterBundle()
        fresh.add("w", np.zeros((2, 3)))
        fresh.add("b", np.zeros(3))
        fresh.load_state(tensors)
        assert np.array_equal(fresh["w"].data, bundle["w"].data)
        assert np.array_equal(fresh["b"].data, bundle["b"].data)

    def test_checkpoint_bad_version(self, tmp_path):
        path = tmp_path / "ckpt.json"
        path.write_text(json.dumps({"version": 99, "tensors": {}}))
        with pytest.raises(StateError):
            nc.load_checkpoint(path)


class TestOps:
    def test_softmax_normalizes(self, rng):
        for _ in range(10):
            p = nc.softmax(nc.constant(rng.uniform(-30, 30, size=3)))
            assert abs(p.data.sum() - 1.0) <= 1e-12
            assert (p.data >= 0).all()

    def test_add_shape_mismatch(self):
        with pytest.raises(DimensionError):
            nc.add(nc.zeros(2), nc.zeros(3))

    def test_no_grad_suppresses_graph(self):
        bundle = nc.ParameterBundle()
        w = bundle.add("w", [1.0, 2.0])
        with nc.no_grad():
            out = nc.vsum(nc.mul(w, w))
        assert not out.requires_grad
        nc.backward(out, bundle)
        assert np.array_equal(w.grad, np.zeros(2))
