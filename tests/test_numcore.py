from __future__ import annotations

import json
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from rstcoh import cli, numcore as nc, trainer
from rstcoh.errors import DataError

import oracles

FULL = "t,ns,r,e"


def zero_cell(input_size, hidden_size, bundle=None):
    bundle = bundle or nc.ParameterBundle()
    cell = nc.init_lstm_cell(bundle, "cell", np.random.default_rng(0),
                             input_size, hidden_size)
    for _, t in bundle.items():
        t.data[:] = 0.0
    return cell, bundle


def random_cell(input_size, hidden_size, seed=0):
    bundle = nc.ParameterBundle()
    rng = np.random.default_rng(seed)
    cell = nc.init_lstm_cell(bundle, "cell", rng, input_size, hidden_size)
    for _, t in bundle.items():
        t.data[:] = rng.uniform(-0.8, 0.8, size=t.data.shape)
    return cell, bundle


class TestLstmCell:
    def test_zero_params_zero_cell_is_fixpoint(self):
        cell, _ = zero_cell(3, 4)
        h, c = oracles.lstm_cell_step(nc.zeros(3), nc.zeros(4), nc.zeros(4), cell)
        assert np.array_equal(h.data, np.zeros(4))
        assert np.array_equal(c.data, np.zeros(4))

    def test_zero_params_ones_cell(self):
        # gates at sigma(0)=0.5, candidate tanh(0)=0: c' = 0.5*c, h' = 0.5*tanh(0.5)
        cell, _ = zero_cell(3, 4)
        h, c = oracles.lstm_cell_step(nc.zeros(3), nc.zeros(4), nc.constant(np.ones(4)), cell)
        assert c.data == pytest.approx([0.5] * 4, abs=1e-15)
        assert h.data == pytest.approx([0.5 * math.tanh(0.5)] * 4, abs=1e-15)

    def test_matches_scalar_oracle(self):
        cell, _ = random_cell(1, 1, seed=3)
        w = oracles.scalar_gates(cell)
        rng = np.random.default_rng(4)
        for _ in range(20):
            x, h, c = rng.uniform(-2, 2, size=3)
            got_h, got_c = oracles.lstm_cell_step(nc.constant([x]), nc.constant([h]),
                                                  nc.constant([c]), cell)
            want_h, want_c = oracles.scalar_lstm_step(x, h, c, w)
            assert abs(got_h.data[0] - want_h) < 1e-12
            assert abs(got_c.data[0] - want_c) < 1e-12

    def test_dimension_mismatch(self):
        cell, _ = zero_cell(3, 4)
        with pytest.raises(DataError):
            oracles.lstm_cell_step(nc.zeros(2), nc.zeros(4), nc.zeros(4), cell)
        with pytest.raises(DataError):
            oracles.lstm_cell_step(nc.zeros(3), nc.zeros(5), nc.zeros(4), cell)

    @given(st.lists(st.lists(st.floats(-5, 5), min_size=2, max_size=2),
                    min_size=1, max_size=8))
    def test_zero_fixpoint_for_any_sequence(self, seq):
        cell, _ = zero_cell(2, 3)
        h, c = oracles.run_lstm([nc.constant(x) for x in seq], cell)
        assert np.array_equal(h.data, np.zeros(3))
        assert np.array_equal(c.data, np.zeros(3))

    def test_forward_determinism(self):
        cell, _ = random_cell(2, 3, seed=9)
        xs = [nc.constant([0.3, -0.7]), nc.constant([1.1, 0.2])]
        h1, c1 = oracles.run_lstm(xs, cell)
        h2, c2 = oracles.run_lstm(xs, cell)
        assert np.array_equal(h1.data, h2.data)
        assert np.array_equal(c1.data, c2.data)


KERNEL_RTOL = 1e-12


def assert_kernel_close(got, want):
    np.testing.assert_allclose(got, want, rtol=KERNEL_RTOL, atol=0.0)


def random_tensor(rng, shape, bundle=None, name=None):
    values = rng.uniform(-1.5, 1.5, size=shape)
    return bundle.add(name, values) if bundle is not None else nc.constant(values)


LENGTHS = [(3,), (1,), (4, 1, 4, 2, 3), (2, 2, 2), (1, 3)]


class TestFusedCellAgainstComposedOps:
    """The fused cell and the packed LSTM kernel against the same cell built
    from primitive ops: forward values, every parameter gradient and the
    input gradients."""

    @staticmethod
    def grads(bundle):
        return {name: t.grad.copy() for name, t in bundle.items()}

    @staticmethod
    def assert_grads_close(cell, got, want):
        """Gradients of the fused run against the composed run's, the cell's
        row blocks against the per-gate leaves and every other entry as is."""
        for g, (dw, db) in oracles.gate_blocks(cell, got["cell.w"], got["cell.b"]).items():
            assert_kernel_close(dw, want[f"ref.w_{g}"])
            assert_kernel_close(db, want[f"ref.b_{g}"])
        for name in got:
            if not name.startswith(("cell.", "ref.")):
                assert_kernel_close(got[name], want[name])

    @pytest.mark.parametrize("children", [1, 2])
    def test_cell_step(self, children):
        rng = np.random.default_rng(children)
        bundle = nc.ParameterBundle()
        cell = nc.init_cell(bundle, "cell", rng, 7, 5, children)
        for _, t in bundle.items():
            t.data[:] = rng.uniform(-0.8, 0.8, size=t.data.shape)
        gates = oracles.gate_leaves(bundle, cell)
        z = random_tensor(rng, 7, bundle, "z")
        child_cs = [random_tensor(rng, 5, bundle, f"c{k}") for k in range(children)]
        weights = [nc.constant(rng.uniform(-1, 1, size=5)) for _ in range(2)]
        results = []
        for step, p in ((oracles.cell_step, cell), (oracles.composed_cell_step, gates)):
            with nc.record():
                h, c = step(z, child_cs, p)
                loss = oracles.add(oracles.vsum(oracles.mul(h, weights[0])),
                                   oracles.vsum(oracles.mul(c, weights[1])))
                nc.backward(loss, bundle)
            results.append((h.data, c.data, self.grads(bundle)))
        (h, c, grads), (want_h, want_c, want_grads) = results
        assert_kernel_close(h, want_h)
        assert_kernel_close(c, want_c)
        self.assert_grads_close(cell, grads, want_grads)

    @pytest.mark.parametrize("lengths", LENGTHS)
    def test_packed_lstms(self, lengths):
        self.check_packed_lstms(lengths, x_needs_grad=True)

    @pytest.mark.parametrize("lengths", LENGTHS)
    def test_packed_lstms_on_constant_inputs(self, lengths):
        self.check_packed_lstms(lengths, x_needs_grad=False)

    def check_packed_lstms(self, lengths, x_needs_grad):
        rng = np.random.default_rng(sum(lengths))
        bundle = nc.ParameterBundle()
        cell = nc.init_lstm_cell(bundle, "cell", rng, 3, 4)
        for _, t in bundle.items():
            t.data[:] = rng.uniform(-0.8, 0.8, size=t.data.shape)
        gates = oracles.gate_leaves(bundle, cell)
        # the sequences' inputs, one row per step, need a gradient or not
        x = random_tensor(rng, (sum(lengths), 3), bundle if x_needs_grad else None, "x")
        starts = np.cumsum((0,) + lengths)
        # each sequence feeds the loss through h, c or both
        weights = [(rng.uniform(-1, 1, size=4) if k % 3 != 1 else np.zeros(4),
                    rng.uniform(-1, 1, size=4) if k % 3 != 0 else np.zeros(4))
                   for k in range(len(lengths))]
        wh = nc.constant([w for w, _ in weights])
        wc = nc.constant([w for _, w in weights])

        def run(loss):
            nc.backward(loss, bundle)
            return self.grads(bundle)

        with nc.record():
            h, c = nc.run_lstms(x, lengths, cell)
            assert len(nc._tape) == 1
            got_grads = run(oracles.add(oracles.vsum(oracles.mul(h, wh)),
                                        oracles.vsum(oracles.mul(c, wc))))
        with nc.record():
            want = [oracles.composed_run_lstm(
                        [oracles.row(x, i) for i in range(starts[k], starts[k + 1])],
                        gates)
                    for k in range(len(lengths))]
            terms = [oracles.vsum(oracles.mul(s, nc.constant(w)))
                     for (h_k, c_k), (w_h, w_c) in zip(want, weights)
                     for s, w in ((h_k, w_h), (c_k, w_c))]
            loss = terms[0]
            for term in terms[1:]:
                loss = oracles.add(loss, term)
            want_grads = run(loss)
        for k, (want_h, want_c) in enumerate(want):
            assert_kernel_close(h.data[k], want_h.data)
            assert_kernel_close(c.data[k], want_c.data)
        self.assert_grads_close(cell, got_grads, want_grads)

    def test_sequence_of_length_zero_ends_in_zero_state(self):
        cell, _ = random_cell(2, 3, seed=2)
        h, c = nc.run_lstms(nc.constant([[0.5, -0.5]]), [0, 1], cell)
        assert np.array_equal(h.data[0], np.zeros(3))
        assert np.array_equal(c.data[0], np.zeros(3))
        assert not np.array_equal(h.data[1], np.zeros(3))

    def test_input_rows_must_match_lengths(self):
        cell, _ = random_cell(2, 3, seed=2)
        with pytest.raises(DataError):
            nc.run_lstms(nc.constant([[0.5, -0.5]]), [2], cell)
        with pytest.raises(DataError):
            nc.run_lstms(nc.constant([[0.5, -0.5, 0.1]]), [1], cell)


class TestFusedHeadAndLoss:
    """softmax_head and nll against the matvec/add/softmax and
    pick/clamp_min/log/neg chains they replace: values and every gradient.
    The fused pair runs on a one-row batch, the composed chain on its row."""

    @staticmethod
    def run_both(bundle, w, b, x, label, floor=1e-12):
        results = []
        with nc.record():
            dist = nc.softmax_head(w, b, [x])
            loss = nc.nll(dist, [label], floor)
            nc.backward(loss, bundle)
            entries = len(nc._tape)
        results.append((dist.data[0], loss.data, entries,
                        {name: t.grad.copy() for name, t in bundle.items()}))
        with nc.record():
            dist = oracles.composed_softmax_head(w, b, oracles.row(x, 0))
            loss = oracles.composed_nll(dist, label, floor)
            nc.backward(loss, bundle)
            entries = len(nc._tape)
        results.append((dist.data, loss.data, entries,
                        {name: t.grad.copy() for name, t in bundle.items()}))
        return results

    @pytest.mark.parametrize("label", [0, 1, 2])
    def test_matches_composed_chain(self, label):
        rng = np.random.default_rng(label)
        bundle = nc.ParameterBundle()
        w = random_tensor(rng, (3, 5), bundle, "w")
        b = random_tensor(rng, 3, bundle, "b")
        x = random_tensor(rng, (1, 5), bundle, "x")
        (dist, loss, entries, grads), (want_dist, want_loss, _, want_grads) = \
            self.run_both(bundle, w, b, x, label)
        assert entries == 2
        assert_kernel_close(dist, want_dist)
        assert_kernel_close(loss, want_loss)
        for name in grads:
            assert np.any(grads[name] != 0.0)
            assert_kernel_close(grads[name], want_grads[name])

    def test_rows_are_independent_and_losses_add(self):
        rng = np.random.default_rng(7)
        bundle = nc.ParameterBundle()
        w = random_tensor(rng, (3, 5), bundle, "w")
        b = random_tensor(rng, 3, bundle, "b")
        xs = rng.uniform(-1.5, 1.5, size=(4, 5))
        labels = [2, 0, 1, 2]
        with nc.record():
            loss = nc.nll(nc.softmax_head(w, b, [nc.constant(xs)]), labels, 1e-12)
            nc.backward(loss, bundle)
        got = loss.item(), w.grad.copy(), b.grad.copy()
        want_loss = 0.0
        want_w, want_b = np.zeros_like(w.data), np.zeros_like(b.data)
        for x_k, label in zip(xs, labels):
            with nc.record():
                loss = nc.nll(nc.softmax_head(w, b, [nc.constant([x_k])]), [label],
                              1e-12)
                nc.backward(loss, bundle)
            want_loss += loss.item()
            want_w += w.grad
            want_b += b.grad
        assert got[0] == pytest.approx(want_loss, rel=KERNEL_RTOL)
        assert_kernel_close(got[1], want_w)
        assert_kernel_close(got[2], want_b)

    def test_parts_give_the_bits_of_one_joined_input(self):
        # the head over the encoders' outputs as they come equals, bit for
        # bit, the head over their concat, in one tape entry instead of two
        rng = np.random.default_rng(9)
        bundle = nc.ParameterBundle()
        w = random_tensor(rng, (3, 5), bundle, "w")
        b = random_tensor(rng, 3, bundle, "b")
        parts = [random_tensor(rng, (2, 3), bundle, "x0"),
                 random_tensor(rng, (2, 2), bundle, "x1")]
        results = []
        for head in (lambda: nc.softmax_head(w, b, parts),
                     lambda: nc.softmax_head(w, b, [oracles.concat(parts)])):
            with nc.record():
                dist = head()
                loss = nc.nll(dist, [2, 0], 1e-12)
                nc.backward(loss, bundle)
                entries = len(nc._tape)
            results.append((dist.data, entries,
                            {name: t.grad.copy() for name, t in bundle.items()}))
        (dist, entries, grads), (want_dist, want_entries, want_grads) = results
        assert (entries, want_entries) == (2, 3)
        assert np.array_equal(dist, want_dist)
        for name in grads:
            assert np.any(grads[name] != 0.0), name
            assert np.array_equal(grads[name], want_grads[name]), name

    def test_probability_below_floor_has_zero_gradient(self):
        bundle = nc.ParameterBundle()
        w = bundle.add("w", np.full((3, 2), 0.1))
        b = bundle.add("b", [60.0, 0.0, 0.0])  # p[1] ~ exp(-60) < 1e-12
        x = bundle.add("x", [[0.5, -0.5]])
        (dist, loss, _, grads), (_, want_loss, _, want_grads) = \
            self.run_both(bundle, w, b, x, 1)
        assert dist[1] < 1e-12
        assert loss == want_loss == -math.log(1e-12)
        for name in grads:
            assert np.array_equal(grads[name], np.zeros_like(grads[name]))
            assert np.array_equal(want_grads[name], grads[name])

    def test_nan_passes_through(self):
        bundle = nc.ParameterBundle()
        dist = bundle.add("dist", [[math.nan, 0.5, 0.5]])
        got = []
        for loss_fn, label in ((nc.nll, [0]), (oracles.composed_nll, (0, 0))):
            with nc.record():
                loss = loss_fn(dist, label, 1e-12)
                nc.backward(loss, bundle)
            got.append((loss.data, dist.grad[0].copy()))
        (loss, grad), (want_loss, want_grad) = got
        assert math.isnan(loss) and math.isnan(want_loss)
        assert math.isnan(grad[0]) and math.isnan(want_grad[0])
        assert np.array_equal(grad[1:], want_grad[1:])


class TestBackward:
    def test_constant_loss_zero_grads(self):
        bundle = nc.ParameterBundle()
        w = bundle.add("w", [1.0, 2.0])
        loss = nc.constant(3.5)
        with nc.record():
            nc.backward(loss, bundle)
        assert np.array_equal(w.grad, np.zeros(2))

    def test_linear_loss_exact(self):
        bundle = nc.ParameterBundle()
        w = bundle.add("w", [1.0, -2.0, 0.5])
        x = nc.constant([4.0, 5.0, 6.0])
        with nc.record():
            nc.backward(oracles.vsum(oracles.mul(w, x)), bundle)
        assert np.array_equal(w.grad, x.data)

    def test_non_scalar_loss_raises(self):
        bundle = nc.ParameterBundle()
        w = bundle.add("w", [1.0, 2.0])
        with nc.record(), pytest.raises(DataError):
            nc.backward(oracles.mul(w, w), bundle)

    def test_non_participating_param_gets_zero(self):
        bundle = nc.ParameterBundle()
        w = bundle.add("w", [1.0, 2.0])
        unused = bundle.add("unused", [[3.0, 1.0]])
        with nc.record():
            nc.backward(oracles.vsum(w), bundle)
        assert np.array_equal(w.grad, np.ones(2))
        assert np.array_equal(unused.grad, np.zeros((1, 2)))

    def test_reused_node_accumulates(self):
        bundle = nc.ParameterBundle()
        w = bundle.add("w", [2.0])
        with nc.record():
            y = oracles.mul(w, w)  # w^2 -> dy/dw = 2w = 4
            loss = oracles.vsum(oracles.add(y, y))  # 2 w^2 -> 4w = 8
            nc.backward(loss, bundle)
        assert w.grad == pytest.approx([8.0], abs=1e-15)

    def test_op_grads_match_finite_differences(self, rng):
        bundle = nc.ParameterBundle()
        w = bundle.add("w", rng.uniform(-1, 1, size=(3, 5)))
        v = bundle.add("v", rng.uniform(-1, 1, size=5))
        m = bundle.add("m", rng.uniform(-1, 1, size=(4, 3)))

        def loss_fn():
            z = oracles.concat((oracles.tanh(oracles.matvec(nc.Tensor(w.data, True),
                                                       nc.Tensor(v.data, True))),
                           oracles.row(nc.Tensor(m.data, True), 2)))
            p = oracles.softmax(z)
            return float(oracles.composed_nll(p, 1, 1e-12).data)

        with nc.record():
            z = oracles.concat((oracles.tanh(oracles.matvec(w, v)), oracles.row(m, 2)))
            p = oracles.softmax(z)
            loss = oracles.composed_nll(p, 1, 1e-12)
            nc.backward(loss, bundle)
        analytic = {name: t.grad for name, t in bundle.items()}
        numeric = oracles.finite_difference_gradients(loss_fn, bundle)
        assert not oracles.gradient_mismatches(analytic, numeric)

    def test_lstm_chain_grads_match_finite_differences(self):
        cell, bundle = random_cell(2, 3, seed=11)
        rng = np.random.default_rng(12)
        xs = [rng.uniform(-1, 1, size=2) for _ in range(4)]

        def forward() -> nc.Tensor:
            h, c = oracles.run_lstm([nc.constant(x) for x in xs], cell)
            p = oracles.softmax(h)
            return oracles.composed_nll(p, 0, 1e-12)

        with nc.record():
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
        w.grad[...] = 0.1
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
            w.grad[...] = g
            nc.adam_step(bundle, state, t, 1e-3)
        want = oracles.scalar_adam_unroll(0.3, [g, g], 1e-3)
        assert abs(w.data[0] - want) < 1e-12

    def test_step_index_below_one_raises(self):
        bundle = nc.ParameterBundle()
        bundle.add("w", [0.0])
        bundle.zero_grads()
        state = nc.AdamState(bundle)
        with pytest.raises(DataError):
            nc.adam_step(bundle, state, 0, 1e-3)


class TestBundleAndCheckpoint:
    def test_duplicate_name_rejected(self):
        bundle = nc.ParameterBundle()
        bundle.add("w", [1.0])
        with pytest.raises(DataError):
            bundle.add("w", [2.0])

    def test_ordering_is_stable(self):
        def build():
            b = nc.ParameterBundle()
            b.add("b", [1.0])
            b.add("a", [2.0])
            return [name for name, _ in b.items()]

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
        with pytest.raises(DataError):
            nc.load_checkpoint(path)


class TestFlatBundle:
    """Every tensor's data and grad are views into the bundle's two buffers."""

    @staticmethod
    def assert_views(bundle):
        offset = 0
        for _, t in bundle.items():
            assert np.shares_memory(t.data, bundle.data)
            assert np.shares_memory(t.grad, bundle.grad)
            end = offset + t.data.size
            assert np.array_equal(t.data.ravel(), bundle.data[offset:end])
            offset = end
        assert offset == bundle.data.size == bundle.grad.size

    def test_views_after_add(self):
        bundle = nc.ParameterBundle()
        w = bundle.add("w", [[1.0, 2.0], [3.0, 4.0]])
        w.data[0, 0] = 9.0
        b = bundle.add("b", [5.0])
        self.assert_views(bundle)
        assert np.array_equal(bundle.data, [9.0, 2.0, 3.0, 4.0, 5.0])
        b.grad[...] = 7.0
        assert bundle.grad[-1] == 7.0
        bundle.zero_grads()
        assert np.array_equal(w.grad, np.zeros((2, 2)))

    def test_views_after_load_state(self):
        bundle = nc.ParameterBundle()
        bundle.add("w", np.zeros((2, 3)))
        bundle.add("b", np.zeros(3))
        bundle.load_state({"w": np.ones((2, 3)), "b": [1.0, 2.0, 3.0]})
        self.assert_views(bundle)
        assert np.array_equal(bundle.data, [1.0] * 6 + [1.0, 2.0, 3.0])

    def test_load_state_rejects_names_the_bundle_lacks(self):
        bundle = nc.ParameterBundle()
        bundle.add("w", np.zeros(2))
        with pytest.raises(DataError):
            bundle.load_state({"w": np.ones(2), "edu.w": np.ones(2)})
        assert np.array_equal(bundle["w"].data, np.zeros(2))

    def test_adam_state_of_another_bundle_rejected(self):
        bundle = nc.ParameterBundle()
        bundle.add("w", np.zeros(2))
        other = nc.ParameterBundle()
        other.add("w", np.zeros(3))
        with pytest.raises(DataError):
            nc.adam_step(bundle, nc.AdamState(other), 1, 1e-3)

    def test_views_after_training_and_checkpoint_loading(self, tmp_path, tiny_split,
                                                        tiny_wv):
        cfg = trainer.TrainConfig(learning_rate=1e-3, epochs=1, hidden_size=4,
                                  relation_dim=3, features=FULL)
        model, _ = trainer.train(cfg, tiny_split, tiny_wv)
        self.assert_views(model.bundle)
        assert np.any(model.bundle.grad != 0.0)
        path = tmp_path / "checkpoint.json"
        nc.save_checkpoint(path, model.bundle,
                           cli._checkpoint_meta(cfg, model, tiny_wv, cfg.seed))
        loaded, _ = cli.load_model_from_checkpoint(path)
        self.assert_views(loaded.bundle)
        assert np.array_equal(loaded.bundle.data, model.bundle.data)
        loaded.bundle.grad[...] = 1.0
        nc.adam_step(loaded.bundle, nc.AdamState(loaded.bundle), 1, 1e-3)
        for name, t in loaded.bundle.items():
            assert np.all(t.data < model.bundle[name].data), name
        self.assert_views(loaded.bundle)


class TestOps:
    def test_softmax_normalizes(self, rng):
        for _ in range(10):
            p = nc.softmax_head(nc.constant(np.eye(3)), nc.zeros(3),
                                [nc.constant(rng.uniform(-30, 30, size=(4, 3)))])
            assert np.all(np.abs(p.data.sum(axis=1) - 1.0) <= 1e-12)
            assert (p.data >= 0).all()

    def test_add_shape_mismatch(self):
        with pytest.raises(DataError):
            nc.softmax_head(nc.zeros(3, 2), nc.zeros(2), [nc.zeros(1, 2)])
        with pytest.raises(DataError):
            nc.softmax_head(nc.zeros(3, 2), nc.zeros(3), [nc.zeros(1, 3)])
        with pytest.raises(DataError):
            nc.softmax_head(nc.zeros(3, 2), nc.zeros(3), [nc.zeros(2)])
        with pytest.raises(DataError):
            nc.softmax_head(nc.zeros(3, 2), nc.zeros(3),
                            [nc.zeros(1, 1), nc.zeros(2, 1)])
        with pytest.raises(DataError):
            nc.softmax_head(nc.zeros(3, 2), nc.zeros(3), [])

    def test_concat_joins_last_axis(self):
        bundle = nc.ParameterBundle()
        a = bundle.add("a", [[1.0, 2.0], [3.0, 4.0]])
        b = bundle.add("b", [[5.0], [6.0]])
        with nc.record():
            out = oracles.concat((a, b))
            nc.backward(oracles.vsum(oracles.mul(out, nc.constant(
                [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]))), bundle)
        assert np.array_equal(out.data, [[1.0, 2.0, 5.0], [3.0, 4.0, 6.0]])
        assert np.array_equal(a.grad, [[1.0, 2.0], [4.0, 5.0]])
        assert np.array_equal(b.grad, [[3.0], [6.0]])
        with pytest.raises(DataError):
            oracles.concat((a, nc.zeros(3, 1)))

    def test_ops_outside_record_build_no_graph(self):
        bundle = nc.ParameterBundle()
        w = bundle.add("w", [1.0, 2.0])
        out = oracles.vsum(oracles.mul(w, w))
        assert not out.requires_grad
        with pytest.raises(DataError):
            nc.backward(out, bundle)

    def test_record_block_left_by_exception_stops_recording(self):
        bundle = nc.ParameterBundle()
        w = bundle.add("w", [1.0, 2.0])
        with pytest.raises(RuntimeError), nc.record():
            assert oracles.mul(w, w).requires_grad
            raise RuntimeError("diverged")
        assert not oracles.vsum(oracles.mul(w, w)).requires_grad
