"""Dense float64 tensors with reverse-mode differentiation, one N-ary gated
cell, a softmax head and loss, and the Adam optimizer.

The six functions that record on the tape are exactly what the models call:

* :func:`concat` and :func:`row` assemble a tree node's input from its
  children's states and its label embeddings;
* :func:`cell_step` applies the gated cell once, and :func:`run_lstms` runs
  many sequences through it as one packed batch;
* :func:`softmax_head` is the output layer, softmax(w @ x + b);
* :func:`nll` is the loss, -log(max(p[i], floor)).

The gated cell is the N-ary Tree-LSTM unit of Tai et al. (2015): gates i,
o, u and one forget gate per child, all read one input vector z. The
sequential LSTM is its 1-ary case over z = [x; h]; the discourse-tree node
is its 2-ary case. One row-batched implementation of the gates, with a
hand-written backward pass over plain arrays (Appleyard et al. 2016), serves
both cell entries. Each call of any of the six is one tape entry, so a tree
node's cell costs one entry and so does each packed LSTM pass over a
document's EDUs or sentences. A cell's parameters are one weight and one
bias tensor whose row blocks are its gates, the layout the kernel computes
with.

A :class:`ParameterBundle` keeps all of a model's parameters in one flat
``data`` vector and their gradients in one flat ``grad`` vector, in
registration order. Each named tensor's ``.data`` and ``.grad`` are views
into them, so :meth:`ParameterBundle.zero_grads` is one fill and
:func:`adam_step` is one vectorised update over flat moments (Kingma & Ba
2014). Parameter views must never be rebound, only written through.

Ops run eagerly. Inside ``with record():`` each op whose inputs need a
gradient appends its outputs and one closure to the current thread's tape,
a Wengert list (Griewank & Walther, *Evaluating Derivatives*), and
:func:`backward` replays that tape in reverse. The closure takes one
gradient per output (None for an output nothing used) and captures only the
op's inputs and arrays, never the outputs, so a recorded graph holds no
reference cycles and reference counting frees it. Outside a block ops record
nothing. Each thread has its own tape; parameter bundles are safe to share
across threads for concurrent forward passes.
"""

from __future__ import annotations

import json
import math
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import DataError

Array = np.ndarray


class _Recording(threading.local):
    # The class default is what a thread that never entered record() reads,
    # without a per-op AttributeError.
    tape: list | None = None


_rec = _Recording()


@contextmanager
def record() -> Iterator[None]:
    """Record ops on a fresh tape of the current thread for :func:`backward`."""
    prev = _rec.tape
    _rec.tape = []
    try:
        yield
    finally:
        _rec.tape = prev


class Tensor:
    """A float64 array node in the computation graph.

    ``data`` is the row-major value, ``grad`` (same shape) is filled by
    :func:`backward`. Leaf tensors created with ``requires_grad=True`` are
    trainable; everything else is either a constant or an op result.
    """

    __slots__ = ("data", "grad", "requires_grad")

    def __init__(self, data, requires_grad: bool = False):
        self.data: Array = np.asarray(data, dtype=np.float64)
        self.grad: Array | None = None
        self.requires_grad = requires_grad

    def item(self) -> float:
        return float(self.data)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


def constant(values) -> Tensor:
    return Tensor(values)


def zeros(*shape: int) -> Tensor:
    return Tensor(np.zeros(shape, dtype=np.float64))


def _accumulate(t: Tensor, g: Array) -> None:
    if t.grad is None:
        t.grad = np.array(g, dtype=np.float64, copy=True)
    else:
        t.grad += g


def _record(outs: tuple[Tensor, ...], parents: Iterable[Tensor], bw) -> None:
    """Put an op's outputs on the tape when some parent needs a grad.

    ``bw(*grads)`` takes one gradient per output, None where there is none,
    and pushes them to the parents.
    """
    tape = _rec.tape
    if tape is not None and any(p.requires_grad for p in parents):
        for out in outs:
            out.requires_grad = True
        tape.append((outs, bw))


def _result(data: Array, parents: tuple[Tensor, ...], bw) -> Tensor:
    """Wrap a single-output op's result and record it."""
    out = Tensor(data)
    _record((out,), parents, bw)
    return out


# --- ops --------------------------------------------------------------------


def concat(parts: Sequence[Tensor]) -> Tensor:
    for p in parts:
        if p.data.ndim != 1:
            raise DataError("concat expects 1-d tensors")
    parts = tuple(parts)
    sizes = [p.data.shape[0] for p in parts]

    def bw(g):
        off = 0
        for p, n in zip(parts, sizes):
            _accumulate(p, g[off:off + n])
            off += n

    return _result(np.concatenate([p.data for p in parts]), parts, bw)


def row(m: Tensor, i: int) -> Tensor:
    if m.data.ndim != 2:
        raise DataError("row expects a 2-d tensor")

    def bw(g):
        gm = np.zeros_like(m.data)
        gm[i] = g
        _accumulate(m, gm)

    return _result(m.data[i].copy(), (m,), bw)


def softmax_head(w: Tensor, b: Tensor, x: Tensor) -> Tensor:
    """softmax(w @ x + b) as one tape entry: the classifiers' output layer."""
    if w.data.ndim != 2 or x.data.shape != w.data.shape[1:] \
            or b.data.shape != w.data.shape[:1]:
        raise DataError(
            f"softmax_head: {w.data.shape} @ {x.data.shape} + {b.data.shape}")
    logits = w.data @ x.data + b.data
    e = np.exp(logits - logits.max())
    p = e / e.sum()

    def bw(g):
        g_logits = p * (g - np.dot(g, p))
        _accumulate(w, np.outer(g_logits, x.data))
        _accumulate(b, g_logits)
        _accumulate(x, w.data.T @ g_logits)

    return _result(p, (w, b, x), bw)


def nll(dist: Tensor, i: int, floor: float) -> Tensor:
    """-log(max(dist[i], floor)) as one tape entry.

    The gradient is zero where the probability is below the floor. The
    comparison is written so that NaN is not floored away but passes
    through.
    """
    if dist.data.ndim != 1:
        raise DataError("nll expects a 1-d distribution")
    keep = ~(dist.data[i] < floor)
    p = np.where(keep, dist.data[i], floor)

    def bw(g):
        g_dist = np.zeros_like(dist.data)
        g_dist[i] = -g / p * keep
        _accumulate(dist, g_dist)

    return _result(-np.log(p), (dist,), bw)


# --- backward pass ----------------------------------------------------------


def backward(loss: Tensor, params: "ParameterBundle") -> None:
    """Fill ``t.grad`` with d(loss)/dt for every tensor in ``params``.

    Replays the tape of the enclosing :func:`record` block in reverse.
    Parameters that do not participate in ``loss`` end up with zero
    gradients.
    """
    tape = _rec.tape
    if tape is None:
        raise DataError("backward needs the ops recorded inside a record() block")
    if loss.data.shape != ():
        raise DataError(f"loss must be scalar, got shape {loss.data.shape}")
    params.zero_grads()
    if not loss.requires_grad:
        return
    loss.grad = np.ones((), dtype=np.float64)
    for outs, bw in reversed(tape):
        grads = [out.grad for out in outs]
        if any(g is not None for g in grads):
            bw(*grads)


# --- parameters -------------------------------------------------------------


class ParameterBundle:
    """Ordered collection of named trainable tensors, stored flat.

    Each tensor's ``.data`` and ``.grad`` are views into the fp64 vectors
    ``data`` and ``grad``. Write through them (``t.data[...] = v``); a
    rebound view no longer reaches the buffer. :meth:`add` re-points every
    view, so arrays taken from a tensor before a later ``add`` are stale.
    """

    def __init__(self):
        self._entries: dict[str, Tensor] = {}
        self.data = np.zeros(0)
        self.grad = np.zeros(0)

    def add(self, name: str, values) -> Tensor:
        if name in self._entries:
            raise DataError(f"duplicate parameter name {name!r}")
        t = Tensor(values, requires_grad=True)
        self._entries[name] = t
        self.data = np.concatenate((self.data, t.data.ravel()))
        self.grad = np.concatenate((self.grad, np.zeros(t.data.size)))
        off = 0
        for t_k in self._entries.values():
            shape = t_k.data.shape
            end = off + t_k.data.size
            t_k.data = self.data[off:end].reshape(shape)
            t_k.grad = self.grad[off:end].reshape(shape)
            off = end
        return t

    def __getitem__(self, name: str) -> Tensor:
        return self._entries[name]

    def names(self) -> list[str]:
        return list(self._entries)

    def items(self) -> Iterator[tuple[str, Tensor]]:
        return iter(self._entries.items())

    def tensors(self) -> Iterator[Tensor]:
        return iter(self._entries.values())

    def zero_grads(self) -> None:
        self.grad.fill(0.0)

    def load_state(self, state: dict[str, Array]) -> None:
        """Copy ``state``'s arrays into the tensors of the same names. The
        state must hold exactly this bundle's names, at their shapes."""
        extra = sorted(set(state) - set(self._entries))
        if extra:
            raise DataError(
                f"state holds parameters the model does not build: {extra}")
        for name, t in self._entries.items():
            if name not in state:
                raise DataError(f"missing parameter {name!r} in state")
            arr = np.asarray(state[name], dtype=np.float64)
            if arr.shape != t.data.shape:
                raise DataError(
                    f"shape mismatch for {name!r}: {arr.shape} vs {t.data.shape}")
            t.data[...] = arr


# --- initialization ---------------------------------------------------------


def glorot(rng: np.random.Generator, shape: tuple[int, int]) -> Array:
    fan_out, fan_in = shape
    limit = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


def embedding_init(rng: np.random.Generator, shape: tuple[int, int]) -> Array:
    return rng.uniform(-0.1, 0.1, size=shape)


# --- gated cell -------------------------------------------------------------


@dataclass
class CellParams:
    """An N-ary gated cell with one forget gate per child, as one weight and
    one bias tensor for all of its gates.

    ``w`` is ((K+3)*hidden, cols) and multiplies the cell input z; ``b`` is
    ((K+3)*hidden,). Their rows are blocks of ``hidden`` rows in the
    kernel's gate order i, f_1..f_K, o, u. Biases start at zero so the
    all-zero cell is a fixpoint.
    """

    w: Tensor
    b: Tensor
    children: int

    @property
    def hidden_size(self) -> int:
        return self.b.data.shape[0] // (self.children + 3)

    @property
    def cols(self) -> int:
        return self.w.data.shape[1]


def init_cell(bundle: ParameterBundle, prefix: str, rng: np.random.Generator,
              cols: int, hidden: int, children: int) -> CellParams:
    """Register ``{prefix}.w`` and ``{prefix}.b`` for a cell with ``children``
    forget gates. Each gate's weight block is drawn in gate order, so that
    order fixes the RNG draws."""
    gates = children + 3
    w = np.concatenate([glorot(rng, (hidden, cols)) for _ in range(gates)])
    return CellParams(bundle.add(f"{prefix}.w", w),
                      bundle.add(f"{prefix}.b", np.zeros(gates * hidden)), children)


def _sigmoid(x: Array) -> Array:
    # exp of a non-positive number never overflows
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def _gates_forward(pre: Array, child_cs: Sequence[Array]) -> tuple[Array, Array, tuple]:
    """h and c of B rows from their gate pre-activations.

    ``pre`` is (B, (K+3)*H) in gate order i, f_1..f_K, o, u; ``child_cs``
    holds K arrays (B, H). The third result is what the backward pass needs.
    """
    n = pre.shape[1] // (len(child_cs) + 3)
    s = _sigmoid(pre[:, :-n])  # i, f_1..f_K, o
    u = np.tanh(pre[:, -n:])
    c = s[:, :n] * u
    for k, c_k in enumerate(child_cs, start=1):
        c += s[:, k * n:(k + 1) * n] * c_k
    tc = np.tanh(c)
    return s[:, -n:] * tc, c, (s, u, tc, child_cs)


def _gates_backward(cache: tuple, dh: Array, dc: Array) -> tuple[Array, list[Array]]:
    """Gradients of the pre-activations and of the child cells, given those
    of h and c."""
    s, u, tc, child_cs = cache
    n = u.shape[1]
    dc = dc + dh * s[:, -n:] * (1.0 - tc * tc)
    ds = np.empty_like(s)
    ds[:, :n] = dc * u
    for k, c_k in enumerate(child_cs, start=1):
        ds[:, k * n:(k + 1) * n] = dc * c_k
    ds[:, -n:] = dh * tc
    dpre = np.empty((s.shape[0], s.shape[1] + n))
    dpre[:, :-n] = ds * s * (1.0 - s)
    dpre[:, -n:] = dc * s[:, :n] * (1.0 - u * u)
    return dpre, [dc * s[:, k * n:(k + 1) * n] for k in range(1, len(child_cs) + 1)]


def cell_step(z: Tensor, child_cs: Sequence[Tensor],
              p: CellParams) -> tuple[Tensor, Tensor]:
    """One application of the cell to input ``z`` and the children's cells.

    i, f_k, o = sigmoid gates over z; u = tanh candidate;
    c = i*u + sum_k f_k*c_k; h = o*tanh(c). One tape entry.
    """
    if len(child_cs) != p.children:
        raise DataError(
            f"cell has {p.children} forget gates, got {len(child_cs)} children")
    if z.data.shape != (p.cols,):
        raise DataError(f"cell input shape {z.data.shape} != ({p.cols},)")
    n = p.hidden_size
    for c_k in child_cs:
        if c_k.data.shape != (n,):
            raise DataError(f"child cell shape {c_k.data.shape} != ({n},)")
    w = p.w.data
    zs = z.data[None, :]
    h, c, cache = _gates_forward(zs @ w.T + p.b.data,
                                 [c_k.data[None, :] for c_k in child_cs])

    def bw(gh, gc):
        dpre, d_children = _gates_backward(
            cache, np.zeros((1, n)) if gh is None else gh[None, :],
            np.zeros((1, n)) if gc is None else gc[None, :])
        _accumulate(p.w, dpre.T @ zs)
        _accumulate(p.b, dpre[0])
        if z.requires_grad:
            _accumulate(z, (dpre @ w)[0])
        for c_k, d in zip(child_cs, d_children):
            if c_k.requires_grad:
                _accumulate(c_k, d[0])

    outs = (Tensor(h[0]), Tensor(c[0]))
    _record(outs, (z, *child_cs, p.w), bw)
    return outs


def init_lstm_cell(bundle: ParameterBundle, prefix: str, rng: np.random.Generator,
                   input_size: int, hidden_size: int) -> CellParams:
    """The 1-ary cell over [x; h]."""
    return init_cell(bundle, prefix, rng, input_size + hidden_size, hidden_size, 1)


def run_lstms(seqs: Sequence[Sequence[Tensor]],
              p: CellParams) -> list[tuple[Tensor, Tensor]]:
    """Run the 1-ary cell over each sequence from the zero state, all as one
    packed batch; return each sequence's final (h, c), in input order.

    Rows are sorted by length, longest first and stably, so the rows still
    running at step t are a prefix of the batch. One matrix product projects
    the inputs of every step; each step adds the recurrent product of its
    prefix. The backward pass is backpropagation through time over the same
    prefixes, and it also gives the gradients of inputs that need them. One
    tape entry; a sequence of length 0 ends in the zero state.
    """
    n = p.hidden_size
    dim = p.cols - n
    order = sorted(range(len(seqs)), key=lambda k: -len(seqs[k]))
    lengths = [len(seqs[k]) for k in order]
    steps = lengths[0] if lengths else 0
    rows = len(order)
    # active[t]: how many rows run step t; rows active[t+1]..active[t]-1 end there
    active = [sum(length > t for length in lengths) for t in range(steps)] + [0]
    z = np.zeros((steps, rows, p.cols))  # the cell input [x; h] of each step
    for r, k in enumerate(order):
        for t, x_t in enumerate(seqs[k]):
            if x_t.data.shape != (dim,):
                raise DataError(f"input shape {x_t.data.shape} != ({dim},)")
            z[t, r, :dim] = x_t.data
    wx, wh = p.w.data[:, :dim], p.w.data[:, dim:]
    px = z[:, :, :dim] @ wx.T + p.b.data
    h = c = np.zeros((rows, n))
    hs, cs, caches = [], [], []
    for t in range(steps):
        m = active[t]
        z[t, :m, dim:] = h[:m]
        h, c, cache = _gates_forward(px[t, :m] + h[:m] @ wh.T, (c[:m],))
        hs.append(h)
        cs.append(c)
        caches.append(cache)

    def bw(*grads):
        gh = np.zeros((rows, n))
        gc = np.zeros((rows, n))
        for r, k in enumerate(order):
            if grads[2 * k] is not None:
                gh[r] = grads[2 * k]
            if grads[2 * k + 1] is not None:
                gc[r] = grads[2 * k + 1]
        dpx = np.zeros_like(px)
        dh = dc = np.zeros((0, n))
        for t in reversed(range(steps)):
            m, ending = active[t], active[t + 1]
            dh = np.concatenate((dh, gh[ending:m]))
            dc = np.concatenate((dc, gc[ending:m]))
            dpre, (dc,) = _gates_backward(caches[t], dh, dc)
            dpx[t, :m] = dpre
            dh = dpre @ wh
        flat = dpx.reshape(-1, dpx.shape[2])
        _accumulate(p.w, flat.T @ z.reshape(-1, p.cols))
        _accumulate(p.b, flat.sum(axis=0))
        if any(x_t.requires_grad for seq in seqs for x_t in seq):
            dx = dpx @ wx
            for r, k in enumerate(order):
                for t, x_t in enumerate(seqs[k]):
                    if x_t.requires_grad:
                        _accumulate(x_t, dx[t, r])

    results: list[tuple[Tensor, Tensor]] = [(zeros(n), zeros(n))] * len(seqs)
    for r, k in enumerate(order):
        if lengths[r]:
            results[k] = (Tensor(hs[lengths[r] - 1][r]), Tensor(cs[lengths[r] - 1][r]))
    _record(tuple(t for pair in results for t in pair), chain((p.w,), *seqs), bw)
    return results


def run_lstm(inputs: Sequence[Tensor], p: CellParams) -> tuple[Tensor, Tensor]:
    """Run the cell left-to-right from the zero state; return final (h, c)."""
    return run_lstms([inputs], p)[0]


# --- Adam -------------------------------------------------------------------


class AdamState:
    """First and second moment estimates, flat like the bundle's buffer."""

    def __init__(self, bundle: ParameterBundle):
        self.m = np.zeros_like(bundle.data)
        self.v = np.zeros_like(bundle.data)


def adam_step(params: ParameterBundle, state: AdamState, t: int, lr: float,
              beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8) -> None:
    """Bias-corrected Adam update of the whole buffer, applied in place.

    ``t`` is the 1-based step index of this update.
    """
    if t < 1:
        raise DataError(f"step index must be >= 1, got {t}")
    if state.m.shape != params.data.shape:
        raise DataError(f"Adam state holds {state.m.size} moments for "
                        f"{params.data.size} parameters")
    g = params.grad
    m, v = state.m, state.v
    m *= beta1
    m += (1.0 - beta1) * g
    v *= beta2
    v += (1.0 - beta2) * (g * g)
    # lr * m_hat / (sqrt(v_hat) + eps) on two buffer-sized temporaries;
    # IEEE products commute, so step *= lr rounds as lr * m_hat does
    step = m / (1.0 - beta1 ** t)
    step *= lr
    denom = v / (1.0 - beta2 ** t)
    np.sqrt(denom, out=denom)
    denom += eps
    step /= denom
    params.data -= step


# --- checkpointing ----------------------------------------------------------

CHECKPOINT_VERSION = 2


def save_checkpoint(path, bundle: ParameterBundle, meta: dict | None = None) -> None:
    """Write a versioned JSON checkpoint; byte-stable for identical values."""
    doc = {
        "version": CHECKPOINT_VERSION,
        "meta": meta or {},
        "tensors": {
            name: {"shape": list(t.data.shape), "values": t.data.ravel().tolist()}
            for name, t in bundle.items()
        },
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, separators=(",", ":"))
        fh.write("\n")


def load_checkpoint(path) -> tuple[dict, dict[str, Array]]:
    """Read a checkpoint; a malformed file raises :class:`DataError`."""
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except ValueError as exc:  # JSONDecodeError or UnicodeDecodeError
            raise DataError(f"checkpoint {path}: not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise DataError(f"checkpoint {path}: not a JSON object")
    if doc.get("version") != CHECKPOINT_VERSION:
        raise DataError(f"unsupported checkpoint version {doc.get('version')!r}")
    meta = doc.get("meta", {})
    if not isinstance(meta, dict):
        raise DataError(f"checkpoint {path}: meta is not an object")
    try:
        tensors = {
            name: np.asarray(spec["values"], dtype=np.float64).reshape(spec["shape"])
            for name, spec in doc["tensors"].items()
        }
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise DataError(f"checkpoint {path}: bad tensors: {exc!r}") from None
    non_finite = sorted(name for name, t in tensors.items() if not np.isfinite(t).all())
    if non_finite:
        raise DataError(f"checkpoint {path}: non-finite values in {non_finite}")
    return meta, tensors
