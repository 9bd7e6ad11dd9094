"""Dense float64 tensors with reverse-mode differentiation, one N-ary gated
cell, and the Adam optimizer.

The gated cell is the N-ary Tree-LSTM unit of Tai et al. (2015): gates i,
o, u and one forget gate per child, all read one input vector z. The
sequential LSTM is its 1-ary case over z = [x; h]; the discourse-tree node
is its 2-ary case.

Ops run eagerly. Inside ``with record():`` each op whose inputs need a
gradient appends its output and one closure to the current thread's tape,
a Wengert list (Griewank & Walther, *Evaluating Derivatives*), and
:func:`backward` replays that tape in reverse. The closure takes the
output's gradient and captures only the op's inputs and arrays, never the
output, so a recorded graph holds no reference cycles and reference
counting frees it. Outside a block ops record nothing. Each thread has its
own tape; parameter bundles are safe to share across threads for
concurrent forward passes.
"""

from __future__ import annotations

import json
import math
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .errors import DimensionError, ShapeError, StateError

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

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

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


def _result(data: Array, parents: tuple[Tensor, ...], bw) -> Tensor:
    """Wrap op output; put it on the tape only when some parent needs a grad.

    ``bw(g)`` pushes the output gradient ``g`` to the parents.
    """
    out = Tensor(data)
    tape = _rec.tape
    if tape is not None and any(p.requires_grad for p in parents):
        out.requires_grad = True
        tape.append((out, bw))
    return out


# --- primitive ops ----------------------------------------------------------


def add(a: Tensor, b: Tensor) -> Tensor:
    if a.data.shape != b.data.shape:
        raise DimensionError(f"add: {a.data.shape} vs {b.data.shape}")

    def bw(g):
        _accumulate(a, g)
        _accumulate(b, g)

    return _result(a.data + b.data, (a, b), bw)


def mul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.shape != b.data.shape:
        raise DimensionError(f"mul: {a.data.shape} vs {b.data.shape}")

    def bw(g):
        _accumulate(a, g * b.data)
        _accumulate(b, g * a.data)

    return _result(a.data * b.data, (a, b), bw)


def neg(a: Tensor) -> Tensor:
    def bw(g):
        _accumulate(a, -g)

    return _result(-a.data, (a,), bw)


def matvec(w: Tensor, x: Tensor) -> Tensor:
    if w.data.ndim != 2 or x.data.ndim != 1 or w.data.shape[1] != x.data.shape[0]:
        raise DimensionError(f"matvec: {w.data.shape} @ {x.data.shape}")

    def bw(g):
        _accumulate(w, np.outer(g, x.data))
        _accumulate(x, w.data.T @ g)

    return _result(w.data @ x.data, (w, x), bw)


def concat(parts: Sequence[Tensor]) -> Tensor:
    for p in parts:
        if p.data.ndim != 1:
            raise DimensionError("concat expects 1-d tensors")
    parts = tuple(parts)
    sizes = [p.data.shape[0] for p in parts]

    def bw(g):
        off = 0
        for p, n in zip(parts, sizes):
            _accumulate(p, g[off:off + n])
            off += n

    return _result(np.concatenate([p.data for p in parts]), parts, bw)


def sigmoid(a: Tensor) -> Tensor:
    x = a.data
    val = np.empty_like(x)
    pos = x >= 0
    val[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    val[~pos] = ex / (1.0 + ex)

    def bw(g):
        _accumulate(a, g * val * (1.0 - val))

    return _result(val, (a,), bw)


def tanh(a: Tensor) -> Tensor:
    val = np.tanh(a.data)

    def bw(g):
        _accumulate(a, g * (1.0 - val * val))

    return _result(val, (a,), bw)


def softmax(a: Tensor) -> Tensor:
    if a.data.ndim != 1:
        raise DimensionError("softmax expects a 1-d tensor")
    shifted = a.data - a.data.max()
    e = np.exp(shifted)
    p = e / e.sum()

    def bw(g):
        _accumulate(a, p * (g - np.dot(g, p)))

    return _result(p, (a,), bw)


def pick(a: Tensor, i: int) -> Tensor:
    if a.data.ndim != 1:
        raise DimensionError("pick expects a 1-d tensor")

    def bw(g):
        ga = np.zeros_like(a.data)
        ga[i] = g
        _accumulate(a, ga)

    return _result(a.data[i], (a,), bw)


def row(m: Tensor, i: int) -> Tensor:
    if m.data.ndim != 2:
        raise DimensionError("row expects a 2-d tensor")

    def bw(g):
        gm = np.zeros_like(m.data)
        gm[i] = g
        _accumulate(m, gm)

    return _result(m.data[i].copy(), (m,), bw)


def vsum(a: Tensor) -> Tensor:
    def bw(g):
        _accumulate(a, np.full_like(a.data, float(g)))

    return _result(a.data.sum(), (a,), bw)


def log(a: Tensor) -> Tensor:
    def bw(g):
        _accumulate(a, g / a.data)

    return _result(np.log(a.data), (a,), bw)


def clamp_min(a: Tensor, lo: float) -> Tensor:
    # written so NaN passes through instead of being floored away
    mask = ~(a.data < lo)

    def bw(g):
        _accumulate(a, g * mask)

    return _result(np.where(mask, a.data, lo), (a,), bw)


# --- backward pass ----------------------------------------------------------


def backward(loss: Tensor, params: "ParameterBundle") -> None:
    """Fill ``t.grad`` with d(loss)/dt for every tensor in ``params``.

    Replays the tape of the enclosing :func:`record` block in reverse.
    Parameters that do not participate in ``loss`` end up with zero
    gradients.
    """
    tape = _rec.tape
    if tape is None:
        raise StateError("backward needs the ops recorded inside a record() block")
    if loss.data.shape != ():
        raise ShapeError(f"loss must be scalar, got shape {loss.data.shape}")
    params.zero_grads()
    if not loss.requires_grad:
        return
    loss.grad = np.ones((), dtype=np.float64)
    for out, bw in reversed(tape):
        if out.grad is not None:
            bw(out.grad)


# --- parameters -------------------------------------------------------------


class ParameterBundle:
    """Ordered collection of named trainable tensors with gradient slots."""

    def __init__(self):
        self._entries: dict[str, Tensor] = {}

    def add(self, name: str, values) -> Tensor:
        if name in self._entries:
            raise StateError(f"duplicate parameter name {name!r}")
        t = Tensor(values, requires_grad=True)
        self._entries[name] = t
        return t

    def __getitem__(self, name: str) -> Tensor:
        return self._entries[name]

    def __contains__(self, name: str) -> bool:
        return name in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def names(self) -> list[str]:
        return list(self._entries)

    def items(self) -> Iterator[tuple[str, Tensor]]:
        return iter(self._entries.items())

    def tensors(self) -> Iterator[Tensor]:
        return iter(self._entries.values())

    def zero_grads(self) -> None:
        for t in self._entries.values():
            t.grad = np.zeros_like(t.data)

    def load_state(self, state: dict[str, Array]) -> None:
        for name, t in self._entries.items():
            if name not in state:
                raise StateError(f"missing parameter {name!r} in state")
            arr = np.asarray(state[name], dtype=np.float64)
            if arr.shape != t.data.shape:
                raise StateError(
                    f"shape mismatch for {name!r}: {arr.shape} vs {t.data.shape}")
            t.data = arr.copy()


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
    """Gate weights of an N-ary gated cell with one forget gate per child.

    Each gate weight is shaped (hidden, cols) and multiplies the cell input
    z; biases start at zero so the all-zero cell is a fixpoint. ``w`` and
    ``b`` are keyed by gate name: "i", the names in ``forget``, "o", "u".
    """

    cols: int
    hidden_size: int
    forget: tuple[str, ...]
    w: dict[str, Tensor]
    b: dict[str, Tensor]


def init_cell(bundle: ParameterBundle, prefix: str, rng: np.random.Generator,
              cols: int, hidden: int, forget: Sequence[str]) -> CellParams:
    """Register ``{prefix}.w_<g>`` and ``{prefix}.b_<g>`` gate by gate, in the
    order i, forget..., o, u; that order fixes the RNG draws and the
    checkpoint layout."""
    w: dict[str, Tensor] = {}
    b: dict[str, Tensor] = {}
    for gate in ("i", *forget, "o", "u"):
        w[gate] = bundle.add(f"{prefix}.w_{gate}", glorot(rng, (hidden, cols)))
        b[gate] = bundle.add(f"{prefix}.b_{gate}", np.zeros(hidden))
    return CellParams(cols, hidden, tuple(forget), w, b)


def cell_step(z: Tensor, child_cs: Sequence[Tensor],
              p: CellParams) -> tuple[Tensor, Tensor]:
    """One application of the cell to input ``z`` and the children's cells.

    i, f_k, o = sigmoid gates over z; u = tanh candidate;
    c = i*u + sum_k f_k*c_k; h = o*tanh(c).
    """
    if len(child_cs) != len(p.forget):
        raise DimensionError(
            f"cell has {len(p.forget)} forget gates, got {len(child_cs)} children")
    i = sigmoid(add(matvec(p.w["i"], z), p.b["i"]))
    fs = [sigmoid(add(matvec(p.w[g], z), p.b[g])) for g in p.forget]
    o = sigmoid(add(matvec(p.w["o"], z), p.b["o"]))
    u = tanh(add(matvec(p.w["u"], z), p.b["u"]))
    c = mul(i, u)
    for f, c_k in zip(fs, child_cs):
        c = add(c, mul(f, c_k))
    h = mul(o, tanh(c))
    return h, c


def init_lstm_cell(bundle: ParameterBundle, prefix: str, rng: np.random.Generator,
                   input_size: int, hidden_size: int) -> CellParams:
    """The 1-ary cell over [x; h]."""
    return init_cell(bundle, prefix, rng, input_size + hidden_size, hidden_size, ("f",))


def lstm_cell_step(x: Tensor, h: Tensor, c: Tensor,
                   p: CellParams) -> tuple[Tensor, Tensor]:
    """One step of the standard LSTM recurrence: the 1-ary cell over [x; h]."""
    input_size = p.cols - p.hidden_size
    if x.data.shape != (input_size,):
        raise DimensionError(f"input shape {x.data.shape} != ({input_size},)")
    if h.data.shape != (p.hidden_size,) or c.data.shape != (p.hidden_size,):
        raise DimensionError(
            f"state shapes {h.data.shape}/{c.data.shape} != ({p.hidden_size},)")
    return cell_step(concat((x, h)), (c,), p)


def run_lstm(inputs: Sequence[Tensor], p: CellParams) -> tuple[Tensor, Tensor]:
    """Run the cell left-to-right from the zero state; return final (h, c)."""
    h = zeros(p.hidden_size)
    c = zeros(p.hidden_size)
    for x in inputs:
        h, c = lstm_cell_step(x, h, c, p)
    return h, c


# --- Adam -------------------------------------------------------------------


class AdamState:
    """Per-parameter first/second moment estimates."""

    def __init__(self, bundle: ParameterBundle):
        self.m = {name: np.zeros_like(t.data) for name, t in bundle.items()}
        self.v = {name: np.zeros_like(t.data) for name, t in bundle.items()}


def adam_step(params: ParameterBundle, state: AdamState, t: int, lr: float,
              beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8) -> None:
    """Bias-corrected Adam update, applied in place.

    ``t`` is the 1-based step index of this update.
    """
    if t < 1:
        raise StateError(f"step index must be >= 1, got {t}")
    for name, p in params.items():
        g = p.grad
        if g is None:
            raise StateError(f"parameter {name!r} has no gradient")
        m = state.m[name]
        v = state.v[name]
        if m.shape != p.data.shape:
            raise StateError(f"moment shape mismatch for {name!r}")
        m *= beta1
        m += (1.0 - beta1) * g
        v *= beta2
        v += (1.0 - beta2) * (g * g)
        m_hat = m / (1.0 - beta1 ** t)
        v_hat = v / (1.0 - beta2 ** t)
        p.data -= lr * m_hat / (np.sqrt(v_hat) + eps)


# --- checkpointing ----------------------------------------------------------

CHECKPOINT_VERSION = 1


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
    """Read a checkpoint; a malformed file raises :class:`StateError`."""
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except ValueError as exc:  # JSONDecodeError or UnicodeDecodeError
            raise StateError(f"checkpoint {path}: not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise StateError(f"checkpoint {path}: not a JSON object")
    if doc.get("version") != CHECKPOINT_VERSION:
        raise StateError(f"unsupported checkpoint version {doc.get('version')!r}")
    meta = doc.get("meta", {})
    if not isinstance(meta, dict):
        raise StateError(f"checkpoint {path}: meta is not an object")
    try:
        tensors = {
            name: np.asarray(spec["values"], dtype=np.float64).reshape(spec["shape"])
            for name, spec in doc["tensors"].items()
        }
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise StateError(f"checkpoint {path}: bad tensors: {exc!r}") from None
    return meta, tensors
