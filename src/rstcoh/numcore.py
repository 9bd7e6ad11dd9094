"""Dense float64 tensors with reverse-mode differentiation, one N-ary gated
cell, a softmax head and loss, and the Adam optimizer.

The four functions that record on the tape are exactly what the models call:

* :func:`run_lstms` runs many sequences through the 1-ary cell as one
  packed batch, and :func:`run_tree` runs a batch of discourse trees
  through the 2-ary cell one level at a time;
* :func:`softmax_head` is the output layer, softmax(x @ w.T + b) per row,
  where x joins the encoders' outputs side by side;
* :func:`nll` is the loss, the sum over rows of -log(max(p[label], floor)).

The gated cell is the N-ary Tree-LSTM unit of Tai et al. (2015): gates i,
o, u and one forget gate per child, all read one input vector z. The
sequential LSTM is its 1-ary case over z = [x; h]; the discourse-tree node
is its 2-ary case. One row-batched implementation of the gates, with a
hand-written backward pass over plain arrays (Appleyard et al. 2016), serves
both. Each call of any of the four is one tape entry, whatever the number
of rows: one packed pass over all the EDUs (or sentences) of a batch of
documents, one level-by-level pass over all their trees. The ops take
whole arrays and index arrays, never per-node tensors; a tree reaches
:func:`run_tree` as a :class:`TreeSchedule` (dynamic batching, Looks et
al. 2017). A cell's parameters are one weight and one bias tensor whose row
blocks are its gates, the layout the kernel computes with.

A :class:`ParameterBundle` keeps all of a model's parameters in one flat
``data`` vector and their gradients in one flat ``grad`` vector, in
registration order. Each named tensor's ``.data`` and ``.grad`` are views
into them, so :meth:`ParameterBundle.zero_grads` is one fill and
:func:`adam_step` is one vectorised update over flat moments (Kingma & Ba
2014). Parameter views must never be rebound, only written through.

Ops run eagerly. Inside ``with record():`` each op whose inputs need a
gradient appends its outputs and one closure to the current tape, a
Wengert list (Griewank & Walther, *Evaluating Derivatives*), and
:func:`backward` replays that tape in reverse. The closure takes one
gradient per output (None for an output nothing used) and captures only the
op's inputs and arrays, never the outputs, so a recorded graph holds no
reference cycles and reference counting frees it. Outside a block ops record
nothing. The tape is one module-level variable, so the module is
single-threaded: ops and :func:`backward` must run on one thread at a time.

Outside a block, :func:`run_lstms` and :func:`run_tree` carve every
temporary of a call (cell inputs, pre-activations, gate values, h, c and
the tree's state tables) from one float64 workspace, a module-level
variable under the same single-thread contract. It grows to the exact
need of the largest call so far and is never given back, so successive
calls, such as evaluation chunks, reuse its pages instead of having fresh
ones mapped for each (the caching allocator of Paszke et al. 2019). A
carving is valid until the next kernel call, and no tensor an op returns
aliases the workspace. Inside a block the kernels allocate, because the
backward closures keep each step's arrays.
"""

from __future__ import annotations

import json
import math
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .atomic import atomic_write
from .errors import DataError

Array = np.ndarray


_tape: list | None = None  # the open record() block's tape, or None
_workspace = np.empty(0)  # what tape-free kernel calls carve their temporaries from


def _carve(*shapes: tuple[int, int]) -> list[Array]:
    """Views of the workspace of the given 2-d shapes, laid end to end: the
    temporaries of one tape-free kernel call. A workspace too small for
    them is replaced by one of exactly their size; nothing is copied."""
    global _workspace
    need = sum(rows * cols for rows, cols in shapes)
    if _workspace.size < need:
        _workspace = np.empty(need)
    views, end = [], 0
    for rows, cols in shapes:
        start, end = end, end + rows * cols
        views.append(_workspace[start:end].reshape(rows, cols))
    return views


@contextmanager
def record() -> Iterator[None]:
    """Record ops on a fresh tape for :func:`backward`."""
    global _tape
    prev = _tape
    _tape = []
    try:
        yield
    finally:
        _tape = prev


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
    tape = _tape
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


def softmax_head(w: Tensor, b: Tensor, parts: Sequence[Tensor]) -> Tensor:
    """softmax(x @ w.T + b) of each row of x = [parts[0] | parts[1] | ...]
    as one tape entry: the classifiers' output layer over the encoders'
    (B, D_k) outputs, (B, K) out. The backward pass splits the gradient of
    x back into the parts' columns."""
    parts = tuple(parts)
    try:
        x = np.concatenate([part.data for part in parts], axis=-1)
    except ValueError as exc:  # no parts, 0-d parts or row counts that differ
        raise DataError(f"softmax_head: {exc}") from None
    if w.data.ndim != 2 or x.ndim != 2 or x.shape[1:] != w.data.shape[1:] \
            or b.data.shape != w.data.shape[:1]:
        raise DataError(
            f"softmax_head: {x.shape} @ {w.data.shape}.T + {b.data.shape}")
    logits = x @ w.data.T + b.data
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    p = e / e.sum(axis=1, keepdims=True)

    def bw(g):
        g_logits = p * (g - (g * p).sum(axis=1, keepdims=True))
        _accumulate(w, g_logits.T @ x)
        _accumulate(b, g_logits.sum(axis=0))
        g_x = g_logits @ w.data
        end = 0
        for part in parts:
            start, end = end, end + part.data.shape[1]
            _accumulate(part, g_x[:, start:end])

    return _result(p, (w, b, *parts), bw)


def nll(dist: Tensor, labels: Sequence[int], floor: float) -> Tensor:
    """The sum over rows b of -log(max(dist[b, labels[b]], floor)), as one
    tape entry.

    The gradient is zero where the probability is below the floor. The
    comparison is written so that NaN is not floored away but passes
    through.
    """
    if dist.data.ndim != 2 or len(labels) != dist.data.shape[0]:
        raise DataError(f"nll: {len(labels)} labels for a distribution of "
                        f"shape {dist.data.shape}")
    rows = np.arange(len(labels))
    cols = np.asarray(labels, dtype=np.intp)
    picked = dist.data[rows, cols]
    keep = ~(picked < floor)
    p = np.where(keep, picked, floor)

    def bw(g):
        g_dist = np.zeros_like(dist.data)
        g_dist[rows, cols] = -g / p * keep
        _accumulate(dist, g_dist)

    return _result(-np.log(p).sum(), (dist,), bw)


# --- backward pass ----------------------------------------------------------


def backward(loss: Tensor, params: "ParameterBundle") -> None:
    """Fill ``t.grad`` with d(loss)/dt for every tensor in ``params``.

    Replays the tape of the enclosing :func:`record` block in reverse.
    Parameters that do not participate in ``loss`` end up with zero
    gradients.
    """
    tape = _tape
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

    def items(self) -> Iterator[tuple[str, Tensor]]:
        return iter(self._entries.items())

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


def _sigmoid(x: Array, out: Array | None = None) -> Array:
    # 0.5 * (1 + tanh(x / 2)), written in place; tanh never overflows
    s = np.multiply(x, 0.5, out)
    np.tanh(s, s)
    s += 1.0
    s *= 0.5
    return s


def _gates_forward(pre: Array, child_cs: Sequence[Array],
                   out: tuple[Array, Array] | None = None) -> tuple[Array, Array, tuple]:
    """h and c of B rows from their gate pre-activations.

    ``pre`` is (B, (K+3)*H) in gate order i, f_1..f_K, o, u; ``child_cs``
    holds K arrays (B, H). The third result is what the backward pass needs.
    With ``out``, two (B, H) arrays that overlap no input, nothing is
    allocated and the values are the same: c is written into ``out[0]``,
    h into ``out[1]``, which holds u and the scratch products on the way,
    and the gate values overwrite ``pre``, so the third result is no use
    to a backward pass.
    """
    n = pre.shape[1] // (len(child_cs) + 3)
    c, h = (None, None) if out is None else out
    u = np.tanh(pre[:, -n:], h)
    # in place, the sigmoid also runs over u's used-up columns: one
    # contiguous pass costs less than one over a strided view
    s = _sigmoid(pre[:, :-n]) if out is None else _sigmoid(pre, pre)  # i, f_1..f_K, o
    c = np.multiply(s[:, :n], u, c)
    for k, c_k in enumerate(child_cs, start=1):
        c += np.multiply(s[:, k * n:(k + 1) * n], c_k, h)
    tc = np.tanh(c, h)
    o = len(child_cs) + 1
    return np.multiply(s[:, o * n:(o + 1) * n], tc, h), c, (s, u, tc, child_cs)


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


def init_lstm_cell(bundle: ParameterBundle, prefix: str, rng: np.random.Generator,
                   input_size: int, hidden_size: int) -> CellParams:
    """The 1-ary cell over [x; h]."""
    return init_cell(bundle, prefix, rng, input_size + hidden_size, hidden_size, 1)


def run_lstms(x: Tensor, lengths: Sequence[int],
              p: CellParams) -> tuple[Tensor, Tensor]:
    """Run the 1-ary cell from the zero state over consecutive runs of the
    rows of ``x``, all as one packed batch: sequence k is the next
    ``lengths[k]`` rows. Return the final h and c of every sequence as two
    (len(lengths), H) tensors, in input order.

    Sequences are ranked by length, longest first and stably, so the ones
    still running at step t are a prefix of the ranking, and the rows of x
    are packed step by step: step t reads one contiguous block. Each step
    projects its block of cell inputs [x; h] with one matrix product, as
    :func:`run_tree` does for a level. The backward pass is
    backpropagation through time over the same blocks, and it also gives
    the gradient of ``x`` when that needs one. One tape entry; a sequence
    of length 0 ends in the zero state.
    """
    n = p.hidden_size
    dim = p.cols - n
    lengths = np.asarray(lengths, dtype=np.intp).reshape(-1)
    total = int(lengths.sum())
    if x.data.ndim != 2 or x.data.shape != (total, dim):
        raise DataError(f"input shape {x.data.shape} != ({total}, {dim})")
    order = np.argsort(-lengths, kind="stable")
    ranked = lengths[order]
    steps = int(ranked[0]) if len(ranked) else 0
    running = ranked > np.arange(steps)[:, None]  # (steps, sequences)
    # active[t] ranked sequences run step t, as packed rows
    # offsets[t]:offsets[t+1]; those from active[t+1] on end there
    active = running.sum(axis=1).tolist() + [0]
    offsets = [0]
    for m in active[:-1]:
        offsets.append(offsets[-1] + m)
    # the row of x that each packed row reads
    perm = ((np.cumsum(lengths) - lengths)[order] + np.arange(steps)[:, None])[running]
    w = p.w.data
    keep = _tape is not None  # the backward pass reads each step's gate values
    # z is each packed row's cell input [x; h]; pre_rows is reused by every step
    if keep:
        z, pre_rows = np.empty((total, p.cols)), np.empty((active[0], w.shape[0]))
        h = c = np.zeros((active[0], n))
    else:  # c alternates between two buffers: a step never writes the c it reads
        z, pre_rows, h_rows, c_held, c_spare = _carve(
            (total, p.cols), (active[0], w.shape[0]), *[(active[0], n)] * 3)
        c_held.fill(0.0)
        h = c = c_held
    z[:, :dim] = x.data.take(perm, axis=0)
    h_out = np.zeros((len(lengths), n))
    c_out = np.zeros((len(lengths), n))
    caches = []
    for t in range(steps):
        lo, hi, ending = offsets[t], offsets[t + 1], active[t + 1]
        m = hi - lo
        z[lo:hi, dim:] = h[:m]
        pre = np.matmul(z[lo:hi], w.T, pre_rows[:m])
        pre += p.b.data
        h, c, cache = _gates_forward(pre, (c[:m],),
                                     None if keep else (c_spare[:m], h_rows[:m]))
        if ending < m:  # some sequences end at this step
            h_out[order[ending:m]] = h[ending:]
            c_out[order[ending:m]] = c[ending:]
        if keep:
            caches.append(cache)
        else:
            c_held, c_spare = c_spare, c_held

    def bw(gh, gc):
        wx, wh = w[:, :dim], w[:, dim:]
        gh = np.zeros((len(lengths), n)) if gh is None else gh[order]
        gc = np.zeros((len(lengths), n)) if gc is None else gc[order]
        dpx = np.empty((total, w.shape[0]))
        dh = dc = np.zeros((0, n))
        for t in reversed(range(steps)):
            lo, hi, ending = offsets[t], offsets[t + 1], active[t + 1]
            dh = np.concatenate((dh, gh[ending:hi - lo]))
            dc = np.concatenate((dc, gc[ending:hi - lo]))
            dpre, (dc,) = _gates_backward(caches[t], dh, dc)
            dpx[lo:hi] = dpre
            dh = dpre @ wh
        _accumulate(p.w, dpx.T @ z)
        _accumulate(p.b, dpx.sum(axis=0))
        if x.requires_grad:
            dx = np.empty_like(x.data)
            dx[perm] = dpx @ wx
            _accumulate(x, dx)

    outs = (Tensor(h_out), Tensor(c_out))
    _record(outs, (x, p.w), bw)
    return outs


class TreeSchedule(NamedTuple):
    """A batch of binary trees as the index arrays :func:`run_tree` reads.

    Every node below the roots owns one row of a state table. Rows
    0..leaves-1 are the leaves, left to right and tree after tree; the
    internal nodes follow, level by level (a node's level is its height;
    leaves have height 0), with ``level_sizes[k]`` nodes of height k+1. Row
    i of ``children`` holds the state-table rows of the i-th internal node's
    left and right children, and row i of ``labels`` the label-table rows of
    those children's labels. ``roots`` holds the rows of each tree's two
    root children. The root itself is not computed: its children's states
    are the document representation.
    """

    leaves: int
    children: Array  # (N, 2)
    labels: Array  # (N, 2)
    level_sizes: list[int]
    roots: Array  # (B, 2)


def run_tree(leaf_h: Tensor, leaf_c: Tensor, sched: TreeSchedule, table: Tensor | None,
             p: CellParams) -> tuple[Tensor, Tensor]:
    """Run the 2-ary cell over the batch of binary trees ``sched``, one level
    at a time.

    ``leaf_h``/``leaf_c`` (L, H) are the states of the schedule's leaf rows.
    The cell input of a node is [h_l; h_r; table[left label];
    table[right label]], with zeros for the labels when ``table`` is None.
    Return h and c as two (B, 2H) tensors, row b holding [left; right] of
    tree b's root children.

    The label embeddings are gathered with one ``take``, and each level
    gathers both children's h and c with one ``take`` each and is one call
    of the gate kernel. The backward pass replays the levels in reverse and
    scatters the table gradient with ``np.add.at``. One tape entry.
    """
    if p.children != 2:
        raise DataError(f"run_tree needs a 2-ary cell, got {p.children} children")
    n = p.hidden_size
    n_leaves, children, labels, level_sizes, roots = sched
    if leaf_h.data.shape != (n_leaves, n) or leaf_c.data.shape != (n_leaves, n):
        raise DataError(f"leaf state shapes {leaf_h.data.shape}/{leaf_c.data.shape} "
                        f"!= ({n_leaves}, {n})")
    ends = [n_leaves]  # state-table rows ends[k]:ends[k+1] are level k
    for size in level_sizes:
        ends.append(ends[-1] + size)
    inner = ends[-1] - n_leaves
    if children.shape != (inner, 2) or labels.shape != (inner, 2):
        raise DataError(f"children {children.shape} and labels {labels.shape} "
                        f"!= ({inner}, 2)")
    label_cols = p.cols - 2 * n
    if table is not None and 2 * table.data.shape[1] != label_cols:
        raise DataError(f"label table width {table.data.shape[1]} != {label_cols // 2}")
    w = p.w.data
    keep = _tape is not None  # the backward pass reads each level's gate values
    # the state tables, each node's cell input and one level's pre-activations
    rows, level_rows = ends[-1], max(level_sizes, default=0)
    if keep:  # the backward pass reads the leaf rows of z: they must be zeros
        hs, cs, z = np.empty((rows, n)), np.empty((rows, n)), np.zeros((rows, p.cols))
        pre_rows = np.empty((level_rows, w.shape[0]))
    else:
        hs, cs, z, pre_rows = _carve((rows, n), (rows, n), (rows, p.cols),
                                     (level_rows, w.shape[0]))
    hs[:n_leaves] = leaf_h.data
    cs[:n_leaves] = leaf_c.data
    z[n_leaves:, 2 * n:] = 0.0 if table is None else \
        table.data.take(labels, axis=0).reshape(inner, label_cols)
    caches = []
    for lo, hi in zip(ends, ends[1:]):
        m = hi - lo
        pair = children[lo - n_leaves:hi - n_leaves]
        z[lo:hi, :2 * n] = hs.take(pair.ravel(), axis=0).reshape(m, 2 * n)
        pre = np.matmul(z[lo:hi], w.T, pre_rows[:m])
        pre += p.b.data
        h, c, cache = _gates_forward(pre, cs.take(pair.T.ravel(), axis=0).reshape(2, m, n),
                                     None if keep else (cs[lo:hi], hs[lo:hi]))
        if keep:
            hs[lo:hi], cs[lo:hi] = h, c
            caches.append(cache)

    def bw(gh, gc):
        # every row has one parent, on a level above it or the root, so each
        # row's gradient is written once, before its own level reads it
        dh = np.zeros_like(hs)
        dc = np.zeros_like(cs)
        if gh is not None:
            dh[roots.ravel()] = gh.reshape(-1, n)
        if gc is not None:
            dc[roots.ravel()] = gc.reshape(-1, n)
        dpre = np.zeros((ends[-1], w.shape[0]))
        dz = np.empty((ends[-1], p.cols))
        for k in reversed(range(len(level_sizes))):
            lo, hi = ends[k], ends[k + 1]
            pair = children[lo - n_leaves:hi - n_leaves]
            dpre[lo:hi], d_children = _gates_backward(caches[k], dh[lo:hi], dc[lo:hi])
            dz[lo:hi] = dpre[lo:hi] @ w
            dh[pair] = dz[lo:hi, :2 * n].reshape(hi - lo, 2, n)
            dc[pair.T] = d_children
        _accumulate(p.w, dpre.T @ z)
        _accumulate(p.b, dpre.sum(axis=0))
        if table is not None:
            g_table = np.zeros_like(table.data)
            np.add.at(g_table, labels,
                      dz[n_leaves:, 2 * n:].reshape(inner, 2, table.data.shape[1]))
            _accumulate(table, g_table)
        if leaf_h.requires_grad:
            _accumulate(leaf_h, dh[:n_leaves])
        if leaf_c.requires_grad:
            _accumulate(leaf_c, dc[:n_leaves])

    outs = (Tensor(hs[roots].reshape(len(roots), 2 * n)),
            Tensor(cs[roots].reshape(len(roots), 2 * n)))
    parents = (leaf_h, leaf_c, p.w) if table is None else (leaf_h, leaf_c, p.w, table)
    _record(outs, parents, bw)
    return outs


# --- Adam -------------------------------------------------------------------


class AdamState:
    """First and second moment estimates, flat like the bundle's buffer."""

    def __init__(self, bundle: ParameterBundle):
        self.m = np.zeros_like(bundle.data)
        self.v = np.zeros_like(bundle.data)


# Adam's moment decay rates and denominator floor, at the usual defaults
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


def adam_step(params: ParameterBundle, state: AdamState, t: int, lr: float) -> None:
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
    m *= ADAM_BETA1
    m += (1.0 - ADAM_BETA1) * g
    v *= ADAM_BETA2
    v += (1.0 - ADAM_BETA2) * (g * g)
    # lr * m_hat / (sqrt(v_hat) + eps) on two buffer-sized temporaries;
    # IEEE products commute, so step *= lr rounds as lr * m_hat does
    step = m / (1.0 - ADAM_BETA1 ** t)
    step *= lr
    denom = v / (1.0 - ADAM_BETA2 ** t)
    np.sqrt(denom, out=denom)
    denom += ADAM_EPS
    step /= denom
    params.data -= step


# --- checkpointing ----------------------------------------------------------

CHECKPOINT_VERSION = 2


def save_checkpoint(path, bundle: ParameterBundle, meta: dict | None = None) -> None:
    """Write a versioned JSON checkpoint atomically; byte-stable for identical
    values."""
    doc = {
        "version": CHECKPOINT_VERSION,
        "meta": meta or {},
        "tensors": {
            name: {"shape": list(t.data.shape), "values": t.data.ravel().tolist()}
            for name, t in bundle.items()
        },
    }
    with atomic_write(path) as fh:
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
        raise DataError(f"checkpoint {path}: unsupported version {doc.get('version')!r}")
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
