"""Independent reference implementations used as test oracles.

Everything here is written against the gate equations directly in plain
scalar arithmetic (or, for the finite-difference checker, against the loss
as a black box), deliberately sharing no code with the package's forward
paths. The exceptions are the composed references: primitive ops recorded
on numcore's tape through its ``_record``/``_accumulate`` hooks (``concat``
among them, which the package itself no longer needs), and the gated cell,
softmax head and loss built from them, so that the fused entries' forward
values and hand-written gradients can be checked against the tape's. ``reference_parse_tree`` is the token-by-token tree parser that
``rst_data.parse_tree`` replaced, kept as the reference for its error
messages and byte offsets. ``reference_tree_schedule`` is the level
schedule that maps one label at a time, with ``reference_label_row``'s
combined-label lookup, and ``reference_stack`` stacks word vectors one
token at a time: the references for ``tree_model.tree_schedule`` and
``WordVectors.stack``. The package holds a tree only as its text; the
tests hand-build trees as ``Leaf``/``Internal`` objects, the object model
the package dropped, and ``reference_serialize_tree`` writes their text.
``reference_flatten`` is the post-order walk of an object tree that built
its ``TreeShape`` before ``rst_data.parse_tree`` did, kept unchanged as
the reference for the flat form; ``reference_leaves_and_labels`` reads a
tree's leaf texts and post-order child labels by recursion, and
``reference_validate_tree`` is the separate walk that found a tree's
violations before the flat form reported them, the reference for
``TreeShape.violations``. ``reference_report`` is the one-class-at-a-time
loop that computed a report from its confusion matrix before
``metrics.report`` did, kept as the reference for its exact figures.
``class_label_distribution`` (the
generator's exact label distribution) and ``count_parameters`` (parameter
counts from tensor shapes) are computed from the config and the bundle for
the tests that check those.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import NamedTuple, Union

import numpy as np

from rstcoh import numcore as nc
from rstcoh.errors import DataError, ParseError
from rstcoh.metrics import CLASSES, EvaluationReport
from rstcoh.rst_data import NodeLabel, TreeShape, Violation


def sig(x: float) -> float:
    return 1.0 / (1.0 + math.exp(-x))


def scalar_lstm_step(x, h, c, w):
    """One LSTM step with 1-d states. ``w`` maps gate name -> (wx, wh, b)."""
    def gate(name, squash):
        wx, wh, b = w[name]
        return squash(wx * x + wh * h + b)

    i = gate("i", sig)
    f = gate("f", sig)
    o = gate("o", sig)
    u = gate("u", math.tanh)
    c2 = i * u + f * c
    h2 = o * math.tanh(c2)
    return h2, c2


def scalar_lstm_run(xs, w):
    h = c = 0.0
    for x in xs:
        h, c = scalar_lstm_step(x, h, c, w)
    return h, c


def scalar_tree_node(hl, cl, hr, cr, rl, rr, w):
    """One binary tree-cell step with 1-d states.

    ``w`` maps gate name in {i, fl, fr, o, u} -> (w_hl, w_hr, w_rl, w_rr, b).
    """
    def gate(name, squash):
        whl, whr, wrl, wrr, b = w[name]
        return squash(whl * hl + whr * hr + wrl * rl + wrr * rr + b)

    i = gate("i", sig)
    fl = gate("fl", sig)
    fr = gate("fr", sig)
    o = gate("o", sig)
    u = gate("u", math.tanh)
    c = i * u + fl * cl + fr * cr
    h = o * math.tanh(c)
    return h, c


def scalar_parseq(paragraph_tokens, token_values, w1, w2, w3):
    """Three stacked scalar LSTMs: words -> sentence -> paragraph -> document."""
    para_vecs = []
    for paragraph in paragraph_tokens:
        sent_vecs = []
        for sentence in paragraph:
            h, _ = scalar_lstm_run([token_values[t] for t in sentence], w1)
            sent_vecs.append(h)
        h, _ = scalar_lstm_run(sent_vecs, w2)
        para_vecs.append(h)
    d, _ = scalar_lstm_run(para_vecs, w3)
    return d


def scalar_adam_unroll(theta, grads, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """Hand-unrolled bias-corrected Adam over a scalar parameter."""
    m = v = 0.0
    for t, g in enumerate(grads, start=1):
        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g * g
        m_hat = m / (1 - beta1 ** t)
        v_hat = v / (1 - beta2 ** t)
        theta = theta - lr * m_hat / (math.sqrt(v_hat) + eps)
    return theta


# --- primitive ops on numcore's tape -------------------------------------------


def add(a, b):
    if a.data.shape != b.data.shape:
        raise DataError(f"add: {a.data.shape} vs {b.data.shape}")

    def bw(g):
        nc._accumulate(a, g)
        nc._accumulate(b, g)

    return nc._result(a.data + b.data, (a, b), bw)


def mul(a, b):
    if a.data.shape != b.data.shape:
        raise DataError(f"mul: {a.data.shape} vs {b.data.shape}")

    def bw(g):
        nc._accumulate(a, g * b.data)
        nc._accumulate(b, g * a.data)

    return nc._result(a.data * b.data, (a, b), bw)


def neg(a):
    return nc._result(-a.data, (a,), lambda g: nc._accumulate(a, -g))


def matvec(w, x):
    if w.data.ndim != 2 or x.data.shape != w.data.shape[1:]:
        raise DataError(f"matvec: {w.data.shape} @ {x.data.shape}")

    def bw(g):
        nc._accumulate(w, np.outer(g, x.data))
        nc._accumulate(x, w.data.T @ g)

    return nc._result(w.data @ x.data, (w, x), bw)


def sigmoid(a):
    e = np.exp(-np.abs(a.data))
    val = np.where(a.data >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
    return nc._result(val, (a,), lambda g: nc._accumulate(a, g * val * (1.0 - val)))


def tanh(a):
    val = np.tanh(a.data)
    return nc._result(val, (a,), lambda g: nc._accumulate(a, g * (1.0 - val * val)))


def concat(parts):
    """Join tensors along their last axis; the leading shapes must agree."""
    parts = tuple(parts)
    try:
        data = np.concatenate([p.data for p in parts], axis=-1)
    except ValueError as exc:  # 0-d parts or leading shapes that differ
        raise DataError(f"concat: {exc}") from None
    sizes = [p.data.shape[-1] for p in parts]

    def bw(g):
        off = 0
        for p, n in zip(parts, sizes):
            nc._accumulate(p, g[..., off:off + n])
            off += n

    return nc._result(data, parts, bw)


def row(m, i):
    if m.data.ndim != 2:
        raise DataError("row expects a 2-d tensor")

    def bw(g):
        gm = np.zeros_like(m.data)
        gm[i] = g
        nc._accumulate(m, gm)

    return nc._result(m.data[i].copy(), (m,), bw)


def softmax(a):
    if a.data.ndim != 1:
        raise DataError("softmax expects a 1-d tensor")
    e = np.exp(a.data - a.data.max())
    p = e / e.sum()
    return nc._result(p, (a,), lambda g: nc._accumulate(a, p * (g - np.dot(g, p))))


def pick(a, i):
    def bw(g):
        ga = np.zeros_like(a.data)
        ga[i] = g
        nc._accumulate(a, ga)

    return nc._result(a.data[i], (a,), bw)


def vsum(a):
    return nc._result(a.data.sum(), (a,),
                      lambda g: nc._accumulate(a, np.full_like(a.data, float(g))))


def log(a):
    return nc._result(np.log(a.data), (a,), lambda g: nc._accumulate(a, g / a.data))


def clamp_min(a, lo):
    mask = ~(a.data < lo)  # NaN is kept, not floored
    return nc._result(np.where(mask, a.data, lo), (a,),
                      lambda g: nc._accumulate(a, g * mask))


def composed_softmax_head(w, b, x):
    """softmax(w @ x + b) as matvec/add/softmax: the reference for
    ``nc.softmax_head``."""
    return softmax(add(matvec(w, x), b))


def composed_nll(dist, i, floor):
    """-log(max(dist[i], floor)) as pick/clamp_min/log/neg: the reference for
    ``nc.nll``."""
    return neg(log(clamp_min(pick(dist, i), floor)))


# --- the gated cell from primitive ops -----------------------------------------

FORGET_GATES = {1: ("f",), 2: ("fl", "fr")}


def gate_blocks(p, w=None, b=None):
    """Each gate's (weight rows, bias rows) of cell ``p`` as views, keyed by the
    scalar oracles' gate names in row-block order i, forget gates, o, u.
    ``w``/``b`` split arrays of the cell's shapes, such as its gradients,
    instead of its values."""
    n = p.hidden_size
    w = p.w.data if w is None else w
    b = p.b.data if b is None else b
    names = ("i", *FORGET_GATES[p.children], "o", "u")
    return {g: (w[k * n:(k + 1) * n], b[k * n:(k + 1) * n])
            for k, g in enumerate(names)}


def scalar_gates(p):
    """A 1-d cell's gates for the scalar oracles: name -> (weights..., bias)."""
    return {g: tuple(w[0].tolist()) + (float(b[0]),)
            for g, (w, b) in gate_blocks(p).items()}


def gate_leaves(bundle, p):
    """Copy each gate's row blocks of cell ``p`` into leaf tensors
    ``ref.w_<g>``/``ref.b_<g>`` of ``bundle``: the composed cell's parameters."""
    return {g: (bundle.add(f"ref.w_{g}", w.copy()), bundle.add(f"ref.b_{g}", b.copy()))
            for g, (w, b) in gate_blocks(p).items()}


def composed_cell_step(z, child_cs, gates):
    """The N-ary gated cell as matvec/add/sigmoid/tanh/mul ops, one per gate
    equation over the leaves of :func:`gate_leaves`: the reference for
    ``nc.cell_step``."""
    def gate(name, squash):
        w, b = gates[name]
        return squash(add(matvec(w, z), b))

    i = gate("i", sigmoid)
    fs = [gate(name, sigmoid) for name in list(gates)[1:-2]]
    o = gate("o", sigmoid)
    u = gate("u", tanh)
    c = mul(i, u)
    for f, c_k in zip(fs, child_cs):
        c = add(c, mul(f, c_k))
    h = mul(o, tanh(c))
    return h, c


def composed_run_lstm(inputs, gates):
    """The 1-ary composed cell over [x; h], step by step from the zero state:
    the reference for ``nc.run_lstms``."""
    hidden = gates["i"][1].data.shape[0]
    h = nc.zeros(hidden)
    c = nc.zeros(hidden)
    for x in inputs:
        h, c = composed_cell_step(concat((x, h)), (c,), gates)
    return h, c


def cell_step(z, child_cs, p):
    """One application of the fused gate kernel to a 1-d input ``z`` and the
    children's cells, recorded as one tape entry with the kernel's
    hand-written backward: the single-node cell that ``nc.run_lstms`` and
    ``nc.run_tree`` batch, and the one the per-node walks below compose."""
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
    h, c, cache = nc._gates_forward(zs @ w.T + p.b.data,
                                    [c_k.data[None, :] for c_k in child_cs])

    def bw(gh, gc):
        dpre, d_children = nc._gates_backward(
            cache, np.zeros((1, n)) if gh is None else gh[None, :],
            np.zeros((1, n)) if gc is None else gc[None, :])
        nc._accumulate(p.w, dpre.T @ zs)
        nc._accumulate(p.b, dpre[0])
        if z.requires_grad:
            nc._accumulate(z, (dpre @ w)[0])
        for c_k, d in zip(child_cs, d_children):
            if c_k.requires_grad:
                nc._accumulate(c_k, d[0])

    outs = (nc.Tensor(h[0]), nc.Tensor(c[0]))
    nc._record(outs, (z, *child_cs, p.w), bw)
    return outs


def lstm_cell_step(x, h, c, p):
    """One step of the standard LSTM recurrence: :func:`cell_step` over
    [x; h] with one child cell."""
    input_size = p.cols - p.hidden_size
    if x.data.shape != (input_size,):
        raise DataError(f"input shape {x.data.shape} != ({input_size},)")
    if h.data.shape != (p.hidden_size,) or c.data.shape != (p.hidden_size,):
        raise DataError(
            f"state shapes {h.data.shape}/{c.data.shape} != ({p.hidden_size},)")
    return cell_step(concat((x, h)), (c,), p)


def run_lstm(inputs, p):
    """``nc.run_lstms`` over one sequence of 1-d inputs: its final (h, c)."""
    h, c = nc.run_lstms(nc.constant(np.array([x.data for x in inputs])
                                    .reshape(len(inputs), p.cols - p.hidden_size)),
                        [len(inputs)], p)
    return row(h, 0), row(c, 0)


def encode_edu(tokens, wv, p):
    """The EDU LSTM over one EDU's word vectors, as ``tree_model.encode_trees``
    runs it: its final (h, c)."""
    h, c = nc.run_lstms(nc.constant(wv.stack(tokens)), [len(tokens)], p)
    return row(h, 0), row(c, 0)


def composed_tree_walk(trees, leaf_h, leaf_c, label_row, table, p):
    """The per-node walk that ``nc.run_tree`` replaces: one :func:`cell_step`
    per internal node below each root, in post-order, its input assembled
    with :func:`row` and :func:`concat`. Leaves take the rows of ``leaf_h``/
    ``leaf_c`` left to right, tree after tree; a label's slot is its
    ``table`` row (``label_row`` picks it) or zeros when ``table`` is None.
    Returns, per tree, [h_l; h_r] and [c_l; c_r] of the root's children:
    the reference for ``nc.run_tree``."""
    label_dim = (p.cols - 2 * p.hidden_size) // 2
    leaf_rows = iter(range(leaf_h.data.shape[0]))

    def embed(label):
        return nc.zeros(label_dim) if table is None else row(table, label_row(label))

    out = []
    for tree in trees:
        results = []
        stack = [(tree.right, False), (tree.left, False)]
        while stack:
            node, expanded = stack.pop()
            if isinstance(node, Leaf):
                i = next(leaf_rows)
                results.append((row(leaf_h, i), row(leaf_c, i)))
            elif not expanded:
                stack.extend(((node, True), (node.right, False), (node.left, False)))
            else:
                h_r, c_r = results.pop()
                h_l, c_l = results.pop()
                z = concat((h_l, h_r, embed(node.left_label), embed(node.right_label)))
                results.append(cell_step(z, (c_l, c_r), p))
        (h_l, c_l), (h_r, c_r) = results
        out.append((concat((h_l, h_r)), concat((c_l, c_r))))
    return out


def reference_label_row(features, vocab):
    """A child label's row in the feature row's label table, one label at a
    time: R looks the combined "Relation_N" string up in ``vocab.labels``
    (absent: row 0, UNK), NS takes 0 for N and 1 for S, t always 0."""
    used = features.split(",")
    if "r" in used:
        index = {combined: i for i, combined in enumerate(vocab.labels)}
        return lambda label: index.get(label.combined(), 0)
    if "ns" in used:
        return lambda label: 0 if label.nuclearity == "N" else 1
    return lambda label: 0


def reference_tree_schedule(trees, label_row):
    """The level schedule of ``trees`` as ``tree_model.tree_schedule`` built
    it before it mapped labels in one call: one iterative post-order walk
    per tree, ``label_row`` called once per child label, one 7-tuple per
    internal node."""
    n_leaves = 0
    level_sizes = []
    # (height, left height, left position, right height, right position,
    # left label row, right label row) of each internal node, in walk
    # order; a position counts the nodes of one height
    nodes = []
    root_keys = []
    for tree in trees:
        if not isinstance(tree, Internal):
            raise DataError("document tree has a single EDU")
        done = []  # (height, position) of finished subtrees
        stack = [(tree.right, False), (tree.left, False)]
        while stack:
            node, expanded = stack.pop()
            if isinstance(node, Leaf):
                done.append((0, n_leaves))
                n_leaves += 1
            elif not expanded:
                stack.append((node, True))
                stack.append((node.right, False))
                stack.append((node.left, False))
            else:
                right = done.pop()
                left = done.pop()
                height = max(left[0], right[0]) + 1
                if height > len(level_sizes):
                    level_sizes.append(0)
                nodes.append((height, *left, *right, label_row(node.left_label),
                              label_row(node.right_label)))
                done.append((height, level_sizes[height - 1]))
                level_sizes[height - 1] += 1
        root_keys.append(done)
    base = np.cumsum([0, n_leaves] + level_sizes)  # first row of each height
    a = np.array(nodes, dtype=np.intp).reshape(-1, 7)
    a = a[np.argsort(a[:, 0], kind="stable")]  # by level, by position within one
    keys = np.array(root_keys, dtype=np.intp).reshape(-1, 2, 2)
    return nc.TreeSchedule(n_leaves, base[a[:, [1, 3]]] + a[:, [2, 4]], a[:, 5:],
                           level_sizes, base[keys[..., 0]] + keys[..., 1])


def reference_leaves_and_labels(tree):
    """(leaf texts left to right, each internal node's two child labels in
    post-order) of ``tree``, by recursion."""
    if isinstance(tree, Leaf):
        return [tree.text], []
    left_texts, left_labels = reference_leaves_and_labels(tree.left)
    right_texts, right_labels = reference_leaves_and_labels(tree.right)
    return (left_texts + right_texts,
            left_labels + right_labels + [tree.left_label, tree.right_label])


def reference_validate_tree(tree: RstTree) -> list[Violation]:
    """Structural checks; an empty result means the tree is usable."""
    violations: list[Violation] = []
    leaves = 0
    stack: list[tuple[RstTree, str]] = [(tree, "")]
    while stack:
        node, path = stack.pop()
        if isinstance(node, Leaf):
            leaves += 1
            if not node.text.strip():
                violations.append(Violation("EmptyEduText", path))
        else:
            for lab in (node.left_label, node.right_label):
                if not lab.relation:
                    violations.append(Violation("EmptyRelation", path))
            stack.append((node.right, path + "R"))
            stack.append((node.left, path + "L"))
    if leaves < 2:
        violations.append(Violation("DegenerateTree", ""))
    violations.sort()
    return violations


def reference_stack(vectors, dimension, tokens):
    """The word vectors of ``tokens`` from the token -> vector dict
    ``vectors``, one token at a time, zeros for a token it lacks: a
    (len(tokens), dimension) array."""
    return np.array([vectors.get(tok, np.zeros(dimension)) for tok in tokens],
                    dtype=np.float64).reshape(len(tokens), dimension)


def class_label_distribution(cfg, klass):
    """Exact per-label probabilities the generator samples from for ``klass``."""
    n = len(cfg.labels)
    probs = {lab: (1.0 - cfg.signal_strength) / n for lab in cfg.labels}
    if klass in (2, 3):
        third = max(1, n // 3)  # class 3 favours the first third, class 2 the second
        subset = cfg.labels[:third] if klass == 3 else cfg.labels[third:2 * third]
        for lab in subset:
            probs[lab] += cfg.signal_strength / len(subset)
    else:
        probs = {lab: 1.0 / n for lab in cfg.labels}
    return probs


def reference_report(counts):
    """The report of a 3x3 confusion matrix (rows true classes, columns
    predicted), one class at a time with 0/0 := 0: the per-class loop that
    ``metrics.report`` replaced with array operations."""
    def safe_div(num, den):
        return num / den if den > 0 else 0.0

    counts = np.asarray(counts)
    total = int(counts.sum())
    precision, recall, f1, support = {}, {}, {}, {}
    for c in CLASSES:
        i = c - 1
        tp = float(counts[i, i])
        precision[c] = safe_div(tp, float(counts[:, i].sum()))
        recall[c] = safe_div(tp, float(counts[i, :].sum()))
        f1[c] = safe_div(2 * precision[c] * recall[c], precision[c] + recall[c])
        support[c] = int(counts[i, :].sum())
    accuracy = float(np.trace(counts)) / total
    macro_f1 = sum(f1[c] for c in CLASSES) / len(CLASSES)
    weighted_f1 = sum(support[c] * f1[c] for c in CLASSES) / total
    return EvaluationReport(accuracy, precision, recall, f1, macro_f1,
                            weighted_f1, support, counts.tolist())


def count_parameters(bundle):
    """Exact trainable counts from tensor shapes, grouped by name prefix,
    plus a "total" entry. Word vectors are frozen and never appear."""
    counts = {}
    for name, t in bundle.items():
        component = name.split(".", 1)[0]
        counts[component] = counts.get(component, 0) + t.data.size
    counts["total"] = sum(t.data.size for _, t in bundle.items())
    return counts


# --- object trees -------------------------------------------------------------


@dataclass(frozen=True)
class Leaf:
    text: str


@dataclass(frozen=True)
class Internal:
    left: "RstTree"
    right: "RstTree"
    left_label: NodeLabel
    right_label: NodeLabel


RstTree = Union[Leaf, Internal]

_EMPTY_EDU = (Violation("EmptyEduText", ""),)


def reference_flatten(tree: RstTree) -> TreeShape:
    """``tree`` in flat form, from one iterative post-order walk (trees from
    real parsers can be deep)."""
    walk = []  # pre-order with right children first: post-order reversed
    stack = [tree]
    while stack:
        node = stack.pop()
        walk.append(node)
        if type(node) is Internal:
            stack += (node.left, node.right)
    # done: (height, position, violations with paths from it) of each
    # subtree awaiting a parent
    leaves, labels, nodes, done = [], [], [], []
    counts = [0] * len(walk)  # the internal nodes of each height so far
    for node in reversed(walk):
        if type(node) is Leaf:
            done.append((0, len(leaves), () if node.text.strip() else _EMPTY_EDU))
            leaves.append(node.text)
            continue
        right_height, right_position, right_bad = done.pop()
        left_height, left_position, left_bad = done.pop()
        height = max(left_height, right_height) + 1
        nodes.append((height, left_height, right_height, left_position, right_position))
        pair = (node.left_label, node.right_label)
        labels += pair
        bad = ()
        if left_bad or right_bad or not (pair[0].relation and pair[1].relation):
            bad = (*(Violation("EmptyRelation", "") for lab in pair if not lab.relation),
                   *(Violation(code, "L" + path) for code, path in left_bad),
                   *(Violation(code, "R" + path) for code, path in right_bad))
        done.append((height, counts[height], bad))
        counts[height] += 1
    bad = done.pop()[2] + ((Violation("DegenerateTree", ""),) if len(leaves) < 2 else ())
    root = nodes.pop()[1:] if nodes else None
    return TreeShape(leaves, labels, np.array(nodes, dtype=np.intp).reshape(-1, 5), root,
                     sorted(bad))


def _escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"')


def reference_serialize_tree(tree: RstTree) -> str:
    """Canonical single-space serialization; inverse of
    :func:`reference_parse_tree`."""
    out: list[str] = []
    stack: list[RstTree | str] = [tree]  # nodes still to write, and the text between
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            out.append(item)
        elif isinstance(item, Leaf):
            out.append(f'(edu "{_escape(item.text)}")')
        else:
            ll, rl = item.left_label, item.right_label
            out.append(f"(rel {ll.relation}/{ll.nuclearity} "
                       f"{rl.relation}/{rl.nuclearity} ")
            stack += (")", item.right, " ", item.left)
    return "".join(out)


# --- tree parsing -------------------------------------------------------------

_LABEL_RE = re.compile(r"[A-Za-z][A-Za-z0-9-]*")


class _Token(NamedTuple):
    kind: str  # "(", ")", "/", "atom", "string"
    value: str
    pos: int  # character offset into the source


def _byte_offset(text, pos):
    return len(text[:pos].encode("utf-8"))


def _tokenize(text):
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in "()/":
            tokens.append(_Token(ch, ch, i))
            i += 1
            continue
        if ch == '"':
            start = i
            i += 1
            buf = []
            while i < n:
                ch = text[i]
                if ch == "\\":
                    if i + 1 >= n:
                        raise ParseError("unterminated escape", _byte_offset(text, i))
                    nxt = text[i + 1]
                    if nxt not in ('"', "\\"):
                        raise ParseError(f"unknown escape \\{nxt}",
                                         _byte_offset(text, i))
                    buf.append(nxt)
                    i += 2
                elif ch == '"':
                    i += 1
                    tokens.append(_Token("string", "".join(buf), start))
                    break
                else:
                    buf.append(ch)
                    i += 1
            else:
                raise ParseError("unterminated string", _byte_offset(text, start))
            continue
        m = _LABEL_RE.match(text, i)
        if m:
            tokens.append(_Token("atom", m.group(), i))
            i = m.end()
            continue
        raise ParseError(f"unexpected character {ch!r}", _byte_offset(text, i))
    return tokens


class _Parser:
    def __init__(self, text):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0

    def _fail(self, message, tok=None):
        pos = tok.pos if tok is not None else len(self.text)
        raise ParseError(message, _byte_offset(self.text, pos))

    def _next(self, expected):
        if self.i >= len(self.tokens):
            self._fail(f"unbalanced parentheses: expected {expected}, got end of input")
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def _expect(self, kind, what):
        tok = self._next(what)
        if tok.kind != kind:
            self._fail(f"expected {what}, got {tok.value!r}", tok)
        return tok

    def _label_pair(self):
        lab = self._expect("atom", "relation label")
        self._expect("/", "'/'")
        nuc = self._next("nuclearity")
        if nuc.kind != "atom" or nuc.value not in ("N", "S"):
            self._fail(f"bad nuclearity token {nuc.value!r}", nuc)
        return NodeLabel(lab.value, nuc.value)

    def parse(self):
        root = self._tree()
        if self.i < len(self.tokens):
            self._fail("unbalanced parentheses: trailing content",
                       self.tokens[self.i])
        return root

    def _tree(self):
        # Iterative: a stack of partially-built internal nodes.
        frames = []
        while True:
            self._expect("(", "'('")
            kw = self._expect("atom", "node keyword")
            if kw.value == "edu":
                s = self._expect("string", "quoted EDU text")
                if s.value == "":
                    self._fail("empty EDU string", s)
                self._expect(")", "')'")
                node = Leaf(s.value)
            elif kw.value == "rel":
                left_label = self._label_pair()
                right_label = self._label_pair()
                frames.append((left_label, right_label, []))
                continue
            else:
                self._fail(f"unknown node keyword {kw.value!r}", kw)
            while frames:
                frames[-1][2].append(node)
                if len(frames[-1][2]) < 2:
                    break
                ll, rl, children = frames.pop()
                self._expect(")", "')'")
                node = Internal(children[0], children[1], ll, rl)
            else:
                return node


def reference_parse_tree(text):
    """The token-by-token parser that ``rst_data.parse_tree`` replaces: the
    whole line is tokenized first (so a lexical error anywhere wins), then a
    recursive-descent pass over the tokens builds the object tree. The
    reference for its error messages and byte offsets, and, through
    :func:`reference_flatten`, for its flat forms."""
    return _Parser(text).parse()


# --- finite differences -------------------------------------------------------

FD_STEP = 1e-5
FD_REL_TOL = 1e-4
# below this magnitude the FD estimate is noise-dominated; require absolute
# agreement at the central-difference noise floor instead
FD_TINY = 1e-5
FD_ABS_TOL = 1e-9


def finite_difference_gradients(loss_fn, bundle, step=FD_STEP):
    """Central-difference d(loss)/d(theta) for every bundle entry."""
    grads = {}
    for name, tensor in bundle.items():
        flat = tensor.data.ravel()
        g = np.zeros_like(flat)
        for j in range(flat.size):
            orig = flat[j]
            flat[j] = orig + step
            up = loss_fn()
            flat[j] = orig - step
            down = loss_fn()
            flat[j] = orig
            g[j] = (up - down) / (2.0 * step)
        grads[name] = g.reshape(tensor.data.shape)
    return grads


def gradient_mismatches(analytic, numeric, rel_tol=FD_REL_TOL,
                        tiny=FD_TINY, abs_tol=FD_ABS_TOL):
    """Entries where analytic and FD gradients disagree.

    Relative error is checked where either magnitude exceeds ``tiny``;
    smaller entries must agree within the FD noise floor ``abs_tol``.
    """
    bad = []
    for name in analytic:
        a = analytic[name].ravel()
        f = numeric[name].ravel()
        for j in range(a.size):
            scale = max(abs(a[j]), abs(f[j]))
            diff = abs(a[j] - f[j])
            if scale >= tiny:
                if diff / scale >= rel_tol:
                    bad.append((name, j, a[j], f[j], diff / scale))
            elif diff >= abs_tol:
                bad.append((name, j, a[j], f[j], diff))
    return bad


# --- generator calibration ----------------------------------------------------


def label_histogram_centroid_accuracy(train_docs, test_docs, label_space,
                                      labels_of) -> float:
    """Nearest-centroid classification on per-document label histograms."""
    index = {lab: k for k, lab in enumerate(label_space)}

    def hist(doc):
        h = np.zeros(len(index))
        for lab in labels_of(doc):
            h[index[lab]] += 1.0
        total = h.sum()
        return h / total if total else h

    centroids = {}
    for klass in (1, 2, 3):
        rows = [hist(d) for d in train_docs if d.label == klass]
        centroids[klass] = np.mean(rows, axis=0) if rows else np.zeros(len(index))
    correct = 0
    for doc in test_docs:
        h = hist(doc)
        pred = min(centroids, key=lambda k: float(np.sum((h - centroids[k]) ** 2)))
        correct += int(pred == doc.label)
    return correct / len(test_docs)
