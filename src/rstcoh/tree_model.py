"""Bottom-up TreeLSTM document encoder over discourse trees.

Each internal node combines its children through the 2-ary case of
numcore's gated cell (forget gates f_l, f_r): all five gates read the
concatenation z = [h_l; h_r; r_l; r_r], where r_l/r_r are learned
embeddings of the children's (relation, nuclearity) labels,

    i   = sigmoid(W_i z + b_i)
    f_l = sigmoid(W_fl z + b_fl)
    f_r = sigmoid(W_fr z + b_fr)
    o   = sigmoid(W_o z + b_o)
    u   = tanh(W_u z + b_u)
    c   = i*u + f_l*c_l + f_r*c_r
    h   = o*tanh(c)

The hidden states h_l, h_r of the root's two children are the document
representation; ``trainer.build_model`` puts the softmax head on top of
them (rst) or of them and the ParSeq vector (ensemble). A feature row is
one of the four strings in :data:`FEATURE_ROWS`, from ``"t"`` to
``"t,ns,r,e"``: NS keys label embeddings by nuclearity alone, R by the
combined relation_nuclearity label, E turns the leaf EDU encoder on; with
``t`` alone the output is a function of tree shape only. The row is
fixed when the model is built: :func:`init_tree_model` picks the label
table and the map from a label to its row (one dict lookup keyed on the
label for R, on its nuclearity for NS, a constant 0 for t), and the EDU
encoder is there or not, so :func:`encode_trees` decides nothing per call.

A batch of documents takes at most two recording calls, whatever its size.
:func:`encode_trees` walks each tree once into a level schedule (a level is
the set of internal nodes of equal height), runs all the batch's EDUs
through one packed LSTM pass when E is on (their word vectors are one
gather), and hands the schedule to
``numcore.run_tree``, which applies the cell once per level (dynamic
batching, Looks et al. 2017; a tree as a flat schedule, as in SPINN,
Bowman et al. 2016). This module owns the mapping from trees to index
arrays; numcore sees only the arrays. The EDUs' tokens come from
``Document.edus``: this module never tokenizes.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Callable, NamedTuple, Sequence

import numpy as np

from . import numcore as nc
from .corpus import Document, WordVectors
from .errors import ConfigError, DataError
from .rst_data import Internal, Leaf, NodeLabel, RelationVocabulary, RstTree


# The ablation's feature rows, each the one before with one feature added:
# every config, flag, checkpoint and table holds a row as one of these.
FEATURE_ROWS = ("t", "t,ns", "t,ns,r", "t,ns,r,e")


@dataclass
class TreeModelParams:
    cell: nc.CellParams  # 2 children, over [h_l; h_r; r_l; r_r]
    table: nc.Tensor | None  # the feature row's label table; None for t
    # the rows in ``table`` of a list of child labels, as one list
    label_rows: Callable[[list[NodeLabel]], list[int]]
    edu: nc.CellParams | None = None  # LSTM over the EDU's word vectors


def init_tree_model(bundle: nc.ParameterBundle, rng: np.random.Generator,
                    features: str, vocab: RelationVocabulary | None,
                    hidden_size: int, relation_dim: int) -> TreeModelParams:
    """Register the tree cell, then the label table the feature row
    ``features`` (one of :data:`FEATURE_ROWS`) uses.

    R keys the table ``relation_table`` (vocabulary size rows, row 0 the
    UNK row for labels unseen at vocabulary build time) on the combined
    label, NS keys ``nuclearity_table`` (rows N then S) on nuclearity
    alone; with both off there is no table and the label slots of the cell
    input stay zero. The EDU encoder is registered by the caller, after the
    head, so that the registration order (and with it the RNG draws and the
    checkpoint layout) stays tree, table, head, EDU LSTM.
    """
    cell = nc.init_cell(bundle, "tree", rng, 2 * hidden_size + 2 * relation_dim,
                        hidden_size, 2)
    used = features.split(",")
    if "r" in used:
        if vocab is None:
            raise ConfigError("relation embeddings need a vocabulary")
        rows = vocab.rows
        return TreeModelParams(cell, bundle.add(
            "relation_table", nc.embedding_init(rng, (vocab.size, relation_dim))),
            lambda labels: [rows.get(label, 0) for label in labels])
    if "ns" in used:
        by_nuclearity = {"N": 0, "S": 1}
        return TreeModelParams(cell, bundle.add(
            "nuclearity_table", nc.embedding_init(rng, (2, relation_dim))),
            lambda labels: [by_nuclearity[label.nuclearity] for label in labels])
    return TreeModelParams(cell, None, lambda labels: [0] * len(labels))


class TreeSchedule(NamedTuple):
    """A batch of trees as the index arrays :func:`numcore.run_tree` reads.

    Rows 0..leaves-1 of the state table are the leaves, left to right
    and tree after tree; the internal nodes below the roots follow, level
    by level (a node's level is its height; leaves have height 0), with
    ``level_sizes[k]`` nodes of height k+1. Row i of ``children`` holds the
    state-table rows of the i-th internal node's left and right children,
    and row i of ``labels`` the label-table rows of those children's
    labels. ``roots`` holds the rows of each tree's two root children. The
    root itself is not computed: its children's states are the document
    representation.
    """

    leaves: int
    children: np.ndarray  # (N, 2)
    labels: np.ndarray  # (N, 2)
    level_sizes: list[int]
    roots: np.ndarray  # (B, 2)


def tree_schedule(trees: Sequence[RstTree],
                  label_rows: Callable[[list[NodeLabel]], list[int]]) -> TreeSchedule:
    """Level schedule of ``trees``, one iterative post-order walk per tree.

    ``label_rows`` maps all the batch's child labels to their label-table
    rows in one call, after the walk.
    """
    n_leaves = 0
    level_sizes: list[int] = []
    # (height, left height, left position, right height, right position)
    # of each internal node, in walk order, and its children's labels; a
    # position counts the nodes of one height
    nodes = []
    labels: list[NodeLabel] = []
    root_keys = []
    for tree in trees:
        if not isinstance(tree, Internal):
            raise DataError("document tree has a single EDU")
        done: list[tuple[int, int]] = []  # (height, position) of finished subtrees
        stack: list[tuple[RstTree, bool]] = [(tree.right, False), (tree.left, False)]
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
                nodes.append((height, *left, *right))
                labels += (node.left_label, node.right_label)
                done.append((height, level_sizes[height - 1]))
                level_sizes[height - 1] += 1
        root_keys.append(done)
    base = np.cumsum([0, n_leaves] + level_sizes)  # first row of each height
    a = np.array(nodes, dtype=np.intp).reshape(-1, 5)
    order = np.argsort(a[:, 0], kind="stable")  # by level, by position within one
    a = a[order]
    rows = np.array(label_rows(labels), dtype=np.intp).reshape(-1, 2)[order]
    keys = np.array(root_keys, dtype=np.intp).reshape(-1, 2, 2)
    return TreeSchedule(n_leaves, base[a[:, [1, 3]]] + a[:, [2, 4]], rows,
                        level_sizes, base[keys[..., 0]] + keys[..., 1])


def encode_trees(docs: Sequence[Document], params: TreeModelParams,
                 wv: WordVectors | None) -> tuple[nc.Tensor, nc.Tensor]:
    """h and c of each document tree's two root children, (B, 2H) each: row
    b is [left; right] of document b, and its h is the document
    representation.

    Leaves are zero states, or with E on (``params.edu`` set) the final
    states of one packed LSTM pass over every document's ``edus``, from
    the zero state; one :func:`numcore.run_tree` call runs every internal
    node below the roots. ``wv`` is read only with E on.
    """
    sched = tree_schedule([doc.tree for doc in docs], params.label_rows)
    if params.edu is not None:
        edus = list(chain.from_iterable(doc.edus for doc in docs))
        x = nc.constant(wv.stack(list(chain.from_iterable(edus))))
        leaf_h, leaf_c = nc.run_lstms(x, list(map(len, edus)), params.edu)
    else:
        leaf_h = leaf_c = nc.zeros(sched.leaves, params.cell.hidden_size)
    return nc.run_tree(leaf_h, leaf_c, sched.children, sched.labels, sched.level_sizes,
                       sched.roots, params.table, params.cell)
