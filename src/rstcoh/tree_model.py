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
:func:`encode_trees` joins the documents' flat trees (``Document.shape``,
which ``rst_data.parse_tree`` makes from the tree text ``Document.tree``
in the one walk of a tree) into one ``numcore.TreeSchedule``, whose
docstring gives the state-table layout, runs all the batch's EDUs through
one packed LSTM pass when E is on (their word vectors are one gather), and
hands the schedule to ``numcore.run_tree``, which applies the cell once
per level (dynamic batching, Looks et al. 2017; a tree as a flat
schedule, as in SPINN, Bowman et al. 2016). This module owns the join of
flat trees into index arrays and walks no tree; numcore sees only the
arrays. The EDUs' tokens come from ``Document.edus``: this module never
tokenizes.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Callable, Sequence

import numpy as np

from . import numcore as nc
from .corpus import Document, WordVectors
from .errors import ConfigError, DataError
from .rst_data import NodeLabel, RelationVocabulary, TreeShape


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


def tree_schedule(shapes: Sequence[TreeShape],
                  label_rows: Callable[[list[NodeLabel]], list[int]]) -> nc.TreeSchedule:
    """Level schedule of the n trees whose flat forms are ``shapes``, joined
    with no walk: tree t's node of height h and position p takes row
    ``start[h * n + t] + p``, after all lower nodes and the height-h nodes
    of the trees before t. ``label_rows`` maps the child labels in one call."""
    if any(shape.root is None for shape in shapes):
        raise DataError("document tree has a single EDU")
    n = len(shapes)
    nodes = np.concatenate([shape.nodes for shape in shapes])
    tree = np.repeat(np.arange(n), [len(shape.nodes) for shape in shapes])
    keys = np.array([shape.root for shape in shapes], dtype=np.intp)
    # counts[h * n + t]: tree t's nodes of height h, leaves at h = 0
    counts = np.bincount(nodes[:, 0] * n + tree, minlength=(keys[:, :2].max() + 1) * n)
    counts[:n] = [len(shape.leaves) for shape in shapes]
    start = np.cumsum(counts) - counts
    totals = counts.reshape(-1, n).sum(axis=1)
    order = np.argsort(nodes[:, 0], kind="stable")  # by level, by position within one
    nodes, tree = nodes[order], tree[order]
    rows = label_rows(list(chain.from_iterable(shape.labels[:-2] for shape in shapes)))
    return nc.TreeSchedule(int(totals[0]),
                           start[nodes[:, 1:3] * n + tree[:, None]] + nodes[:, 3:],
                           np.array(rows, dtype=np.intp).reshape(-1, 2)[order],
                           totals[1:].tolist(),
                           start[keys[:, :2] * n + np.arange(n)[:, None]] + keys[:, 2:])


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
    sched = tree_schedule([doc.shape for doc in docs], params.label_rows)
    if params.edu is not None:
        edus = list(chain.from_iterable(doc.edus for doc in docs))
        x = nc.constant(wv.stack(list(chain.from_iterable(edus))))
        leaf_h, leaf_c = nc.run_lstms(x, list(map(len, edus)), params.edu)
    else:
        leaf_h = leaf_c = nc.zeros(sched.leaves, params.cell.hidden_size)
    return nc.run_tree(leaf_h, leaf_c, sched, params.table, params.cell)
