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
them (rst) or of them and the ParSeq vector (ensemble). Feature switches:
NS keys label embeddings by nuclearity alone, R by the combined
relation_nuclearity label, E turns the leaf EDU encoder on (one packed
LSTM pass over all of a document's EDUs); with everything off the output
is a function of tree shape only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from . import numcore as nc
from .corpus import WordVectors, tokenize
from .edu_encoder import encode_edus
from .errors import ConfigError, DataError
from .rst_data import (Internal, Leaf, NodeLabel, Nuclearity, RelationVocabulary,
                       RstTree, leaves)


@dataclass(frozen=True)
class AblationConfig:
    """Feature switches. Only the nested rows t ⊆ t,ns ⊆ t,ns,r ⊆ t,ns,r,e
    are legal; tree traversal itself is always on."""

    ns: bool = False
    r: bool = False
    e: bool = False

    def validate(self) -> None:
        if self.r and not self.ns:
            raise ConfigError("relation embeddings require nuclearity (no R without NS)")
        if self.e and not self.r:
            raise ConfigError("EDU embeddings require relation embeddings (no E without R)")

    def features(self) -> str:
        parts = ["t"]
        if self.ns:
            parts.append("ns")
        if self.r:
            parts.append("r")
        if self.e:
            parts.append("e")
        return ",".join(parts)

    @classmethod
    def from_features(cls, spec: str) -> "AblationConfig":
        parts = [p.strip() for p in spec.lower().split(",") if p.strip()]
        if not parts or parts[0] != "t" or len(set(parts)) != len(parts) \
                or any(p not in ("t", "ns", "r", "e") for p in parts):
            raise ConfigError(f"bad feature spec {spec!r}; expected t[,ns[,r[,e]]]")
        abl = cls(ns="ns" in parts, r="r" in parts, e="e" in parts)
        abl.validate()
        if abl.features() != ",".join(parts):
            raise ConfigError(f"bad feature spec {spec!r}; expected t[,ns[,r[,e]]]")
        return abl


@dataclass
class TreeModelParams:
    hidden_size: int
    relation_dim: int
    cell: nc.CellParams  # 2 children, over [h_l; h_r; r_l; r_r]
    relation_table: nc.Tensor | None  # (vocab size, relation_dim), row 0 = UNK
    nuclearity_table: nc.Tensor | None  # (2, relation_dim), rows N then S
    edu: nc.CellParams | None = None  # LSTM over the EDU's word vectors


def init_tree_model(bundle: nc.ParameterBundle, rng: np.random.Generator,
                    abl: AblationConfig, vocab: RelationVocabulary | None,
                    hidden_size: int, relation_dim: int) -> TreeModelParams:
    """Register the tree cell, then the label table the feature row uses.

    The EDU encoder is registered by the caller, after the head, so that
    the registration order (and with it the RNG draws and the checkpoint
    layout) stays tree, table, head, EDU LSTM.
    """
    cell = nc.init_cell(bundle, "tree", rng, 2 * hidden_size + 2 * relation_dim,
                        hidden_size, 2)
    relation_table = None
    nuclearity_table = None
    if abl.r:
        if vocab is None:
            raise ConfigError("relation embeddings need a vocabulary")
        relation_table = bundle.add(
            "relation_table", nc.embedding_init(rng, (vocab.size, relation_dim)))
    elif abl.ns:
        nuclearity_table = bundle.add(
            "nuclearity_table", nc.embedding_init(rng, (2, relation_dim)))
    return TreeModelParams(hidden_size, relation_dim, cell,
                           relation_table, nuclearity_table)


def label_embedding(label: NodeLabel, params: TreeModelParams, abl: AblationConfig,
                    vocab: RelationVocabulary | None) -> nc.Tensor:
    """Embedding of a child's (relation, nuclearity) label under the feature row.

    R looks up the combined label (UNK row for labels unseen at vocabulary
    build time); NS alone keys on nuclearity; with both off the slot is a
    zero vector so the cell input layout never changes.
    """
    if abl.r:
        assert params.relation_table is not None and vocab is not None
        return nc.row(params.relation_table, vocab.index_of_label(label))
    if abl.ns:
        assert params.nuclearity_table is not None
        return nc.row(params.nuclearity_table,
                      0 if label.nuclearity is Nuclearity.N else 1)
    return nc.zeros(params.relation_dim)


def _leaf_states(leaf_nodes: list[Leaf], params: TreeModelParams,
                 wv: WordVectors | None, abl: AblationConfig) -> list[tuple[nc.Tensor, nc.Tensor]]:
    """(h, c) of each leaf: zero vectors, or with E on one packed LSTM pass
    over all the EDUs."""
    if not abl.e:
        zero = nc.zeros(params.hidden_size)
        return [(zero, zero)] * len(leaf_nodes)
    assert params.edu is not None
    if wv is None:
        raise ConfigError("EDU embeddings need word vectors")
    edus = []
    for leaf in leaf_nodes:
        tokens = tokenize(leaf.text)
        if not tokens:
            raise DataError(f"EDU {leaf.text!r} has no tokens")
        edus.append(tokens)
    return encode_edus(edus, wv, params.edu)


def encode_subtree(tree: RstTree, params: TreeModelParams, wv: WordVectors | None,
                   abl: AblationConfig, vocab: RelationVocabulary | None = None,
                   leaf_states: Iterator[tuple[nc.Tensor, nc.Tensor]] | None = None,
                   ) -> tuple[nc.Tensor, nc.Tensor]:
    """Bottom-up (h, c) encoding; every node is computed exactly once.

    ``leaf_states`` yields the (h, c) of the tree's leaves left to right;
    by default they are computed here, in one pass.
    """
    if leaf_states is None:
        leaf_states = iter(_leaf_states(leaves(tree), params, wv, abl))
    results: list[tuple[nc.Tensor, nc.Tensor]] = []
    stack: list[tuple[RstTree, bool]] = [(tree, False)]
    while stack:
        node, expanded = stack.pop()
        if isinstance(node, Leaf):
            results.append(next(leaf_states))
        elif not expanded:
            stack.append((node, True))
            stack.append((node.right, False))
            stack.append((node.left, False))
        else:
            h_r, c_r = results.pop()
            h_l, c_l = results.pop()
            r_l = label_embedding(node.left_label, params, abl, vocab)
            r_r = label_embedding(node.right_label, params, abl, vocab)
            z = nc.concat((h_l, h_r, r_l, r_r))
            results.append(nc.cell_step(z, (c_l, c_r), params.cell))
    return results[0]


def root_children_states(tree: RstTree, params: TreeModelParams,
                         wv: WordVectors | None, abl: AblationConfig,
                         vocab: RelationVocabulary | None) -> tuple[nc.Tensor, nc.Tensor]:
    """Hidden states of the root's two children (the document representation)."""
    if not isinstance(tree, Internal):
        raise DataError("document tree has a single EDU")
    states = iter(_leaf_states(leaves(tree), params, wv, abl))
    h_l, _ = encode_subtree(tree.left, params, wv, abl, vocab, states)
    h_r, _ = encode_subtree(tree.right, params, wv, abl, vocab, states)
    return h_l, h_r


def count_parameters(bundle: nc.ParameterBundle) -> dict[str, int]:
    """Exact trainable counts from tensor shapes, grouped by name prefix,
    plus a "total" entry. Word vectors are frozen and never appear."""
    counts: dict[str, int] = {}
    for name, t in bundle.items():
        component = name.split(".", 1)[0]
        counts[component] = counts.get(component, 0) + t.data.size
    counts["total"] = sum(t.data.size for t in bundle.tensors())
    return counts
