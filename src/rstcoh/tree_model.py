"""Bottom-up TreeLSTM coherence classifier over discourse trees.

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

At the root, the children's hidden states concatenate into the document
vector d = [h_l; h_r] which feeds an affine layer and a softmax over the
three coherence classes. Feature switches: NS keys label embeddings by
nuclearity alone, R by the combined relation_nuclearity label, E turns the
leaf EDU encoder on; with everything off the output is a function of tree
shape only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numcore as nc
from .corpus import WordVectors, tokenize
from .edu_encoder import encode_edu
from .errors import ConfigError, DegenerateTreeError, ValidationError
from .rst_data import Internal, Leaf, NodeLabel, Nuclearity, RelationVocabulary, RstTree

N_CLASSES = 3


@dataclass(frozen=True)
class AblationConfig:
    """Feature switches. Only the nested rows t ⊆ t,ns ⊆ t,ns,r ⊆ t,ns,r,e
    are legal; tree traversal itself is always on."""

    ns: bool = False
    r: bool = False
    e: bool = False

    @property
    def t(self) -> bool:
        return True

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
class Affine:
    w: nc.Tensor
    b: nc.Tensor

    def apply(self, x: nc.Tensor) -> nc.Tensor:
        return nc.add(nc.matvec(self.w, x), self.b)


@dataclass
class TreeModelParams:
    hidden_size: int
    relation_dim: int
    cell: nc.CellParams  # forget gates fl, fr over [h_l; h_r; r_l; r_r]
    relation_table: nc.Tensor | None  # (vocab size, relation_dim), row 0 = UNK
    nuclearity_table: nc.Tensor | None  # (2, relation_dim), rows N then S
    classifier: Affine | None  # (3, 2*hidden)
    edu: nc.CellParams | None  # LSTM over the EDU's word vectors


def init_tree_model(bundle: nc.ParameterBundle, rng: np.random.Generator,
                    abl: AblationConfig, vocab: RelationVocabulary | None,
                    hidden_size: int, relation_dim: int, wv_dim: int,
                    with_classifier: bool = True) -> TreeModelParams:
    """Allocate only what the feature row uses, in a fixed registration order."""
    abl.validate()
    cell = nc.init_cell(bundle, "tree", rng, 2 * hidden_size + 2 * relation_dim,
                        hidden_size, ("fl", "fr"))
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
    classifier = None
    if with_classifier:
        classifier = Affine(
            bundle.add("classifier.w", nc.glorot(rng, (N_CLASSES, 2 * hidden_size))),
            bundle.add("classifier.b", np.zeros(N_CLASSES)))
    edu = None
    if abl.e:
        edu = nc.init_lstm_cell(bundle, "edu", rng, wv_dim, hidden_size)
    return TreeModelParams(hidden_size, relation_dim, cell,
                           relation_table, nuclearity_table, classifier, edu)


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


def _leaf_state(leaf: Leaf, params: TreeModelParams, wv: WordVectors | None,
                abl: AblationConfig) -> tuple[nc.Tensor, nc.Tensor]:
    if not abl.e:
        return nc.zeros(params.hidden_size), nc.zeros(params.hidden_size)
    assert params.edu is not None
    tokens = tokenize(leaf.text)
    if not tokens:
        raise ValidationError(f"EDU {leaf.text!r} has no tokens")
    if wv is None:
        raise ConfigError("EDU embeddings need word vectors")
    return encode_edu(tokens, wv, params.edu)


def encode_subtree(tree: RstTree, params: TreeModelParams, wv: WordVectors | None,
                   abl: AblationConfig,
                   vocab: RelationVocabulary | None = None) -> tuple[nc.Tensor, nc.Tensor]:
    """Bottom-up (h, c) encoding; every node is computed exactly once."""
    results: list[tuple[nc.Tensor, nc.Tensor]] = []
    stack: list[tuple[RstTree, bool]] = [(tree, False)]
    while stack:
        node, expanded = stack.pop()
        if isinstance(node, Leaf):
            results.append(_leaf_state(node, params, wv, abl))
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
        raise DegenerateTreeError("document tree has a single EDU")
    h_l, _ = encode_subtree(tree.left, params, wv, abl, vocab)
    h_r, _ = encode_subtree(tree.right, params, wv, abl, vocab)
    return h_l, h_r


def classify_document(tree: RstTree, params: TreeModelParams,
                      wv: WordVectors | None, abl: AblationConfig,
                      vocab: RelationVocabulary | None = None) -> nc.Tensor:
    """Softmax distribution over coherence classes 1/2/3 for one document."""
    if params.classifier is None:
        raise ConfigError("model has no classification head")
    h_l, h_r = root_children_states(tree, params, wv, abl, vocab)
    d = nc.concat((h_l, h_r))
    return nc.softmax(params.classifier.apply(d))


def count_parameters(bundle: nc.ParameterBundle) -> dict[str, int]:
    """Exact trainable counts from tensor shapes, grouped by name prefix,
    plus a "total" entry. Word vectors are frozen and never appear."""
    counts: dict[str, int] = {}
    for name, t in bundle.items():
        component = name.split(".", 1)[0]
        counts[component] = counts.get(component, 0) + t.data.size
    counts["total"] = sum(t.data.size for t in bundle.tensors())
    return counts
