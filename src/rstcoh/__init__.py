"""Coherence classification over rhetorical-structure trees.

Submodules: :mod:`rstcoh.numcore` (tensors/autodiff/Adam),
:mod:`rstcoh.rst_data` (tree model and text format), :mod:`rstcoh.corpus`
(ingestion, tokenization and synthetic data), :mod:`rstcoh.tree_model`,
:mod:`rstcoh.parseq`, :mod:`rstcoh.trainer`, :mod:`rstcoh.metrics`,
:mod:`rstcoh.cli`.
"""

__version__ = "0.1.0"
