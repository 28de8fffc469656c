"""Pairwise alignment substrate: batched structure-of-arrays x-drop
seed-and-extend (with its compiled kernel) and overlap classification into
bidirected string-graph edges."""

from .xdrop import AlignmentResult, Scoring
from .batch import (chain_extend_batch, extend_seeds_xdrop_batch,
                    xdrop_extend_batch)
from .overlapper import (B_END, E_END, OverlapClass, classify_overlap,
                         classify_overlap_batch)

__all__ = [
    "AlignmentResult", "Scoring",
    "xdrop_extend_batch", "extend_seeds_xdrop_batch", "chain_extend_batch",
    "B_END", "E_END", "OverlapClass", "classify_overlap",
    "classify_overlap_batch",
]
