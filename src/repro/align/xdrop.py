"""Seed-and-extend x-drop alignment: scoring, results, shared constants.

diBELLA 2D runs a seed-and-extend alignment (SeqAn's x-drop) on every
candidate pair from ``C`` (paper Section IV-D): starting from a shared k-mer
seed, extend left and right and stop a direction once its running best
score drops more than ``x`` below the best seen.  The returned score and
updated coordinates feed the score threshold prune and, crucially, the
overhang/orientation computation of the transitive reduction.

The engines live in :mod:`repro.align.batch` (the batched Landau–Vishkin
sweep and the chain estimate) and :mod:`repro.align.native` (the compiled
kernel behind it).  This module holds what they share: the scoring scheme,
the alignment record, and the greedy engines' sentinel and snake-slide
chunk.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["Scoring", "AlignmentResult", "LV_NEG", "SNAKE_CHUNK"]

#: "Dead cell" sentinel of the greedy LV engines: far below any reachable
#: furthest point or match count, far above int64 overflow even after the
#: recurrence adds small offsets.  Shared by the numpy batch sweep
#: (:mod:`repro.align.batch`) and the compiled kernel (``_xdrop.c``) so
#: both prune on identical values.
LV_NEG = np.int64(-(2 ** 50))

#: Characters compared per snake-slide gulp of the numpy sweep.
SNAKE_CHUNK = 16


@dataclass(frozen=True)
class Scoring:
    """Alignment scoring scheme (defaults follow BELLA: 1/-1/-1, x=50)."""

    match: int = 1
    mismatch: int = -1
    gap: int = -1
    xdrop: int = 50


@dataclass
class AlignmentResult:
    """Outcome of a seed-and-extend alignment of reads *a* and *b*.

    ``(ba, ea)`` / ``(bb, eb)`` are the half-open aligned ranges on *a* and
    on the *oriented* *b* (reverse-complemented when ``strand == 1``).
    """

    score: int
    ba: int
    ea: int
    bb: int
    eb: int
    strand: int
