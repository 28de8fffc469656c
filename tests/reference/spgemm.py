"""Unmasked SpGEMM products: the reference for the masked overlap/TR engine.

The product forms ``C = A·Aᵀ`` as a native count product plus a
triangle-masked seed pass (:func:`repro.core.overlap.summa_positions`) and
squares ``R`` under its own pattern in transitive reduction
(:func:`repro.core.transitive_reduction.transitive_reduction`).  This module
keeps the straightforward forms they are pinned against: the full 7-field
positions product followed by a strict-upper-triangle prune, and a
reduction loop whose ``N = R²`` is the whole unmasked square.

Each function takes the same arguments as its product counterpart, so a
test can call both on one input — or substitute these for the product's
with ``monkeypatch`` to run a whole pipeline on the reference engine.
C, R, S, round counts and the communication records must be identical;
only the recorded ``TrReduction`` live set differs (the unmasked ``N``
holds more entries).
"""

from __future__ import annotations

import numpy as np

from repro.core.memory import coo_nbytes
from repro.core.semirings import BidirectedMinPlus, PositionsSemiring, \
    R_SUFFIX
from repro.core.transitive_reduction import (STAGE, TransitiveReductionResult,
                                             _mask_prune_task)
from repro.dsparse.backend import get_backend
from repro.dsparse.distmat import DistMat
from repro.dsparse.elementwise import reduce_rows
from repro.dsparse.summa import summa
from repro.exec import SERIAL
from repro.mpisim.tracker import StageTimer

__all__ = ["summa_positions", "candidate_overlaps", "transitive_reduction"]


def summa_positions(A: DistMat, At: DistMat, comm, timer, backend,
                    executor, col_offset: int = 0) -> DistMat:
    """The full positions product, then its strict upper triangle.

    ``col_offset`` shifts local columns into global coordinates for a
    blocked strip.  The recorded ``SpGEMM`` peak is the product as SUMMA
    produced it, before the prune.
    """
    C = summa(A, At, PositionsSemiring(), comm, "SpGEMM", timer,
              backend=backend, executor=executor)
    timer.record_peak_bytes("SpGEMM", coo_nbytes(C.nnz(), C.nfields))
    q = C.grid.q
    blocks = []
    for i in range(q):
        brow = []
        for j in range(q):
            b = C.blocks[i][j]
            gr = b.row + C.row_bounds[i]
            gc = b.col + C.col_bounds[j] + col_offset
            brow.append(backend.select(b, gr < gc))
        blocks.append(brow)
    return DistMat(C.shape, C.grid, blocks, C.nfields)


def candidate_overlaps(A: DistMat, comm, timer: StageTimer | None = None,
                       backend=None, executor=None) -> DistMat:
    """Unmasked :func:`repro.core.overlap.candidate_overlaps`."""
    timer = timer if timer is not None else StageTimer()
    backend = get_backend(backend)
    At = A.transpose(backend=backend)
    return summa_positions(A, At, comm, timer, backend, executor)


def transitive_reduction(R: DistMat, comm, timer: StageTimer | None = None,
                         *, fuzz: int = 150, max_rounds: int = 32,
                         backend=None, executor=None
                         ) -> TransitiveReductionResult:
    """Algorithm 2 with the whole two-hop product ``N = R²`` each round.

    Same mask + prune tasks and convergence test as the product loop; only
    the squaring is unmasked.
    """
    timer = timer if timer is not None else StageTimer()
    backend = get_backend(backend)
    executor = executor if executor is not None else SERIAL
    grid = R.grid
    q = grid.q
    ij = [(i, j) for i in range(q) for j in range(q)]
    initial = R.nnz()
    rounds = 0
    while rounds < max_rounds:
        prev = R.nnz()
        if prev == 0:
            break
        rounds += 1
        N = summa(R, R, BidirectedMinPlus(), comm, STAGE, timer,
                  backend=backend, executor=executor)
        timer.record_peak_bytes(STAGE, coo_nbytes(prev, R.nfields) +
                                coo_nbytes(N.nnz(), N.nfields))
        v = reduce_rows(R, R_SUFFIX, np.maximum, 0, comm, STAGE,
                        backend=backend) + np.int64(fuzz)
        tasks = [(R.blocks[i][j], N.blocks[i][j],
                  v[R.blocks[i][j].row + int(R.row_bounds[i])])
                 for i, j in ij]
        with timer.superstep(STAGE) as step:
            pruned, secs = executor.run_timed(
                _mask_prune_task, tasks, context=backend,
                weights=[rb.nnz + nb.nnz for rb, nb, _bound in tasks])
            step.charge_many((grid.rank_of(i, j) for i, j in ij), secs)
        R = DistMat(R.shape, grid,
                    [[pruned[i * q + j] for j in range(q)] for i in range(q)],
                    R.nfields)
        nnz_now = comm.allreduce([b.nnz for brow in R.blocks for b in brow],
                                 lambda a, b: a + b, stage=STAGE, item_bytes=8)
        if nnz_now == prev:
            break
    return TransitiveReductionResult(S=R, rounds=rounds,
                                     removed=initial - R.nnz())
