"""Service configuration and the ``refresh_mode`` correctness axis.

``refresh_mode`` selects between two interchangeable engines with
byte-identical output, one fast (``incremental`` — fold the batch into the
live state via delta products) and one reference oracle (``recompute`` —
rerun :func:`~repro.core.pipeline.run_pipeline` from scratch on the
concatenated reads).  ``"auto"`` defers to the :data:`REFRESH_MODE_ENV`
environment variable so CI can pin either engine across a whole test leg.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

from ..core.pipeline import PipelineConfig

__all__ = ["REFRESH_MODES", "REFRESH_MODE_ENV", "DEFAULT_REFRESH_MODE",
           "resolve_refresh_mode", "ServiceConfig"]

#: Refresh engine names accepted by ``ServiceConfig.refresh_mode`` (plus
#: ``"auto"``, which resolves through :func:`resolve_refresh_mode`).
REFRESH_MODES = ("incremental", "recompute")

#: Environment variable consulted by ``refresh_mode="auto"``.
REFRESH_MODE_ENV = "REPRO_REFRESH_MODE"

#: What ``"auto"`` resolves to when the environment does not override it.
DEFAULT_REFRESH_MODE = "incremental"


def resolve_refresh_mode(mode: str | None = None) -> str:
    """Resolve a refresh mode to ``"incremental"`` or ``"recompute"``.

    ``None`` and ``"auto"`` defer to :data:`REFRESH_MODE_ENV` when set, else
    pick :data:`DEFAULT_REFRESH_MODE`; explicit names pass through
    validated.  Both engines produce byte-identical states — the switch is
    a pure performance axis, with ``recompute`` kept as the oracle.
    """
    if mode is None:
        mode = "auto"
    if mode == "auto":
        env = os.environ.get(REFRESH_MODE_ENV, "").strip().lower()
        mode = env if env and env != "auto" else DEFAULT_REFRESH_MODE
    if mode not in REFRESH_MODES:
        raise ValueError(f"unknown refresh mode {mode!r}; expected one of "
                         f"{', '.join(REFRESH_MODES + ('auto',))}")
    return mode


@dataclass(frozen=True)
class ServiceConfig:
    """Tunables of one incremental assembly service instance.

    ``pipeline`` carries the full :class:`PipelineConfig` axis set (k,
    nprocs, engines, executor...); whatever ``overlap_mode`` it names, the
    service runs the monolithic candidate path — the incremental engine
    splices delta rows into the *monolithic* R and the blocked mode is a
    batch-memory optimization with no meaning for delta-sized products.
    ``cache_entries`` bounds the query cache's LRU capacity.
    """

    host: str = "127.0.0.1"
    port: int = 8765
    refresh_mode: str = "auto"
    cache_entries: int = 256
    pipeline: PipelineConfig = field(default_factory=PipelineConfig)
