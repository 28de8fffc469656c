"""Build-on-first-use loader for the compiled x-drop kernel (``_xdrop.c``).

:func:`repro.align.batch.extend_seeds_xdrop_batch` runs every extension
problem through :func:`xdrop_extend_compiled` when the kernel is available
and through the numpy :func:`~repro.align.batch.xdrop_extend_batch`
otherwise; both give identical results, the compiled one 20× or more faster.

Nothing happens at import.  The first :func:`load` compiles ``_xdrop.c``
with the standard C compiler (``CC``, else the one Python was built with)
into the user cache directory — ``$XDG_CACHE_HOME/repro``, else
``~/.cache/repro``, else a temporary directory — under a name keyed by the
SHA-256 of the source, the compile command and the platform, so later runs
and other worker processes just load it.  The compiler writes to a private
temporary name that is atomically renamed into place, so concurrent
workers never see a half-written library.  The library is loaded with
:class:`ctypes.CDLL`, which releases the GIL for each call: thread workers
extend their chunks in parallel.

If no compiler is found or the build or load fails, the reason is kept
(:func:`kernel_name` reports it, and so does ``repro stats``) and the numpy
engine runs instead.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shlex
import shutil
import subprocess
import sysconfig
import tempfile
import threading
from pathlib import Path

import numpy as np

from .xdrop import Scoring

__all__ = ["compiler", "load", "kernel_name", "xdrop_extend_compiled"]

#: The kernel's C source, shipped beside this module.
SOURCE = Path(__file__).with_name("_xdrop.c")

#: Flags of the one compile command (plus ``-o``).
CFLAGS = ("-O2", "-shared", "-fPIC")

_lock = threading.Lock()
#: ``None`` until the first :func:`load`; then ``(library | None, reason)``.
_state: tuple[ctypes.CDLL | None, str] | None = None


def compiler() -> list[str] | None:
    """The C compiler command, or ``None`` when none works.

    ``CC`` wins when set and non-empty, else ``sysconfig``'s ``CC``.  The
    probe runs ``<cc> --version``, so a missing or stubbed-out compiler
    (``CC=/bin/false``) counts as absent.
    """
    cmd = shlex.split(os.environ.get("CC") or
                      sysconfig.get_config_var("CC") or "cc")
    if not cmd or shutil.which(cmd[0]) is None:
        return None
    try:
        probe = subprocess.run([*cmd, "--version"], stdout=subprocess.DEVNULL,
                               stderr=subprocess.DEVNULL, timeout=60)
    except (OSError, subprocess.SubprocessError):
        return None
    return cmd if probe.returncode == 0 else None


def _cache_dir() -> Path:
    """First writable of ``$XDG_CACHE_HOME/repro``, ``~/.cache/repro`` and a
    per-user temporary directory."""
    candidates = []
    if os.environ.get("XDG_CACHE_HOME"):
        candidates.append(Path(os.environ["XDG_CACHE_HOME"]) / "repro")
    candidates.append(Path.home() / ".cache" / "repro")
    candidates.append(Path(tempfile.gettempdir()) / f"repro-{os.getuid()}")
    for path in candidates:
        try:
            path.mkdir(parents=True, exist_ok=True)
        except OSError:
            continue
        if os.access(path, os.W_OK):
            return path
    raise OSError("no writable cache directory for the compiled kernel")


def _build(cmd: list[str]) -> Path:
    """Compile the kernel into the cache (once per source/command/platform)."""
    src = SOURCE.read_bytes()
    key = hashlib.sha256(b"\0".join(
        [src, " ".join(cmd + list(CFLAGS)).encode(),
         sysconfig.get_platform().encode()])).hexdigest()[:20]
    suffix = sysconfig.get_config_var("SHLIB_SUFFIX") or ".so"
    out_dir = _cache_dir()
    lib = out_dir / f"_xdrop-{key}{suffix}"
    if lib.is_file():
        return lib
    fd, tmp = tempfile.mkstemp(prefix=lib.name + ".", suffix=".tmp",
                               dir=out_dir)
    os.close(fd)
    try:
        proc = subprocess.run([*cmd, *CFLAGS, "-o", tmp, str(SOURCE)],
                              stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                              text=True, timeout=300)
        if proc.returncode != 0:
            msg = f"{cmd[0]} exited with status {proc.returncode}"
            lines = proc.stdout.strip().splitlines()
            raise RuntimeError(f"{msg}: {lines[0]}" if lines else msg)
        os.replace(tmp, lib)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return lib


def _open() -> tuple[ctypes.CDLL | None, str]:
    cmd = compiler()
    if cmd is None:
        return None, (f"no working C compiler "
                      f"(CC={os.environ.get('CC') or 'unset'})")
    try:
        lib = ctypes.CDLL(str(_build(cmd)))
        fn = lib.repro_xdrop_extend_batch
    except (OSError, RuntimeError, subprocess.SubprocessError,
            AttributeError) as exc:
        return None, f"build failed: {exc}"
    fn.restype = ctypes.c_int
    fn.argtypes = ([ctypes.c_void_p, ctypes.c_int64] +
                   [ctypes.c_void_p] * 7 + [ctypes.c_int64] * 4 +
                   [ctypes.c_void_p] * 3)
    return lib, "compiled"


def load() -> ctypes.CDLL | None:
    """The compiled kernel library, building it on the first call.

    Returns ``None`` (and records why, see :func:`kernel_name`) when the
    kernel cannot be built or loaded; the outcome is cached per process.
    """
    global _state
    if _state is None:
        with _lock:
            if _state is None:
                _state = _open()
    return _state[0]


def kernel_name() -> str:
    """``"compiled"``, or ``"numpy (<reason>)"`` when the fallback runs."""
    load()
    lib, reason = _state
    return reason if lib is not None else f"numpy ({reason})"


def _i64(x: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(x, dtype=np.int64)


def _check_views(n_codes: int, base: np.ndarray, step: np.ndarray,
                 length: np.ndarray, used: np.ndarray) -> None:
    """Raise unless every used view stays inside the code buffer (the C
    kernel reads through raw pointers, where numpy would raise)."""
    last = base + (length - 1) * step
    inside = (base >= 0) & (base < n_codes) & (last >= 0) & (last < n_codes)
    if not inside[used].all():
        p = int(np.flatnonzero(used & ~inside)[0])
        raise ValueError(f"x-drop problem {p}: view (base {base[p]}, step "
                         f"{step[p]}, length {length[p]}) leaves the "
                         f"{n_codes}-byte code buffer")


def xdrop_extend_compiled(lib: ctypes.CDLL, codes: np.ndarray,
                          s_base: np.ndarray, s_step: np.ndarray,
                          s_len: np.ndarray, t_base: np.ndarray,
                          t_step: np.ndarray, t_len: np.ndarray,
                          t_xor: np.ndarray, sc: Scoring
                          ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`~repro.align.batch.xdrop_extend_batch` on the compiled kernel.

    Same arguments and results; ``lib`` comes from :func:`load`.
    """
    codes = np.ascontiguousarray(codes, dtype=np.uint8)
    cols = [_i64(x) for x in (s_base, s_step, s_len, t_base, t_step, t_len,
                              t_xor)]
    n_prob = cols[0].shape[0]
    if any(c.shape != (n_prob,) for c in cols):
        raise ValueError("x-drop batch columns differ in length")
    sb, ss, sl, tb, ts, tl, _ = cols
    used = (sl > 0) & (tl > 0)
    _check_views(codes.shape[0], sb, ss, sl, used)
    _check_views(codes.shape[0], tb, ts, tl, used)
    outs = [np.zeros(n_prob, dtype=np.int64) for _ in range(3)]
    rc = lib.repro_xdrop_extend_batch(
        codes.ctypes.data, n_prob, *(c.ctypes.data for c in cols),
        sc.match, sc.mismatch, sc.gap, sc.xdrop,
        *(o.ctypes.data for o in outs))
    if rc != 0:
        raise MemoryError("x-drop kernel could not allocate its window")
    return outs[0], outs[1], outs[2]
