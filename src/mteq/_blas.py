"""One BLAS thread pool per solve.

numpy and scipy wheels each bundle their own OpenBLAS: numpy's ``@`` runs
on one runtime, scipy's LAPACK (QR with ``geqrt``/``gemqrt``, SVD, Cholesky,
``eigh``, LDL^T) and BLAS (the range finder's ``dgemm``) on the other. Each
starts a pool of threads, and the two pools' spinning workers contend for
the same cores. :func:`single_pool` runs numpy's pool at one thread for the
duration of a solve and leaves scipy's at its own count. It acts only when it observes two distinct runtimes; with a shared
runtime, another BLAS or missing symbols it does nothing.
"""

from __future__ import annotations

import ctypes
import os
import threading
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, NamedTuple

import numpy
import scipy
import scipy.linalg  # noqa: F401  (loads scipy's runtime before it is looked up)


#: dlopen flag that finds a library only if it is already loaded (POSIX).
_NOLOAD = getattr(os, "RTLD_NOLOAD", None)


class Runtime(NamedTuple):
    """An OpenBLAS library loaded in this process and its thread-count calls."""

    path: Path
    get_threads: Callable[[], int]
    set_threads: Callable[[int], None]


def _find(module) -> Runtime | None:
    """The OpenBLAS bundled with ``module``'s wheel, if it is loaded."""
    if _NOLOAD is None:
        return None
    libs = Path(module.__file__).resolve().parent.parent / f"{module.__name__}.libs"
    for path in sorted(libs.glob("*openblas*")):
        try:
            handle = ctypes.CDLL(str(path), mode=_NOLOAD)
        except OSError:
            continue
        for prefix, suffix in (("scipy_openblas", "64_"), ("scipy_openblas", ""),
                               ("openblas", "")):
            get = getattr(handle, f"{prefix}_get_num_threads{suffix}", None)
            set_ = getattr(handle, f"{prefix}_set_num_threads{suffix}", None)
            if get is not None and set_ is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                return Runtime(path.resolve(), get, set_)
    return None


#: numpy's and scipy's OpenBLAS, each ``None`` when it cannot be observed.
RUNTIMES: dict[str, Runtime | None] = {"numpy": _find(numpy), "scipy": _find(scipy)}

# The pool is process-wide, so is the record of who holds it.
_lock = threading.Lock()
_depth = 0
_entry_threads = 0


def _numpy_pool() -> Runtime | None:
    """numpy's runtime when scipy's LAPACK runs on a different one."""
    ours, theirs = RUNTIMES["numpy"], RUNTIMES["scipy"]
    if ours is None or theirs is None or ours.path == theirs.path:
        return None
    return ours


@contextmanager
def single_pool():
    """Run numpy's OpenBLAS at one thread inside the block.

    The count in effect on entry is restored when the block exits, also on
    an exception. Concurrent and nested blocks share one pool: only the
    last one to exit restores it.
    """
    global _depth, _entry_threads
    runtime = _numpy_pool()
    if runtime is None:
        yield
        return
    with _lock:
        if _depth == 0:
            _entry_threads = runtime.get_threads()
            runtime.set_threads(1)
        _depth += 1
    try:
        yield
    finally:
        with _lock:
            _depth -= 1
            if _depth == 0:
                runtime.set_threads(_entry_threads)


def describe() -> dict[str, dict | None]:
    """Each runtime's library file name and its thread count right now."""
    return {name: None if rt is None else
            {"library": rt.path.name, "threads": rt.get_threads()}
            for name, rt in RUNTIMES.items()}
