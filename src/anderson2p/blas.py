"""The thread policy: one BLAS thread per worker, one worker per CPU.

numpy's OpenBLAS starts one thread per core by default.  On the small
boxes the package decides (a few dozen to a few hundred sites) the second
thread spends more CPU than it saves, and the thread count moves the last
bits of some results, so records would depend on the host and on the
caller's environment.  ``one_thread`` pins numpy's OpenBLAS to the
constant 1 for the length of a ``with`` block and puts the caller's count
back when the block ends.

The library is the ``libscipy_openblas64_`` that numpy's wheels bundle,
found among the files mapped into this process (``/proc/self/maps``) and
reached through ``ctypes``.  Where it is not found (another BLAS build, or
no ``/proc``), the block runs unpinned and its policy record says so.

While the pin holds, ``ordered_map`` spreads independent work items (the
seeds and trials of a run) over one worker thread per CPU the process may
use, and returns their results in index order, so records do not depend
on the worker count.  Threads rather than processes: numpy's LAPACK calls
release the GIL and take most of a trial, so one trial's LAPACK overlaps
the next one's Python, whereas a fresh interpreter costs about as much as
a whole CLI run's work, and a worker process's CPU time would not be
counted in the run's own.

Before its first helper starts, ``ordered_map`` has glibc's malloc keep
freed memory in the process (``keep_freed_memory``).  By default glibc
hands the few megabytes a trial allocates back to the kernel and faults
them in again for the next trial (about 500 page faults per benchmark
``counter`` trial, 360 per ``inductive`` seed).  In a process with two
running threads, every return makes the kernel flush the other CPU's
TLB and wait for it; on a virtual machine whose CPUs are shared with
other guests, that wait lasts until the hypervisor runs the other CPU,
so two workers on ``inductive`` seeds were anywhere from 0.6x to 1.6x
one worker from one pass to the next.
"""

from __future__ import annotations

import ctypes
import functools
import os
import sys
import threading
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Iterator, Optional, Sequence

import numpy  # noqa: F401  (maps the library this module looks up)

#: file-name prefix of numpy's bundled OpenBLAS; its entry points carry
#: the ``scipy_openblas_`` prefix and the ``64_`` suffix
_LIBRARY = "libscipy_openblas64_"

#: whether a ``one_thread`` block holds numpy's OpenBLAS at one thread;
#: module state because the library's thread count is process state
_pinned = False

#: glibc's ``mallopt`` parameters (``malloc.h``) and the values
#: ``keep_freed_memory`` sets: allocations below 4 MiB come from the heap,
#: up to 32 MiB of free heap top stays mapped, and all threads share one
#: heap
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD, _M_ARENA_MAX = -1, -3, -8
_TRIM_BYTES, _MMAP_BYTES = 32 << 20, 4 << 20


class OpenBlas:
    """numpy's OpenBLAS as loaded in this process: its thread getter and
    setter and its build configuration."""

    def __init__(self, path: str):
        # dlopen of a loaded file returns the handle numpy already uses
        lib = ctypes.CDLL(path)
        self.name = Path(path).name
        self._get = lib.scipy_openblas_get_num_threads64_
        self._get.argtypes, self._get.restype = [], ctypes.c_int
        self._set = lib.scipy_openblas_set_num_threads64_
        self._set.argtypes, self._set.restype = [ctypes.c_int], None
        config = lib.scipy_openblas_get_config64_
        config.argtypes, config.restype = [], ctypes.c_char_p
        self.config = config().decode()

    def threads(self) -> int:
        return self._get()

    def set_threads(self, count: int) -> None:
        self._set(count)


def loaded_openblas() -> Optional[OpenBlas]:
    """numpy's OpenBLAS, or ``None`` when no mapped file of this process
    is that library or it lacks the thread entry points."""
    try:
        with open("/proc/self/maps") as fh:
            # a mapped file's path is the sixth field and may hold spaces
            mapped = [line.split(maxsplit=5)[5:] for line in fh]
    except OSError:
        return None
    for path in sorted({f[0].strip() for f in mapped if f}):
        if Path(path).name.startswith(_LIBRARY):
            try:
                return OpenBlas(path)
            except (OSError, AttributeError):
                return None
    return None


@contextmanager
def one_thread() -> Iterator[dict]:
    """Run the block with numpy's OpenBLAS on one thread.

    Yields the policy record that the run manifest carries: the library's
    file name, its build configuration, and the thread count read back
    through the getter.  All three are ``None`` when no setter was found;
    the block then runs unpinned.  The count is the constant 1, never
    derived from the host, so results do not depend on the core count.
    """
    lib = loaded_openblas()
    if lib is None:
        yield {"library": None, "config": None, "threads": None}
        return
    global _pinned
    before, was_pinned = lib.threads(), _pinned
    lib.set_threads(1)
    _pinned = True
    try:
        yield {"library": lib.name, "config": lib.config,
               "threads": lib.threads()}
    finally:
        _pinned = was_pinned
        lib.set_threads(before)


@functools.cache
def keep_freed_memory() -> bool:
    """Have glibc's malloc keep freed memory in the process for the rest
    of its life: no heap trim below ``_TRIM_BYTES`` of free top, and no
    ``mmap`` below ``_MMAP_BYTES``.  Threads started afterwards share the
    main heap: a heap per worker would keep each worker's own high-water
    mark, which raised peak RSS by about 1 MB on the benchmark chunks.
    Runs once; returns whether it took effect, ``False`` where the C
    library has no ``mallopt``.  It cannot be undone (a set value turns
    off glibc's own threshold tuning)."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return False
    mallopt.argtypes, mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
    return bool(mallopt(_M_MMAP_THRESHOLD, _MMAP_BYTES)
                and mallopt(_M_TRIM_THRESHOLD, _TRIM_BYTES)
                and mallopt(_M_ARENA_MAX, 1))


def workers() -> int:
    """Threads ``ordered_map`` runs on: one per CPU this process may use
    while ``one_thread`` holds the pin, else 1."""
    return len(os.sched_getaffinity(0)) if _pinned else 1


def ordered_map(fn: Callable, items: Sequence) -> list:
    """``[fn(x) for x in items]``, computed on ``workers()`` threads.

    The calling thread is one of them, so at most ``workers() - 1``
    threads are started, and all of them have ended when this returns.
    Items are handed out in index order, and a worker that sees a failure
    takes no new item; so every item below the lowest failing index has
    run, and that index's exception is raised, as in the plain loop.
    The helpers run under the calling thread's Python-level profile and
    trace functions (``sys.setprofile``, ``sys.settrace``), so a profiler
    set on the caller still sees every item.
    """
    count = min(workers(), len(items))
    if count <= 1:
        return [fn(x) for x in items]
    results: list = [None] * len(items)
    failures: dict[int, BaseException] = {}
    lock = threading.Lock()
    taken = 0

    def work() -> None:
        nonlocal taken
        while True:
            with lock:
                if failures or taken == len(items):
                    return
                i, taken = taken, taken + 1
            try:
                results[i] = fn(items[i])
            except BaseException as e:  # raised in the calling thread below
                with lock:
                    failures[i] = e
                return

    # C-level hooks such as cProfile's are not callable and stay behind
    profile, trace = (h if callable(h) else None
                      for h in (sys.getprofile(), sys.gettrace()))

    def helper() -> None:
        sys.setprofile(profile)
        sys.settrace(trace)
        work()

    keep_freed_memory()
    helpers = [threading.Thread(target=helper) for _ in range(count - 1)]
    for t in helpers:
        t.start()
    try:
        work()
    finally:
        with lock:
            taken = len(items)  # no new item once the caller has left
        for t in helpers:
            t.join()
    if failures:
        raise failures[min(failures)]
    return results
