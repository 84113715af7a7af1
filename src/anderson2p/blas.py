"""The BLAS thread policy: every CLI run does its LAPACK on one thread.

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
"""

from __future__ import annotations

import ctypes
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator, Optional

import numpy  # noqa: F401  (maps the library this module looks up)

#: file-name prefix of numpy's bundled OpenBLAS; its entry points carry
#: the ``scipy_openblas_`` prefix and the ``64_`` suffix
_LIBRARY = "libscipy_openblas64_"


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
    before = lib.threads()
    lib.set_threads(1)
    try:
        yield {"library": lib.name, "config": lib.config,
               "threads": lib.threads()}
    finally:
        lib.set_threads(before)
