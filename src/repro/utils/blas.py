"""Cap the thread pools of the OpenBLAS libraries loaded in this process.

The SGD kernel scores and updates each micro-batch with a few small
matrix products.  OpenBLAS splits a product across its thread pool once
it passes a size threshold, and its helper threads keep spinning
between calls, so a process doing back-to-back batches occupies every
core of the host.  That is harmless for one in-process fit, but a
hogwild worker is one of several such processes: two workers on two
cores would run four busy threads.  Each worker therefore caps its own
pools at one thread (:func:`repro.core.inf2vec.hogwild_worker_main`).

The libraries are found in the process's own memory map, so the cap
works for numpy's and scipy's bundled OpenBLAS on Linux.  Elsewhere, or
with another BLAS, nothing changes; pin such a BLAS through its own
environment variable before the process starts.
"""

from __future__ import annotations

import ctypes

__all__ = ["limit_blas_threads"]

#: The pool-size setter across OpenBLAS builds: plain, 64-bit-integer,
#: and the ``scipy-openblas`` builds that numpy and scipy wheels bundle.
_SETTERS = (
    "openblas_set_num_threads",
    "openblas_set_num_threads64_",
    "scipy_openblas_set_num_threads",
    "scipy_openblas_set_num_threads64_",
)


def limit_blas_threads(threads: int) -> int:
    """Set every loaded OpenBLAS pool to ``threads``; return how many.

    Returns 0, changing nothing, where ``/proc/self/maps`` is missing or
    no OpenBLAS library is loaded.
    """
    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            paths = sorted(
                {line.split()[-1] for line in maps if "openblas" in line.lower()}
            )
    except OSError:
        return 0
    capped = 0
    for path in paths:
        try:
            library = ctypes.CDLL(path)
        except OSError:
            continue
        for name in _SETTERS:
            setter = getattr(library, name, None)
            if setter is not None:
                setter(threads)
                capped += 1
                break
    return capped
