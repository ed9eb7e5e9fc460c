"""The BLAS pool cap each hogwild worker applies to itself."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO_SRC = Path(__file__).resolve().parents[2] / "src"

#: Runs in a child process so the test session's own pools stay as
#: configured.  Prints how many pools were capped, then each pool's size.
SCRIPT = """
import ctypes

import numpy  # noqa: F401  (loads numpy's OpenBLAS)

from repro.utils.blas import limit_blas_threads

GETTERS = (
    "openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
    "scipy_openblas_get_num_threads64_",
)
capped = limit_blas_threads(1)
with open("/proc/self/maps", encoding="utf-8") as maps:
    paths = sorted({line.split()[-1] for line in maps if "openblas" in line.lower()})
sizes = []
for path in paths:
    library = ctypes.CDLL(path)
    for name in GETTERS:
        getter = getattr(library, name, None)
        if getter is not None:
            sizes.append(getter())
            break
print(capped, *sizes)
"""


def test_every_loaded_openblas_pool_is_capped():
    if not os.path.exists("/proc/self/maps"):
        pytest.skip("needs /proc/self/maps")
    result = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        env=dict(os.environ, PYTHONPATH=str(REPO_SRC)),
        capture_output=True,
        text=True,
        check=True,
    )
    capped, *sizes = (int(word) for word in result.stdout.split())
    if not sizes:
        pytest.skip("numpy is not linked against OpenBLAS here")
    assert capped == len(sizes)
    assert sizes == [1] * len(sizes)
