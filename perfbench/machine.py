"""Machine description and sgemm ceiling, printed as one JSON object.

    python perfbench/machine.py

Reports nproc, CPU model, last-level cache size, Python, numpy, the BLAS
library numpy was built against and the BLAS thread count taken from
OPENBLAS_NUM_THREADS, plus the best rate of an n x n float32 matmul on
those threads: the ceiling the encoder's GFLOP/s is compared with.
"""

from __future__ import annotations

import json
import math
import os
import platform
import time
from pathlib import Path

import numpy as np


def llc_bytes() -> int | None:
    """Size of the highest-level cache of CPU 0, from sysfs."""
    best = None
    for idx in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"):
        try:
            level = int((idx / "level").read_text())
            size = (idx / "size").read_text().strip()
        except (OSError, ValueError):
            continue
        mult = {"K": 1024, "M": 1024 ** 2, "G": 1024 ** 3}.get(size[-1:], 1)
        value = int(size.rstrip("KMG")) * mult
        if best is None or level > best[0]:
            best = (level, value)
    return best[1] if best else None


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def blas_library() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        return "unknown"


def sgemm_ceiling_gflop_per_s(n: int = 2048, reps: int = 5) -> float:
    """Best rate over ``reps`` n x n float32 matmuls, after one warm-up."""
    rng = np.random.default_rng(0)
    a = rng.standard_normal((n, n), dtype=np.float32)
    b = rng.standard_normal((n, n), dtype=np.float32)
    c = np.empty((n, n), dtype=np.float32)
    np.matmul(a, b, out=c)
    best = math.inf
    for _ in range(reps):
        t0 = time.perf_counter()
        np.matmul(a, b, out=c)
        best = min(best, time.perf_counter() - t0)
    return 2 * n ** 3 / best / 1e9


def main() -> None:
    print(json.dumps({
        "nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu_model(),
        "llc_bytes": llc_bytes(), "python": platform.python_version(),
        "numpy": np.__version__, "blas": blas_library(),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "sgemm_ceiling_gflop_per_s": sgemm_ceiling_gflop_per_s(),
    }))


if __name__ == "__main__":
    main()
