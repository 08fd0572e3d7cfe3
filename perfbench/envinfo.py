"""Environment record attached to every benchmark result.

`THREAD_VARS` are pinned by run.py before numpy is imported, so BLAS and
OpenMP pools have a fixed size on every machine.  `kernel_backends` keeps
the numba-versus-numpy kernel comparison: it times every implementation in
``ggprivacy.kernels.IMPLEMENTATIONS`` on identical inputs and reports the
speed-up and the largest absolute difference.  It has something to compare
only where numba is installed.
"""

from __future__ import annotations

import importlib.util
import os
import platform
import statistics
import subprocess
import time
from pathlib import Path

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "NUMBA_NUM_THREADS")
PINNED_THREADS = "1"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit(root: Path) -> str:
    """HEAD of ``root`` when it is itself a git work tree, else "unknown"."""
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                             cwd=root, capture_output=True, text=True,
                             timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 \
            or Path(lines[0]).resolve() != root.resolve():
        return "unknown"
    return lines[1]


def record(root: Path) -> dict:
    import numpy
    import scipy

    from ggprivacy import kernels
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "backend": kernels.BACKEND,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "GG_PRIVACY_DISABLE_NUMBA": os.environ.get("GG_PRIVACY_DISABLE_NUMBA"),
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "git_commit": _git_commit(root),
    }


def kernel_backends(size: int = 1_000_000, repeats: int = 5,
                    seed: int = 61803398) -> dict | None:
    """Per-kernel numpy-vs-numba timings, or None with a single backend."""
    import numpy as np

    from ggprivacy import kernels
    if len(kernels.IMPLEMENTATIONS) < 2:
        return None
    rng = np.random.default_rng(seed)
    beta, sigma, m = 1.7, 2.3, 2 ** 15
    h = 2.0 * 30.0 / (2 * m + 1)
    inputs = {
        "gg_loss": (rng.normal(0.0, sigma, size), 1.0, beta, sigma ** beta),
        "mixture_log_ratio": (rng.normal(0.5, 1.0, size), 0.05),
        "bin_counts": (np.clip(rng.normal(0.5, 1.0, size),
                               -(m + 0.49) * h, (m + 0.49) * h), h, m),
        "signed_power_scale": (rng.gamma(1.0 / beta, 1.0, size),
                               np.where(rng.random(size) < 0.5, -1.0, 1.0),
                               sigma, 1.0 / beta),
        "lbeta_norms": (rng.normal(0.0, 1.0, (size // 64, 64)), beta),
    }
    report = {}
    for name, args in inputs.items():
        row = {}
        results = {}
        for backend, impls in kernels.IMPLEMENTATIONS.items():
            fn = impls[name]
            results[backend] = np.asarray(fn(*args), dtype=np.float64)  # warm-up / JIT
            samples = []
            for _ in range(repeats):
                start = time.perf_counter()
                fn(*args)
                samples.append(time.perf_counter() - start)
            row[f"{backend}_s"] = statistics.median(samples)
        row["speedup"] = row["numpy_s"] / row["numba_s"]
        row["max_abs_diff"] = float(np.max(np.abs(results["numpy"]
                                                  - results["numba"])))
        report[name] = row
    return report
