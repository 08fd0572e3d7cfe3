"""Hot numerical kernels: the elementwise loops of the accountant, in numpy.

Callers look the kernels up as ``kernels.<name>`` at call time, never through
``from .kernels import ...``, so a profiler can wrap them in place.  All
kernels are deterministic bit-for-bit.
"""

from __future__ import annotations

import math
import sys

import numpy as np

# Crossover for the stable evaluation of log(1 - q + q*exp(x)): above this,
# expm1(x) starts to dwarf 1/q for any q >= 1e-12 and we switch to the
# shifted form x + log(q) + log1p((1-q)/q * exp(-x)).
_MIX_SWITCH = 33.0
# The byte of a native float64 that holds its sign bit (as that byte's top
# bit), where `signed_power_scale` flips it.
_SIGN_BYTE = 7 if sys.byteorder == "little" else 0


def gg_loss(t: np.ndarray, mu: float, beta: float, sigma_beta: float) -> np.ndarray:
    """(|t - mu|**beta - |t|**beta) / sigma_beta, elementwise."""
    a = np.abs(t - mu) ** beta
    b = np.abs(t) ** beta
    return (a - b) / sigma_beta


def mixture_log_ratio(ell: np.ndarray, q: float) -> np.ndarray:
    """log(1 - q + q*exp(-ell)), elementwise, stable for large |ell|."""
    x = -ell
    out = np.empty_like(x)
    big = x > _MIX_SWITCH
    small = ~big
    out[small] = np.log1p(q * np.expm1(x[small]))
    xb = x[big]
    out[big] = xb + math.log(q) + np.log1p((1.0 - q) / q * np.exp(-xb))
    return out


def bin_counts(y: np.ndarray, h: float, m: int) -> np.ndarray:
    """Counts over the 2m+1 bins ((i - 1/2)h, (i + 1/2)h], i in [-m, m].

    Inputs must already lie in [-(m + 1/2)h, (m + 1/2)h]; the exact upper
    endpoint rounds to index m + 1 and is clamped back into the last bin.
    """
    idx = np.floor(y / h + 0.5).astype(np.int64)
    np.clip(idx, -m, m, out=idx)
    return np.bincount(idx + m, minlength=2 * m + 1)


def signed_power_scale(g: np.ndarray, bits: np.ndarray, sigma: float,
                       inv_beta: float) -> np.ndarray:
    """``sigma * g**inv_beta`` with the sign bit flipped where ``bits`` (0/1,
    uint8) is 1, elementwise and in place on ``g`` (gamma -> GG transform).

    The power is skipped at ``inv_beta == 1``.  The sign is an XOR on the
    byte of each float that holds its sign bit, so no float sign array is
    built and the mask takes one byte per element.  ``g`` must be a
    contiguous float64 array.
    """
    if inv_beta != 1.0:
        g **= inv_beta
    g *= sigma
    sign_bytes = g.view(np.uint8)[_SIGN_BYTE::8]
    sign_bytes ^= np.left_shift(bits, 7, dtype=np.uint8)
    return g


def lbeta_norms(rows: np.ndarray, beta: float) -> np.ndarray:
    """Row-wise l_beta norms of a 2-d array."""
    return np.sum(np.abs(rows) ** beta, axis=1) ** (1.0 / beta)


# perfbench/envinfo.py reads these two names; drop them with that reader,
# when the benchmark is next edited (ROADMAP items 1 and 6).
BACKEND = "numpy"
IMPLEMENTATIONS: dict[str, dict[str, object]] = {
    "numpy": {
        "gg_loss": gg_loss,
        "mixture_log_ratio": mixture_log_ratio,
        "bin_counts": bin_counts,
        "signed_power_scale": signed_power_scale,
        "lbeta_norms": lbeta_norms,
    }
}
