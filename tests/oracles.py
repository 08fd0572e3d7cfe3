"""Independent references the tests check the package against.

None of these is on a path the package runs: each is a slower or closed-form
route to a result the package computes another way.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special

from ggprivacy import (DiscretePRV, GGParams, GridMismatchError,
                       ParameterError, ggdist)


def convolve_direct(prv_a: DiscretePRV, prv_b: DiscretePRV) -> DiscretePRV:
    """Quadratic-time circular convolution, the cross-check of `compose`."""
    if prv_a.probs.size != prv_b.probs.size or prv_a.mesh_h != prv_b.mesh_h:
        raise GridMismatchError("operands must share one grid")
    size = prv_a.probs.size
    a = np.fft.ifftshift(prv_a.probs)
    b = np.fft.ifftshift(prv_b.probs)
    out = np.zeros(size)
    for shift in range(size):
        out += a[shift] * np.roll(b, shift)
    return DiscretePRV(probs=np.fft.fftshift(out), mesh_h=prv_a.mesh_h,
                       offset=prv_a.offset + prv_b.offset,
                       compositions=prv_a.compositions + prv_b.compositions)


def gaussian_prv_cdf(x, noise_std: float, sensitivity: float):
    """Exact PRV CDF of the Gaussian mechanism: N(eta, 2*eta) with
    eta = sensitivity**2 / (2 * noise_std**2)."""
    if noise_std <= 0 or sensitivity <= 0:
        raise ParameterError("noise_std and sensitivity must be positive")
    eta = sensitivity ** 2 / (2.0 * noise_std ** 2)
    arr = np.asarray(x, dtype=np.float64)
    out = special.ndtr((arr - eta) / math.sqrt(2.0 * eta))
    return float(out) if np.ndim(x) == 0 else out


def sample_inverse_cdf(params: GGParams, rng: np.random.Generator,
                       count: int) -> np.ndarray:
    """Uniforms pushed through `ggdist.quantile`: slower than
    `ggdist.sample`, and an independent sampler to test it against."""
    # keep u strictly inside (0, 1); random() can return exactly 0.0
    u = np.nextafter(rng.random(count), 1.0)
    return np.asarray(ggdist.quantile(params, u))
