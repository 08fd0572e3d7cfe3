"""Independent references the tests check the package against.

None of these is on a path the package runs: each is a slower or closed-form
route to a result the package computes another way.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special

from ggprivacy import (DiscretePRV, GGParams, GridMismatchError, InputError,
                       LossDirection, ParameterError, ggdist, prv)


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


def loss_cdfs_on_grid(spec, edges: np.ndarray) -> dict:
    """`prv.loss_cdf` for every direction of `prv.directions_for` on
    ``edges`` symmetric about 0, from the package's shared crossing solve
    (`prv._edge_crossings`) and its tails (`ggdist._upper_tail`): the tests
    check the shared solve through it, bitwise against the pointwise CDFs."""
    beta, ratio, q = spec.loss_key
    y = np.asarray(edges, dtype=np.float64)
    if y.ndim != 1 or not np.array_equal(y[::-1], -y):
        raise InputError("edges must be a 1-d grid symmetric about 0")
    z = prv._edge_crossings(spec, y)
    if q is None:
        return {LossDirection.REMOVE:
                ggdist._upper_tail(z[LossDirection.REMOVE], beta)}
    removed = z[LossDirection.REMOVE]
    return {LossDirection.REMOVE:
            (1.0 - q) * ggdist._upper_tail(-removed, beta)
            + q * ggdist._upper_tail(ratio - removed, beta),
            LossDirection.ADD: ggdist._upper_tail(z[LossDirection.ADD], beta)}


def gg_interval_mass(lo, hi, beta: float, dps: int = 40):
    """``P(lo <= Z <= hi)`` for ``Z ~ GG(beta, 1)`` and ``lo <= hi`` (either
    may be infinite), as an mpmath number at ``dps`` digits: differences
    of regularized upper incomplete gammas, split at 0."""
    import mpmath as mp
    with mp.workdps(dps):
        b = mp.mpf(beta)
        lo, hi = mp.mpf(lo), mp.mpf(hi)

        def tail2(x):                        # 2 P(Z >= x) for x >= 0
            return mp.mpf(0) if x == mp.inf else \
                mp.gammainc(1 / b, x ** b, regularized=True)

        if hi <= 0:
            lo, hi = -hi, -lo
        if lo < 0:
            return (2 - tail2(-lo) - tail2(hi)) / 2
        return (tail2(lo) - tail2(hi)) / 2


def loss_piece_masses(spec, direction, h: float, m: int, pieces,
                      dps: int = 40) -> list[float]:
    """The masses of the pieces ``pieces`` of `prv.loss_masses(spec, h, m)`
    in ``direction``, in mpmath at ``dps`` digits: each edge's noise
    crossing by a bracketed root-find, then the noise density's integral
    between the crossings as differences of regularized upper incomplete
    gammas.

    It follows the package's conventions, not its code: the pieces are
    ``((t - 1/2 - m) h, (t + 1/2 - m) h]`` with open ends, ``beta = 1``
    takes the level-set conventions of `prv.loss_cdf` at the loss's atoms,
    and a threshold ``|theta|`` at or past `prv._loss_cut` crosses at the
    end of the noise line (the package's open end pieces).
    """
    import mpmath as mp
    with mp.workdps(dps):
        beta, ratio, q = spec.loss_key
        b, r = mp.mpf(beta), mp.mpf(ratio)
        cut = mp.mpf(prv._loss_cut(beta, 0.5 * ratio))
        x1 = mp.mpf(45) ** (1 / b)
        removed = q is not None and direction is LossDirection.REMOVE
        falling = not removed

        def unmix(x):
            v = (mp.exp(x) - 1 + q) / q
            return mp.log(v) if v > 0 else -mp.inf

        def crossing(t: int):
            if t < 0 or t > 2 * m + 1:      # the loss at -inf or +inf
                return mp.inf if (t < 0) == falling else -mp.inf
            y = mp.mpf((float(t - m) - 0.5) * h)
            theta = y if q is None else (-unmix(y) if removed else -unmix(-y))
            if beta == 1.0:
                if theta > r or (theta == r and not removed):
                    return -mp.inf
                if theta < -r or (theta == -r and removed):
                    return mp.inf
                return (r - theta) / 2
            if abs(theta) >= cut:
                return -mp.inf if theta > 0 else mp.inf
            lo, hi = -x1 - 1, x1 + r + 1     # the loss falls from lo to hi
            for _ in range(4 * dps):         # bisection, to about dps digits
                mid = (lo + hi) / 2
                if abs(mid - r) ** b - abs(mid) ** b > theta:
                    lo = mid
                else:
                    hi = mid
            return (lo + hi) / 2

        def gg(lo, hi):
            return gg_interval_mass(lo, hi, beta, dps)

        masses = []
        for piece in pieces:
            z0, z1 = crossing(piece - 1), crossing(piece)
            if removed:
                mass = (1 - q) * gg(z0, z1) + q * gg(z0 - r, z1 - r)
            else:
                mass = gg(z1, z0)
            masses.append(float(mass))
        return masses
