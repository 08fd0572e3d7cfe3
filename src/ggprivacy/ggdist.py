"""Generalized Gaussian distribution core.

The family is parameterized by a shape ``beta >= 1`` and a *scale* ``sigma``:

    pdf(x) = beta / (2 * sigma * Gamma(1/beta)) * exp(-(|x - mu|/sigma)**beta)

Under this convention ``beta = 1`` is Laplace with scale ``sigma`` and
``beta = 2`` is a normal with standard deviation ``sigma / sqrt(2)`` (so
``GGParams(2, sqrt(2))`` is the standard normal).  Some texts parameterize
the exponent as |x|**beta / nu with ``nu = sigma**beta``, so ``sigma =
nu**(1/beta)``.

Every GG tail probability in the package comes from one routine,
`_incomplete`, the regularized incomplete gammas.  `cdf`,
`calibrate.tail_weight` and `prv.loss_cdf` read its upper gamma through
`_upper_tail`, at full precision in both tails.  The accountant's grid takes
its cell masses from `_masses_between`: the density's integral between two
points, by a 3-node Gauss-Legendre rule on short cells and by incomplete
gammas on the rest, so each mass keeps its own relative precision.

Sampling at ``beta = 2`` scales one block of standard normals by
``sigma / sqrt(2)``.  Every other shape uses the exact gamma transform
``Z = S * sigma * G**(1/beta)`` with ``G ~ Gamma(1/beta, 1)`` and ``S`` a
uniform sign, drawing the gamma variates first and then one random bit per
sign from the supplied generator.  `quantile` inverts `cdf`; the tests push
uniforms through it as an independent sampler to check `sample` against.

Integrals against the density use one rule, `_quadrature`: Gauss-Legendre
panels that break at the density's and the integrand's kinks and stop where
the density falls below ``exp(-_QUAD_REACH)``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from . import kernels
from .errors import InputError, ParameterError, _integer, _real

BETA_MAX = 64.0
SIGMA_MAX = 1e12
# Tail saturation for Z ~ GG(beta, 1) in float64: P(Z >= x) is exactly 0.0
# once x**beta >= _TAIL_ZERO (it underflows before x**beta reaches 750),
# and 1 - P(Z >= x) rounds to exactly 1.0 once x**beta >= _TAIL_ONE (the
# tail falls below 2**-54 before 37).  Both sit well past those points, so
# a point a few ulp short of a threshold still gives the saturated value.
# The loss laws of `prv` solve no noise crossing past x1 = _TAIL_ONE**(1 /
# beta) (`prv._loss_cut`) and take every tail there as exactly 0 or 1: the
# tail they drop is at most 0.5 e**-45 = 1.5e-20 (beta = 1; 4e-22 at beta =
# 3), below the round-off of the first FFT composition.
_TAIL_ZERO = 800.0
_TAIL_ONE = 45.0
# The density's log normalizer is at most about 749 (sigma at the smallest
# subnormal), so at |x - mu| / sigma >= 2 * _TAIL_ZERO the density is 0.0
# for every valid sigma, and (2 * _TAIL_ZERO)**BETA_MAX is still finite.
_DENSITY_ZERO = 2.0 * _TAIL_ZERO
_QUAD_NODES = 16       # Gauss-Legendre nodes per panel of `_quadrature`
_QUAD_PANEL = 0.5      # panel width times beta, in units of sigma
_QUAD_REACH = 60.0     # integrate where |u - center|**beta <= this
# `_masses_between` takes its 3-node rule on a cell only where |u|**beta
# rises by at most _CELL_RISE across it, the cell is at most _CELL_WIDTH
# wide and it lies at least _CELL_KINK * beta of its own widths from the
# kink at 0: the rule's error is then below about 2e-14 relative.
_CELL_RISE = 0.05
_CELL_WIDTH = 0.025
_CELL_KINK = 8.0


@dataclass(frozen=True)
class GGParams:
    """Shape/scale pair for a centered generalized Gaussian."""

    beta: float
    sigma: float

    def __post_init__(self) -> None:
        beta = _real("beta", self.beta)
        sigma = _real("sigma", self.sigma)
        if not math.isfinite(beta) or beta < 1.0 or beta > BETA_MAX:
            raise ParameterError(
                f"beta must lie in [1, {BETA_MAX:g}], got {self.beta!r}")
        if not math.isfinite(sigma) or sigma <= 0.0 or sigma > SIGMA_MAX:
            raise ParameterError(
                f"sigma must lie in (0, {SIGMA_MAX:g}], got {self.sigma!r}")
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "sigma", sigma)


def _as_float_array(x, name: str) -> tuple[np.ndarray, bool]:
    arr = np.asarray(x, dtype=np.float64)
    scalar = arr.ndim == 0
    if not np.all(np.isfinite(arr)):
        raise InputError(f"{name} must be finite")
    return np.atleast_1d(arr), scalar


def _over_sigma(d: np.ndarray, sigma: float) -> np.ndarray:
    """``d / sigma``.  Only a sigma below 1 can carry a finite ``d`` past
    float range, and the quotient is then +-inf, which `pdf` and `cdf` read
    exactly (density 0, a tail of 0 or 1); the overflow is no error.  Above
    1 no guard is set up: it costs more than the division."""
    if sigma >= 1.0:
        return d / sigma
    with np.errstate(over="ignore"):
        return d / sigma


def pdf(params: GGParams, x, mu: float = 0.0):
    """Density of GG(beta, sigma) centered at ``mu``."""
    arr, scalar = _as_float_array(x, "x")
    beta, sigma = params.beta, params.sigma
    log_norm = math.log(beta / 2.0) - math.log(sigma) - special.gammaln(1.0 / beta)
    # Capping |x - mu| / sigma where the density is already 0.0 keeps the
    # power finite.
    z = np.minimum(_over_sigma(np.abs(arr - mu), sigma), _DENSITY_ZERO)
    out = np.exp(log_norm - z ** beta)
    return float(out[0]) if scalar else out


@functools.lru_cache(maxsize=None)
def _legendre(nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """``np.polynomial.legendre.leggauss(nodes)``, computed on first use for
    each node count and kept read-only."""
    points, weights = np.polynomial.legendre.leggauss(nodes)
    points.flags.writeable = weights.flags.writeable = False
    return points, weights


def _quadrature(beta: float, center: float, kinks=(), mass: float = 1.0,
                nodes: int = _QUAD_NODES) -> tuple[np.ndarray, np.ndarray]:
    """Nodes ``u`` and weights ``w`` with ``w @ f(u)`` approximating the
    integral of ``f`` against ``mass`` times the GG(beta, 1) density centered
    at ``center``.

    Gauss-Legendre panels of ``nodes`` nodes and width ``_QUAD_PANEL / beta``
    cover the span where ``|u - center|**beta <= _QUAD_REACH``.  They break
    at ``center``, the density's kink, and at each of ``f``'s ``kinks``
    inside the span.  At a beta that is not an integer, the density is not
    analytic at ``center`` even from one side, so the panels that end there
    converge only algebraically in ``nodes``.
    """
    reach = _QUAD_REACH ** (1.0 / beta)
    cuts = sorted({center - reach, center, center + reach}
                  | {p for p in kinks if center - reach < p < center + reach})
    edges = np.concatenate([
        np.linspace(a, b, 1 + math.ceil((b - a) * beta / _QUAD_PANEL))[:-1]
        for a, b in zip(cuts, cuts[1:])] + [cuts[-1:]])
    points, weights = _legendre(nodes)
    mid = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * (edges[1:] - edges[:-1])
    u = (mid[:, None] + half[:, None] * points).ravel()
    w = mass * pdf(GGParams(beta, 1.0), u, center) \
        * (half[:, None] * weights).ravel()
    return u, w


def _upper_tail(x: np.ndarray, beta: float) -> np.ndarray:
    """``P(Z >= x)`` for ``Z ~ GG(beta, 1)``, elementwise: half of
    `_incomplete`'s upper gamma at ``|x|``, complemented below 0, so small
    tails on either side keep their relative precision."""
    # At |x| >= _TAIL_ZERO the tail is 0.0 for every beta >= 1; capping |x|
    # there keeps |x|**beta finite.
    half = 0.5 * _incomplete(np.minimum(np.abs(x), _TAIL_ZERO), beta,
                             lower=False)
    return np.where(x < 0.0, 1.0 - half, half)


def _masses_between(x: np.ndarray, beta: float) -> np.ndarray:
    """``P(x[i] <= Z <= x[i + 1])`` for ``Z ~ GG(beta, 1)``, one mass per
    consecutive pair of the non-decreasing ``x``, whose ends may be
    infinite, each to its own relative precision.

    A short cell on one side of 0 (`_CELL_RISE`, `_CELL_WIDTH`) that lies
    far enough from the density's kink at 0 (`_CELL_KINK`) takes the
    3-node Gauss-Legendre rule.  Every other cell, that is an open one,
    one that straddles or nears 0, or a wide one, takes a difference of
    regularized incomplete gammas at its ends, on the side where it does
    not cancel:
    the lower ``gammainc`` while ``|u|**beta < 1`` at the end nearer 0, the
    upper ``gammaincc`` beyond.  A cell that straddles 0 is split there,
    into half the lower gamma at each end.  The mass past ``_TAIL_ZERO``,
    where every tail is 0.0, is taken as 0.
    """
    x = np.clip(x, -_TAIL_ZERO, _TAIL_ZERO)
    ax = np.abs(x)
    rise = ax ** beta
    lo, hi = x[:-1], x[1:]
    half = hi - lo
    half *= 0.5
    # A cell that straddles 0 is wider than the end nearer 0, so it fails
    # the kink test here.
    quad = np.abs(rise[1:] - rise[:-1]) <= _CELL_RISE
    quad &= 2.0 * half <= _CELL_WIDTH
    quad &= 2.0 * _CELL_KINK * beta * half <= np.minimum(ax[:-1], ax[1:])

    def density(u: np.ndarray) -> np.ndarray:
        # exp(-|u|**beta), in place
        np.abs(u, out=u)
        u **= beta
        np.negative(u, out=u)
        return np.exp(u, out=u)

    points, weights = _legendre(3)
    mid = lo + hi
    mid *= 0.5
    step = half * points[2]
    out = density(mid - step)
    out += density(mid + step)
    out *= weights[0]
    out += weights[1] * density(mid)
    out *= half
    out *= beta / (2.0 * math.gamma(1.0 / beta))

    j = np.flatnonzero(~quad)
    near, far = np.sort(np.stack([ax[:-1][j], ax[1:][j]]), axis=0)
    split = (lo[j] < 0.0) & (hi[j] > 0.0)
    lower = split | (near < 1.0)
    p_near = _incomplete(near[lower], beta, lower=True)
    p_far = _incomplete(far[lower], beta, lower=True)
    rest = np.empty(j.size)
    rest[lower] = 0.5 * (p_far + np.where(split[lower], p_near, -p_near))
    rest[~lower] = 0.5 * (_incomplete(near[~lower], beta, lower=False)
                          - _incomplete(far[~lower], beta, lower=False))
    out[j] = rest
    return out


def _incomplete(x: np.ndarray, beta: float, lower: bool) -> np.ndarray:
    """The regularized lower (``lower``) or upper incomplete gamma of order
    ``1/beta`` at ``x**beta``, for ``x >= 0``: twice ``P(0 <= Z < x)`` or
    twice ``P(Z >= x)``.  At ``beta = 2`` it is ``erf(x)`` or ``erfc(x)``,
    each to an ulp."""
    if beta == 2.0:
        return special.erf(x) if lower else special.erfc(x)
    return (special.gammainc if lower else special.gammaincc)(1.0 / beta,
                                                              x ** beta)


def cdf(params: GGParams, x, mu: float = 0.0):
    """Distribution function, as the upper tail ``P(Z >= (mu - x)/sigma)``
    of ``Z ~ GG(beta, 1)`` (`_upper_tail`), so it keeps its relative
    precision in both tails."""
    arr, scalar = _as_float_array(x, "x")
    out = _upper_tail(_over_sigma(mu - arr, params.sigma), params.beta)
    return float(out[0]) if scalar else out


def quantile(params: GGParams, u, mu: float = 0.0):
    """Inverse of `cdf` on the open interval (0, 1).  It inverts the tail
    nearer ``u``, ``2 min(u, 1 - u)``, with the inverse upper incomplete
    gamma, so it keeps its relative precision in both tails."""
    arr = np.atleast_1d(np.asarray(u, dtype=np.float64))
    scalar = np.ndim(u) == 0
    if np.any(~np.isfinite(arr)) or np.any(arr <= 0.0) or np.any(arr >= 1.0):
        raise ParameterError("quantile levels must lie strictly inside (0, 1)")
    beta, sigma = params.beta, params.sigma
    core = special.gammainccinv(1.0 / beta, 2.0 * np.minimum(arr, 1.0 - arr))
    out = mu + np.sign(arr - 0.5) * sigma * core ** (1.0 / beta)
    return float(out[0]) if scalar else out


def sample(params: GGParams, rng: np.random.Generator, count: int,
           out: np.ndarray | None = None) -> np.ndarray:
    """Draw ``count`` iid variates.

    At ``beta = 2`` the draw is one block of standard normals times
    ``sigma / sqrt(2)``, which has exactly the GG(2, sigma) law.  Every other
    shape takes the gamma transform and consumes the generator in a fixed
    order: the gamma block, then the sign bits, one random bit per variate
    (``rng.bytes(ceil(count / 8))`` unpacked most significant bit first; a
    set bit makes the variate negative).  Downstream reproducibility
    guarantees rely on these draw orders.

    With ``out``, a writeable C-contiguous float64 array of shape
    ``(count,)``, the variates are written into it in place and ``out`` is
    returned; they are bitwise the ones a call without ``out`` draws from
    the same generator state.  A bad ``out`` raises before ``rng`` is
    touched.  The draw then allocates nothing at ``beta = 2``, and only its
    sign bits, about two bytes per variate, at any other shape.
    """
    n = _integer("count", count, 1)
    if out is not None and not (
            isinstance(out, np.ndarray) and out.dtype == np.float64
            and out.shape == (n,) and out.flags.c_contiguous
            and out.flags.writeable):
        raise ParameterError(
            f"out must be a writeable C-contiguous float64 array of shape "
            f"({n},)")
    if params.beta == 2.0:
        z = rng.standard_normal(n, out=out)
        z *= params.sigma / math.sqrt(2.0)
        return z
    inv_beta = 1.0 / params.beta
    # numpy draws Gamma(1, 1) by its ziggurat exponential: the same values,
    # bitwise, from a tighter loop.
    g = rng.standard_exponential(n, out=out) if inv_beta == 1.0 \
        else rng.standard_gamma(inv_beta, size=n, out=out)
    bits = np.unpackbits(np.frombuffer(rng.bytes(-(-n // 8)), dtype=np.uint8),
                         count=n)
    return kernels.signed_power_scale(g, bits, params.sigma, inv_beta)


def absolute_moment(params: GGParams, k: float) -> float:
    """E|Z|**k = sigma**k * Gamma((k+1)/beta) / Gamma(1/beta), for k >= 0.

    In particular E|Z|**beta = sigma**beta / beta.
    """
    if not math.isfinite(k) or k < 0:
        raise ParameterError(f"moment order must be a finite value >= 0, got {k!r}")
    beta, sigma = params.beta, params.sigma
    log_m = k * math.log(sigma) + special.gammaln((k + 1.0) / beta) - special.gammaln(1.0 / beta)
    return float(math.exp(log_m))
