"""Generalized Gaussian distribution core.

The family is parameterized by a shape ``beta >= 1`` and a *scale* ``sigma``:

    pdf(x) = beta / (2 * sigma * Gamma(1/beta)) * exp(-(|x - mu|/sigma)**beta)

Under this convention ``beta = 1`` is Laplace with scale ``sigma`` and
``beta = 2`` is a normal with standard deviation ``sigma / sqrt(2)`` (so
``GGParams(2, sqrt(2))`` is the standard normal).  Some texts parameterize
the exponent as |x|**beta / nu with ``nu = sigma**beta``; `sigma_power` /
`from_sigma_power` convert to and from that form.

Every GG tail probability in the package comes from `_upper_tail`, built on
the regularized upper incomplete gamma: `cdf` and `calibrate.tail_weight`
read it at full precision in both tails.  The privacy-loss CDFs of `prv`
read its saturating form `_upper_tails`, which at ``beta != 2`` rounds every
tail below ``P(Z >= x1)`` (see `_saturation`) down to 0.0, as float64
already rounds its complement up to 1.0.

Sampling at ``beta = 2`` scales one block of standard normals by
``sigma / sqrt(2)``.  Every other shape uses the exact gamma transform
``Z = S * sigma * G**(1/beta)`` with ``G ~ Gamma(1/beta, 1)`` and ``S`` a
uniform sign, drawing the gamma variates first and then one random bit per
sign from the supplied generator.  The inverse-CDF sampler is retained as a
slow cross-check (`sample_inverse_cdf`).

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
from .errors import InputError, ParameterError

BETA_MAX = 64.0
SIGMA_MAX = 1e12
# Tail saturation for Z ~ GG(beta, 1) in float64: P(Z >= x) is exactly 0.0
# once x**beta >= _TAIL_ZERO (it underflows before x**beta reaches 750),
# and 1 - P(Z >= x) rounds to exactly 1.0 once x**beta >= _TAIL_ONE (the
# tail falls below 2**-54 before 37).  Both sit well past those points, so
# a point a few ulp short of a threshold still gives the saturated value.
# The loss CDFs (`_upper_tails`) also take P(Z >= x) as 0.0 from _TAIL_ONE
# on: the tail there is at most 0.5 e**-45 = 1.5e-20 (beta = 1; 4e-22 at
# beta = 3), below the round-off of the first FFT composition.
_TAIL_ZERO = 800.0
_TAIL_ONE = 45.0
# The density's log normalizer is at most about 749 (sigma at the smallest
# subnormal), so at |x - mu| / sigma >= 2 * _TAIL_ZERO the density is 0.0
# for every valid sigma, and (2 * _TAIL_ZERO)**BETA_MAX is still finite.
_DENSITY_ZERO = 2.0 * _TAIL_ZERO
_QUAD_NODES = 16       # Gauss-Legendre nodes per panel of `_quadrature`
_QUAD_PANEL = 0.5      # panel width times beta, in units of sigma
_QUAD_REACH = 60.0     # integrate where |u - center|**beta <= this


@dataclass(frozen=True)
class GGParams:
    """Shape/scale pair for a centered generalized Gaussian."""

    beta: float
    sigma: float

    def __post_init__(self) -> None:
        beta = float(self.beta)
        sigma = float(self.sigma)
        if not math.isfinite(beta) or beta < 1.0 or beta > BETA_MAX:
            raise ParameterError(
                f"beta must lie in [1, {BETA_MAX:g}], got {self.beta!r}")
        if not math.isfinite(sigma) or sigma <= 0.0 or sigma > SIGMA_MAX:
            raise ParameterError(
                f"sigma must lie in (0, {SIGMA_MAX:g}], got {self.sigma!r}")
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "sigma", sigma)


def sigma_power(params: GGParams) -> float:
    """Scale of the exponent parameterization, ``sigma**beta``."""
    return params.sigma ** params.beta


def from_sigma_power(beta: float, nu: float) -> GGParams:
    """Build params from the exponent parameterization ``exp(-|x|**beta/nu)``."""
    if not (isinstance(nu, (int, float)) and math.isfinite(nu)) or nu <= 0:
        raise ParameterError(f"sigma_power must be positive and finite, got {nu!r}")
    return GGParams(beta, float(nu) ** (1.0 / float(beta)))


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
    """``P(Z >= x)`` for ``Z ~ GG(beta, 1)``, elementwise.  The regularized
    upper incomplete gamma at ``|x|`` gives the tail directly, so small
    tails on either side keep their relative precision; at ``beta = 2``
    (a normal with variance 1/2) it is one ``erfc``."""
    if beta == 2.0:
        return 0.5 * special.erfc(x)
    # At |x| >= _TAIL_ZERO the tail is 0.0 for every beta >= 1; capping |x|
    # there keeps |x|**beta finite.  One array serves every step.
    half = np.abs(x)
    np.minimum(half, _TAIL_ZERO, out=half)
    half **= beta
    special.gammaincc(1.0 / beta, half, out=half)
    half *= 0.5
    return np.subtract(1.0, half, out=half, where=x < 0.0)


def _saturation(beta: float) -> tuple[float, float]:
    """``(x0, x1)``: `_upper_tail` is exactly 0.0 at ``x >= x0`` and exactly
    1.0 at ``x <= -x1`` (see `_TAIL_ZERO` and `_TAIL_ONE`).  `_upper_tails`
    saturates both tails at ``x1``."""
    return _TAIL_ZERO ** (1.0 / beta), _TAIL_ONE ** (1.0 / beta)


def _upper_tails(beta: float, xs: list[np.ndarray]) -> list[np.ndarray]:
    """``P(Z >= x)`` at each array of ``xs``, where the arrays hold the same
    ``|x|`` elementwise, with both tails saturated at ``x1`` of
    `_saturation`: exactly 1.0 at ``x <= -x1``, where `_upper_tail` rounds
    to 1.0 too, and exactly 0.0 at ``x >= x1``, where it would still resolve
    a tail of at most ``P(Z >= x1)``.  Rounding that tail down moves its
    mass to higher loss in every CDF of `prv`, a pessimistic rounding.
    Everywhere else the values are `_upper_tail`'s, bitwise, from one tail
    evaluation that serves every array.  At ``beta = 2`` each ``x`` takes
    one ``erfc`` at full precision, which costs less than the masks would
    save."""
    if beta == 2.0:
        return [_upper_tail(x, beta) for x in xs]
    x1 = _saturation(beta)[1]
    live = np.abs(xs[0]) < x1
    half = _upper_tail(np.abs(xs[0][live]), beta)
    tails = []
    for x in xs:
        tail = np.where(x < 0.0, 1.0, 0.0)
        tail[live] = np.where(x[live] >= 0.0, half, 1.0 - half)
        tails.append(tail)
    return tails


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
    if not isinstance(count, (int, np.integer)) or count < 1:
        raise ParameterError(f"count must be a positive integer, got {count!r}")
    n = int(count)
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


def sample_inverse_cdf(params: GGParams, rng: np.random.Generator,
                       count: int) -> np.ndarray:
    """Reference sampler: push uniforms through `quantile`.

    Slower than `sample`; kept as an independent oracle for distribution
    tests.
    """
    if not isinstance(count, (int, np.integer)) or count < 1:
        raise ParameterError(f"count must be a positive integer, got {count!r}")
    u = rng.random(int(count))
    # keep u strictly inside (0, 1); random() can return exactly 0.0
    u = np.nextafter(u, 1.0)
    return np.asarray(quantile(params, u))


def absolute_moment(params: GGParams, k: float) -> float:
    """E|Z|**k = sigma**k * Gamma((k+1)/beta) / Gamma(1/beta), for k >= 0.

    In particular E|Z|**beta = sigma**beta / beta.
    """
    if not math.isfinite(k) or k < 0:
        raise ParameterError(f"moment order must be a finite value >= 0, got {k!r}")
    beta, sigma = params.beta, params.sigma
    log_m = k * math.log(sigma) + special.gammaln((k + 1.0) / beta) - special.gammaln(1.0 / beta)
    return float(math.exp(log_m))
