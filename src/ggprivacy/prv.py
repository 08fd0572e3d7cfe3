"""Privacy-loss random variables (PRVs) for generalized Gaussian mechanisms.

Conventions, fixed once here and relied on everywhere else:

* ``Q`` is the output density with the record absent (noise centered at 0),
  ``P`` the density with the record present (centered at the sensitivity
  ``Delta``).  The base log ratio is

      ell(t) = log Q(t)/P(t) = (|t - Delta|**beta - |t|**beta) / sigma**beta.

* With Poisson sample rate ``q`` the mixture is ``M = (1-q) Q + q P``.
  The REMOVE direction is the loss ``log(M/Q)(t) = log(1 - q + q e^{-ell(t)})``
  sampled under ``t ~ M``; the ADD direction is ``log(Q/M)(t)`` (its exact
  negation pointwise) sampled under ``t ~ Q``.

* At ``t = sigma * u`` the loss is ``|u - Delta/sigma|**beta - |u|**beta``,
  so every loss here is evaluated in units of ``sigma`` and depends on a
  spec only through `MechanismSpec.loss_key`, ``(beta, Delta/sigma, q)``.

* Without subsampling the mechanism is symmetric and both directions share
  one distribution; `sample_prv` then returns ``ell`` evaluated on centered
  noise.  By reflection through ``Delta/2`` that is equal in law to the
  remove-direction loss ``-ell(Delta - z)``; pointwise the two agree to a few
  ulp, not bitwise.  Setting ``q = 1`` takes the same shortcut, so subsampled
  draws at ``q = 1`` coincide bitwise with plain draws from the same
  generator state.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from . import ggdist, kernels
from .errors import InputError, ParameterError
from .ggdist import GGParams

MAX_DIMENSIONS = 64


class LossDirection(enum.Enum):
    """Adjacency direction for subsampled accounting."""

    REMOVE = "remove"
    ADD = "add"


@dataclass(frozen=True)
class MechanismSpec:
    """One mechanism invocation pattern to account for.

    ``sample_rate`` of ``None`` means no subsampling (distinct from 1.0,
    which is Poisson sampling that happens to include everything).
    ``compositions`` is the number of adaptive repetitions.
    """

    noise: GGParams
    sensitivity: float
    sample_rate: float | None = None
    compositions: int = 1

    def __post_init__(self) -> None:
        if not isinstance(self.noise, GGParams):
            raise ParameterError("noise must be a GGParams instance")
        if not (isinstance(self.sensitivity, (int, float))
                and math.isfinite(self.sensitivity) and self.sensitivity > 0):
            raise ParameterError(
                f"sensitivity must be positive and finite, got {self.sensitivity!r}")
        if self.sample_rate is not None:
            q = self.sample_rate
            if not (isinstance(q, (int, float)) and 0.0 < q <= 1.0):
                raise ParameterError(f"sample_rate must lie in (0, 1], got {q!r}")
        if not isinstance(self.compositions, (int, np.integer)) or self.compositions < 1:
            raise ParameterError(
                f"compositions must be a positive integer, got {self.compositions!r}")
        object.__setattr__(self, "sensitivity", float(self.sensitivity))
        object.__setattr__(self, "compositions", int(self.compositions))

    @property
    def loss_key(self) -> tuple[float, float, float | None]:
        """``(beta, Delta/sigma, q)``: everything the privacy loss depends on
        besides the number of compositions.  ``q = 1`` includes every record,
        so it keys as ``None``."""
        q = None if self.sample_rate == 1.0 else self.sample_rate
        return (self.noise.beta, self.sensitivity / self.noise.sigma, q)

    def to_dict(self) -> dict:
        return {
            "beta": self.noise.beta,
            "sigma": self.noise.sigma,
            "sensitivity": self.sensitivity,
            "sample_rate": self.sample_rate,
            "compositions": self.compositions,
        }


def _base_loss(spec: MechanismSpec, u: np.ndarray) -> np.ndarray:
    """``ell(sigma * u)``: the base log ratio at outputs in units of sigma."""
    beta, ratio, _ = spec.loss_key
    return kernels.gg_loss(u, ratio, beta, 1.0)


def _directed_loss(ell: np.ndarray, q: float,
                   direction: LossDirection) -> np.ndarray:
    """The subsampled loss at base log ratios ``ell``: ``log(M/Q)`` for
    REMOVE (``-ell`` at ``q = 1``), its negation for ADD."""
    removed = -ell if q == 1.0 else kernels.mixture_log_ratio(ell, q)
    return removed if direction is LossDirection.REMOVE else -removed


def loss_function(spec: MechanismSpec, t):
    """Base log ratio ``ell(t)`` for a mechanism without subsampling."""
    if spec.sample_rate is not None:
        raise ParameterError("loss_function is for unsubsampled specs; "
                             "use subsampled_loss_function")
    arr = np.atleast_1d(np.asarray(t, dtype=np.float64))
    if not np.all(np.isfinite(arr)):
        raise InputError("t must be finite")
    out = _base_loss(spec, arr / spec.noise.sigma)
    return float(out[0]) if np.ndim(t) == 0 else out


def subsampled_loss_function(spec: MechanismSpec, t,
                             direction: LossDirection = LossDirection.REMOVE):
    """Pointwise subsampled loss, ``log(M/Q)(t)`` (REMOVE) or its negation (ADD)."""
    if spec.sample_rate is None:
        raise ParameterError("spec has no sample_rate; use loss_function")
    arr = np.atleast_1d(np.asarray(t, dtype=np.float64))
    if not np.all(np.isfinite(arr)):
        raise InputError("t must be finite")
    out = _directed_loss(_base_loss(spec, arr / spec.noise.sigma),
                         float(spec.sample_rate), direction)
    return float(out[0]) if np.ndim(t) == 0 else out


def sample_prv(spec: MechanismSpec, direction: LossDirection,
               rng: np.random.Generator, count: int) -> np.ndarray:
    """Draw ``count`` iid single-shot loss values in the given direction.

    The noise is drawn in units of sigma, ``z ~ GG(beta, 1)``, so the draws
    depend on the spec only through `MechanismSpec.loss_key`.  Generator
    consumption order: noise block first, then (only when ``0 < q < 1`` and
    direction is REMOVE) one uniform block for the Bernoulli inclusions.
    """
    if not isinstance(direction, LossDirection):
        raise ParameterError(f"direction must be a LossDirection, got {direction!r}")
    if not isinstance(count, (int, np.integer)) or count < 1:
        raise ParameterError(f"count must be a positive integer, got {count!r}")
    beta, ratio, q = spec.loss_key
    z = ggdist.sample(GGParams(beta, 1.0), rng, int(count))

    if q is None:
        # REMOVE draws u = Delta/sigma - z from the shifted density, and the
        # loss -ell(Delta/sigma - z) equals ell(z) in law (pointwise to a few
        # ulp); ADD draws u = z from Q with loss ell(z).  Both directions
        # therefore share this line.
        return _base_loss(spec, z)

    if direction is LossDirection.REMOVE:  # u ~ M: shifted with probability q
        keep = rng.random(int(count)) < q
        z = np.where(keep, ratio - z, z)
    return _directed_loss(_base_loss(spec, z), q, direction)


def loss_range(spec: MechanismSpec,
               direction: LossDirection) -> tuple[float, float]:
    """Exact range of the single-shot loss in ``direction``.

    The base loss lies in ``[-Delta/sigma, Delta/sigma]`` at ``beta = 1``
    and is unbounded on both sides otherwise; subsampling maps that range
    through the same loss as `sample_prv`.
    """
    beta, ratio, q = spec.loss_key
    edge = ratio if beta == 1.0 else math.inf
    if q is None:
        return -edge, edge
    ends = _directed_loss(np.array([-edge, edge]), q, direction)
    return float(ends.min()), float(ends.max())


def directions_for(spec: MechanismSpec) -> tuple[LossDirection, ...]:
    """Directions that need separate accounting for this spec."""
    if spec.loss_key[2] is None:
        return (LossDirection.REMOVE,)
    return (LossDirection.REMOVE, LossDirection.ADD)


def multidim_prv_sample(beta: float, sigma: float, mu, sensitivity: float,
                        rng: np.random.Generator, count: int) -> np.ndarray:
    """Loss draws for a d-dimensional query with shift vector ``mu``.

    Y = (||t - mu||_beta**beta - ||t||_beta**beta) / sigma**beta with
    t ~ GG(beta, sigma)^d.  Requires ``||mu||_beta == sensitivity`` (within
    1e-9).  Restricted to beta <= 2, where the law of Y depends on ``mu``
    only through that norm for the worst case; larger shapes are genuinely
    dimension-dependent and rejected.
    """
    params = GGParams(beta, sigma)
    if params.beta > 2.0:
        raise ParameterError(
            "multidimensional reduction only holds for beta <= 2; "
            f"got beta={params.beta:g}")
    mu_arr = np.asarray(mu, dtype=np.float64)
    if mu_arr.ndim != 1 or mu_arr.size < 1 or mu_arr.size > MAX_DIMENSIONS:
        raise ParameterError(
            f"mu must be a 1-d vector with 1..{MAX_DIMENSIONS} entries")
    if not np.all(np.isfinite(mu_arr)):
        raise InputError("mu must be finite")
    norm = float(np.sum(np.abs(mu_arr) ** params.beta) ** (1.0 / params.beta))
    if abs(norm - sensitivity) > 1e-9:
        raise ParameterError(
            f"||mu||_beta = {norm!r} does not match sensitivity {sensitivity!r}")
    if not isinstance(count, (int, np.integer)) or count < 1:
        raise ParameterError(f"count must be a positive integer, got {count!r}")

    d = mu_arr.size
    sigma_beta = params.sigma ** params.beta
    z = ggdist.sample(params, rng, int(count) * d).reshape(int(count), d)
    total = np.zeros(int(count), dtype=np.float64)
    for j in range(d):
        total += kernels.gg_loss(np.ascontiguousarray(z[:, j]), float(mu_arr[j]),
                                 params.beta, sigma_beta)
    return total


def gaussian_prv_cdf(x, noise_std: float, sensitivity: float):
    """Exact PRV CDF of the Gaussian mechanism: N(eta, 2*eta) with
    eta = sensitivity**2 / (2 * noise_std**2)."""
    if noise_std <= 0 or sensitivity <= 0:
        raise ParameterError("noise_std and sensitivity must be positive")
    eta = sensitivity ** 2 / (2.0 * noise_std ** 2)
    arr = np.asarray(x, dtype=np.float64)
    out = special.ndtr((arr - eta) / math.sqrt(2.0 * eta))
    return float(out) if np.ndim(x) == 0 else out


def laplace_prv_cdf(x, scale: float, sensitivity: float):
    """Exact PRV CDF of the Laplace mechanism (scale ``b``, shift ``Delta``).

    The loss lives on [-Delta/b, Delta/b] with atoms at both endpoints:
    mass 1/2 at +Delta/b and exp(-Delta/b)/2 at -Delta/b.
    """
    if scale <= 0 or sensitivity <= 0:
        raise ParameterError("scale and sensitivity must be positive")
    b, delta = float(scale), float(sensitivity)
    edge = delta / b
    arr = np.atleast_1d(np.asarray(x, dtype=np.float64))
    out = np.empty_like(arr)
    below = arr < -edge
    above = arr >= edge
    mid = ~(below | above)
    out[below] = 0.0
    out[above] = 1.0
    t0 = (delta - b * arr[mid]) / 2.0
    out[mid] = 0.5 * np.exp(-t0 / b)
    return float(out[0]) if np.ndim(x) == 0 else out
