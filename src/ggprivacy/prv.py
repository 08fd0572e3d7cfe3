"""Privacy-loss random variables (PRVs) for generalized Gaussian mechanisms.

Conventions, fixed once here and relied on everywhere else:

* ``Q`` is the output density with the record absent (noise centered at 0),
  ``P`` the density with the record present (centered at the sensitivity
  ``Delta``).  The base log ratio is

      ell(t) = log Q(t)/P(t) = (|t - Delta|**beta - |t|**beta) / sigma**beta.

* With Poisson sample rate ``q`` the mixture is ``M = (1-q) Q + q P``.
  The REMOVE direction is the loss ``log(M/Q)(t) = log(1 - q + q e^{-ell(t)})``
  under ``t ~ M``; the ADD direction is ``log(Q/M)(t)`` (its exact negation
  pointwise) under ``t ~ Q``.

* At ``t = sigma * u`` the loss is ``|u - Delta/sigma|**beta - |u|**beta``,
  so every loss here is evaluated in units of ``sigma`` and depends on a
  spec only through `MechanismSpec.loss_key`, ``(beta, Delta/sigma, q)``.

* For ``beta >= 1`` the base loss is non-increasing in ``t``, so the law of
  the single-shot loss in either direction is known exactly: `loss_cdf`
  returns its CDF (one root-find in ``t`` plus GG tail probabilities, all
  from `ggdist`) and `loss_moments` its mean and variance.  The accountant
  discretizes these.  `sample_prv` draws from the same law; it is the
  paper's Monte-Carlo estimator and the cross-check of `loss_cdf`.

* On a grid symmetric about 0, such as the accountant's cell edges,
  `loss_cdfs_on_grid` gives every direction's CDF, bitwise equal to
  `loss_cdf`, from one shared root solve: a plain spec's crossing at ``-y``
  mirrors the one at ``y``, and ADD's threshold at ``y`` is REMOVE's at
  ``-y``.

* Both CDFs take their tails from `ggdist._upper_tails`.  At ``beta != 2``
  it takes ``P(Z >= x)`` as 1.0 at ``x <= -x1``, where float64 rounds it to
  1.0 anyway, and as 0.0 at ``x >= x1`` (``x1`` of `ggdist._saturation`; the
  tail there is at most 1.5e-20).  The second moves that mass to higher
  loss, a pessimistic rounding.  A root whose every tail saturates is not
  solved (`_live_half_gap_root`).

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
from typing import Callable

import numpy as np
from scipy import special

from . import ggdist, kernels
from .errors import InputError, ParameterError
from .ggdist import GGParams, _quadrature, _saturation, _upper_tails

MAX_DIMENSIONS = 64
_ROOT_TOL = 32.0 * float(np.finfo(np.float64).eps)
_ROOT_STEPS = 100      # Newton/bisection cap of `_half_gap_root`
_CUT_MARGIN = 1e-9     # relative margin on `_live_half_gap_root`'s cut


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


def _half_gap_root(beta: float, c: float, a: np.ndarray) -> np.ndarray:
    """``w >= 0`` with ``(w + c)**beta - |w - c|**beta = a``, elementwise,
    for ``beta > 1``, ``c > 0`` and ``a >= 0`` (infinite ``a`` gives infinite
    ``w``).

    ``a / (2 beta c)`` is the mean of the increasing ``sign(x) |x|**(beta
    - 1)`` over ``x`` in ``[w - c, w + c]``, so ``w`` lies in the bracket
    ``[g - c, g + c]`` with ``g = (a / (2 beta c))**(1 / (beta - 1))``.
    Newton steps start there, at the next-order estimate
    ``g - (beta - 2) c**2 / (6 g)`` once ``g > c``, and fall back to
    bisection whenever they leave the shrinking bracket; only entries that
    have not converged are iterated.
    """
    with np.errstate(over="ignore"):
        g = (a / (2.0 * beta * c)) ** (1.0 / (beta - 1.0))
    lo = np.maximum(g - c, 0.0)
    hi = g + c
    with np.errstate(all="ignore"):   # the estimate is discarded where g <= c
        w = np.where(g > c, np.clip(g - (beta - 2.0) * c * c / (6.0 * g), lo, hi), g)
    active = np.flatnonzero(np.isfinite(g) & (a > 0.0))
    for _ in range(_ROOT_STEPS):
        if active.size == 0:
            break
        wa, la, ha, aa = w[active], lo[active], hi[active], a[active]
        s = wa + c
        with np.errstate(divide="ignore"):  # log(0) at w = c is wanted
            t = np.log1p(-2.0 * np.minimum(wa, c) / s)   # log(|w - c| / s)
        # s**beta overflows only at roots near 1e300 (beta near 1), where
        # the residual and slope turn inf or nan; the step then bisects, and
        # every GG tail at such a root is 0 or 1 anyway.
        with np.errstate(over="ignore", invalid="ignore"):
            power = s ** beta
            res = -power * np.expm1(beta * t) - aa
            # d/dw: beta (s**(beta-1) - sign(w - c) |w - c|**(beta-1))
            slope = beta * power / s * (
                1.0 - np.copysign(np.exp((beta - 1.0) * t), wa - c))
        above = res > 0.0
        ha = np.where(above, wa, ha)
        la = np.where(above, la, wa)
        with np.errstate(divide="ignore", invalid="ignore"):
            newton = wa - res / slope   # a flat slope fails `inside` below
        inside = (newton >= la) & (newton <= ha)
        nxt = np.where(inside, newton, la + 0.5 * (ha - la))
        # Rounding in the residual moves the root by about eps (w + c) /
        # (beta - 1); stop well above that noise.
        tol = _ROOT_TOL / (beta - 1.0) * (wa + c)
        done = (inside & (np.abs(newton - wa) <= tol)) | (ha - la <= tol)
        w[active], lo[active], hi[active] = nxt, la, ha
        active = active[~done]
    return w


def _live_half_gap_root(beta: float, c: float, a: np.ndarray) -> np.ndarray:
    """`_half_gap_root`, solved only where a tail it feeds can be live, and
    ``+inf`` elsewhere.

    The crossing is ``z = c - sign(theta) w`` (`_crossing`), and every tail
    it feeds is taken at ``z``, ``-z`` or ``2c - z = c + sign(theta) w``.
    Each is at least ``w - c`` in size, so each saturates in
    `ggdist._upper_tails` once ``w >= x1 + c``.  The root is increasing in
    ``a``, so that holds from ``a_cut = (w_c + c)**beta - (w_c - c)**beta``
    at ``w_c = x1 + c`` on.  ``a_cut`` is raised by the relative margin
    `_CUT_MARGIN`, far above its rounding, so every ``a`` at or above it has
    a root past ``w_c``.  ``w = inf`` gives those tails their saturated
    values exactly.
    """
    w_c = _saturation(beta)[1] + c
    s = np.float64(w_c + c)
    # The stable form of `_half_gap_root`'s residual, at w_c > c.
    with np.errstate(over="ignore"):
        a_cut = -s ** beta * np.expm1(beta * np.log1p(-2.0 * c / s)) \
            * (1.0 + _CUT_MARGIN)
    live = a < a_cut
    w = np.full(a.shape, np.inf)
    w[live] = _half_gap_root(beta, c, a[live])
    return w


def _crossing(beta: float, ratio: float, theta: np.ndarray,
              upper: bool, w: np.ndarray | None = None) -> np.ndarray:
    """Where the base loss ``ell(z) = |z - ratio|**beta - |z|**beta``
    crosses ``theta``.  ``ell`` is non-increasing, so ``{ell <= theta}`` is
    ``{z >= z*}`` and ``{ell >= theta}`` (``upper``) is ``{z <= z*}``.

    At ``beta = 1`` the loss is flat at ``+-ratio`` outside ``[0, ratio]``,
    and the two level sets differ at those atoms, as in `laplace_prv_cdf`.
    At ``beta`` not in {1, 2} the caller may pass ``w``, the
    `_live_half_gap_root` at ``|theta|``, when it has already solved it.
    """
    if beta == 1.0:
        z = (ratio - theta) / 2.0
        empty = theta > ratio if upper else theta < -ratio
        full = theta <= -ratio if upper else theta >= ratio
        return np.where(empty, -np.inf if upper else np.inf,
                        np.where(full, np.inf if upper else -np.inf, z))
    if beta == 2.0:
        return (ratio * ratio - theta) / (2.0 * ratio)
    # ell is odd about ratio/2: ell(ratio/2 + u) = -ell(ratio/2 - u).
    c = 0.5 * ratio
    if w is None:
        w = _live_half_gap_root(beta, c, np.abs(theta))
    return c - np.sign(theta) * w


def _unmix(x: np.ndarray, q: float) -> np.ndarray:
    """``s`` with ``log(1 - q + q e**s) = x``, the inverse of the map in
    `_directed_loss`; ``-inf`` at and below ``x = log(1 - q)``."""
    out = np.full(x.shape, -np.inf)
    big = x > 1.0
    xb = x[big]
    out[big] = xb - math.log(q) + np.log1p(-(1.0 - q) * np.exp(-xb))
    mid = ~big & (x > math.log1p(-q))
    out[mid] = np.log1p(np.expm1(x[mid]) / q)
    return out


def loss_cdf(spec: MechanismSpec,
             direction: LossDirection) -> Callable:
    """The exact CDF of the single-shot loss in ``direction``: the law that
    `sample_prv` draws from, read off through `MechanismSpec.loss_key`.  The
    returned function takes loss values (a scalar or an array).

    The base loss is non-increasing in the noise, so with ``Z ~ GG(beta, 1)``
    and ``G`` its distribution function:

    * no subsampling: ``P(ell(Z) <= y) = P(Z >= z*)`` at ``ell(z*) = y``;
    * REMOVE: ``(1 - q) G(t*) + q G(t* - Delta/sigma)`` at
      ``ell(t*) = -log((e**y - 1 + q) / q)``, zero at and below
      ``log(1 - q)``;
    * ADD: ``P(ell(Z) <= theta)`` at ``theta = -log((e**-y - 1 + q) / q)``,
      one at and above ``-log(1 - q)``.

    Each tail is `ggdist._upper_tails`': at ``beta != 2`` a tail below
    ``P(Z >= x1)`` (at most 1.5e-20) reads 0.0, which moves that mass to
    higher loss, and a root whose every tail saturates is not solved
    (`_live_half_gap_root`).  Each point is solved on its own.  On a grid
    symmetric about 0, `loss_cdfs_on_grid` returns the same values bitwise
    for every direction at once: one root solve serves ``y`` and ``-y`` and
    both directions.
    """
    if not isinstance(direction, LossDirection):
        raise ParameterError(f"direction must be a LossDirection, got {direction!r}")
    beta, ratio, q = spec.loss_key

    def tail(x: np.ndarray) -> np.ndarray:
        [out] = _upper_tails(beta, [x])
        return out

    def values(y: np.ndarray) -> np.ndarray:
        if q is None:
            return tail(_crossing(beta, ratio, y, upper=False))
        if direction is LossDirection.ADD:
            theta = -_unmix(-y, q)
            return tail(_crossing(beta, ratio, theta, upper=False))
        z = _crossing(beta, ratio, -_unmix(y, q), upper=True)
        return (1.0 - q) * tail(-z) + q * tail(ratio - z)

    def cdf(y):
        out = values(np.atleast_1d(np.asarray(y, dtype=np.float64)))
        return float(out[0]) if np.ndim(y) == 0 else out

    return cdf


def loss_cdfs_on_grid(spec: MechanismSpec,
                      edges: np.ndarray) -> dict[LossDirection, np.ndarray]:
    """``loss_cdf(spec, d)(edges)`` for every ``d`` in `directions_for`,
    bitwise, on ``edges`` symmetric about 0 (``edges[::-1] == -edges``),
    from one root solve.

    * No subsampling: the crossing at ``-y`` mirrors the one at ``y``, so
      the root is solved on the upper half of ``|edges|`` only.
    * Subsampled: ADD's threshold at ``y`` is REMOVE's at ``-y``, so one
      solve, reversed, serves both directions, and one tail array at
      ``|z|`` gives REMOVE's ``P(Z >= -z)`` and ADD's ``P(Z >= z)``.
    * Saturation: at ``beta != 2`` no tail at ``|x| >= x1`` of
      `ggdist._saturation` is evaluated, and no root that feeds only such
      tails is solved; they take the values `loss_cdf` takes there.
    """
    beta, ratio, q = spec.loss_key
    y = np.asarray(edges, dtype=np.float64)
    if y.ndim != 1 or not np.array_equal(y[::-1], -y):
        raise InputError("edges must be a 1-d grid symmetric about 0")
    theta = y if q is None else -_unmix(y, q)
    w = None
    if beta not in (1.0, 2.0):
        c = 0.5 * ratio
        if q is None:
            n = y.size
            upper = _live_half_gap_root(beta, c, np.abs(y[n // 2:]))
            w = np.concatenate([upper[n % 2:][::-1], upper])
        else:
            w = _live_half_gap_root(beta, c, np.abs(theta))
    if q is None:
        [cdf] = _upper_tails(
            beta, [_crossing(beta, ratio, theta, upper=False, w=w)])
        return {LossDirection.REMOVE: cdf}
    z = _crossing(beta, ratio, theta, upper=True, w=w)
    [shifted] = _upper_tails(beta, [ratio - z])
    if beta == 1.0:     # the two level sets differ at the loss's atoms
        [below] = _upper_tails(beta, [-z])
        z_add = _crossing(beta, ratio, theta[::-1], upper=False)
        [add] = _upper_tails(beta, [z_add])
    else:
        below, above = _upper_tails(beta, [-z, z])
        add = above[::-1]
    return {LossDirection.REMOVE: (1.0 - q) * below + q * shifted,
            LossDirection.ADD: add}


def loss_moments(spec: MechanismSpec,
                 direction: LossDirection) -> tuple[float, float]:
    """Mean and variance of the single-shot loss in ``direction``.

    Quadrature against the GG density in units of sigma (`ggdist._quadrature`),
    on panels that break at the loss's kinks ``0`` and ``Delta/sigma``.
    """
    if not isinstance(direction, LossDirection):
        raise ParameterError(f"direction must be a LossDirection, got {direction!r}")
    beta, ratio, q = spec.loss_key
    if q is None or direction is LossDirection.ADD:
        parts = ((1.0, 0.0),)               # outputs drawn from Q
    else:
        parts = ((1.0 - q, 0.0), (q, ratio))   # from M = (1 - q) Q + q P
    us, ws = zip(*(_quadrature(beta, shift, (0.0, ratio), share)
                   for share, shift in parts))
    u, w = np.concatenate(us), np.concatenate(ws)
    y = _base_loss(spec, u)
    if q is not None:
        y = _directed_loss(y, q, direction)
    mean = float(w @ y)
    return mean, float(w @ (y - mean) ** 2)


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
    1e-9), and beta <= 2; larger shapes are rejected.  The law of Y depends
    on the whole vector ``mu``, not on its norm alone: at beta = 1 a shift
    split over two coordinates halves the top atom of a one-hot shift, and
    at 1 < beta < 2 some split shifts give a larger epsilon than the one-hot
    shift of the same norm.  Only at beta = 2 is every shift of that norm
    alike.
    """
    params = GGParams(beta, sigma)
    if params.beta > 2.0:
        raise ParameterError(
            "multidimensional loss draws take beta <= 2 only; "
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
