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
  from `ggdist`), `loss_masses` its masses on a grid of cells and
  `loss_moments` its mean and variance.  The accountant discretizes with
  `loss_masses`.  `sample_prv` draws from the same law; it is the paper's
  Monte-Carlo estimator and the cross-check of `loss_cdf`.

* `loss_masses` integrates the noise density between the noise crossings
  of each cell's two edges, so every cell keeps its relative precision,
  and solves one root per edge that can bound any mass, shared by both
  directions (`_edge_crossings`).

* `loss_cdf` and `loss_masses` follow one tail rule.  Inside the solved
  range, where ``|theta|`` stays below `_loss_cut`, every tail is
  `ggdist._incomplete`'s at full precision.  Past it the crossing is not
  solved (`_live_half_gap_root`) and each tail is exactly 0 or 1; the tail
  rounded off is at most ``P(Z >= x1)`` (1.5e-20), with ``x1 =
  ggdist._TAIL_ONE**(1/beta)``.  Rounding the low-loss end moves its mass
  to higher loss, a pessimistic rounding.

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

from . import ggdist, kernels
from .errors import InputError, ParameterError, RangeError, _integer, _real
from .ggdist import GGParams, _quadrature, _upper_tail

MAX_DIMENSIONS = 64
_ROOT_TOL = 32.0 * float(np.finfo(np.float64).eps)
_ROOT_STEPS = 100      # Newton/bisection cap of `_half_gap_root`
_CUT_MARGIN = 1e-9     # relative margin on `_loss_cut`


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
        sensitivity = _real("sensitivity", self.sensitivity)
        if not (math.isfinite(sensitivity) and sensitivity > 0):
            raise ParameterError(
                f"sensitivity must be positive and finite, got {self.sensitivity!r}")
        object.__setattr__(self, "sensitivity", sensitivity)
        if self.sample_rate is not None:
            q = _real("sample_rate", self.sample_rate)
            if not 0.0 < q <= 1.0:
                raise ParameterError(
                    f"sample_rate must lie in (0, 1], got {self.sample_rate!r}")
            object.__setattr__(self, "sample_rate", q)
        object.__setattr__(self, "compositions",
                           _integer("compositions", self.compositions, 1))

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
    count = _integer("count", count, 1)
    beta, ratio, q = spec.loss_key
    z = ggdist.sample(GGParams(beta, 1.0), rng, count)

    if q is None:
        # REMOVE draws u = Delta/sigma - z from the shifted density, and the
        # loss -ell(Delta/sigma - z) equals ell(z) in law (pointwise to a few
        # ulp); ADD draws u = z from Q with loss ell(z).  Both directions
        # therefore share this line.
        return _base_loss(spec, z)

    if direction is LossDirection.REMOVE:  # u ~ M: shifted with probability q
        keep = rng.random(count) < q
        z = np.where(keep, ratio - z, z)
    return _directed_loss(_base_loss(spec, z), q, direction)


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
            newton = wa - res / slope   # a flat slope fails ``inside`` below
        inside = (newton >= la) & (newton <= ha)
        nxt = np.where(inside, newton, la + 0.5 * (ha - la))
        # Rounding in the residual moves the root by about eps (w + c) /
        # (beta - 1); stop well above that noise.
        tol = _ROOT_TOL / (beta - 1.0) * (wa + c)
        done = (inside & (np.abs(newton - wa) <= tol)) | (ha - la <= tol)
        w[active], lo[active], hi[active] = nxt, la, ha
        active = active[~done]
    return w


def _loss_cut(beta: float, c: float) -> float:
    """``a_cut``: the base loss at ``-x1``, ``ell(-x1) = (x1 + 2c)**beta -
    x1**beta`` with ``x1 = ggdist._TAIL_ONE**(1/beta)`` and ``2c =
    Delta/sigma``, raised by the relative margin `_CUT_MARGIN`, far above
    its rounding.

    The loss is odd about ``c``, so ``|ell| < a_cut`` holds on the noise
    range ``(-x1, x1 + 2c)`` and on no point past it: a crossing at
    ``|theta| >= a_cut`` lies past ``-x1`` or past ``x1 + 2c``.  At ``beta
    = 1`` the cut lies just above the loss's bound ``Delta/sigma``.
    """
    s = np.float64(ggdist._TAIL_ONE ** (1.0 / beta) + c + c)
    # The stable form of `_half_gap_root`'s residual, at w = x1 + c > c.
    # Where 2c swamps x1, log1p(-1) = -inf gives the limit s**beta.
    with np.errstate(over="ignore", divide="ignore"):
        return float(-s ** beta * np.expm1(beta * np.log1p(-2.0 * c / s))
                     * (1.0 + _CUT_MARGIN))


def _live_half_gap_root(beta: float, c: float, a: np.ndarray) -> np.ndarray:
    """`_half_gap_root` below `_loss_cut`, and ``+inf`` at and above it.

    The crossing is ``z = c - sign(theta) w`` (`_crossing`), and every tail
    it feeds is taken at ``z``, ``-z`` or ``2c - z = c + sign(theta) w``.
    Each is at least ``w - c`` in size, so each is within ``P(Z >= x1)``
    (1.5e-20) of 0 or 1 once ``w >= x1 + c``, which holds at every ``a`` at
    or above the cut.  ``w = inf`` makes those tails exactly 0 or 1.
    """
    live = a < _loss_cut(beta, c)
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

    Each tail is `ggdist._upper_tail`'s, at full precision, while
    ``|theta|`` stays below `_loss_cut`; past the cut it is exactly 0 or 1
    (`_live_half_gap_root`), the rule `loss_masses` follows too.  Each point
    is solved on its own; on a grid symmetric about 0, `_edge_crossings`
    solves the same crossings bitwise for every direction at once.
    """
    if not isinstance(direction, LossDirection):
        raise ParameterError(f"direction must be a LossDirection, got {direction!r}")
    beta, ratio, q = spec.loss_key

    def values(y: np.ndarray) -> np.ndarray:
        if q is None or direction is LossDirection.ADD:
            theta = y if q is None else -_unmix(-y, q)
            return _upper_tail(_crossing(beta, ratio, theta, upper=False),
                               beta)
        z = _crossing(beta, ratio, -_unmix(y, q), upper=True)
        return (1.0 - q) * _upper_tail(-z, beta) \
            + q * _upper_tail(ratio - z, beta)

    def cdf(y):
        out = values(np.atleast_1d(np.asarray(y, dtype=np.float64)))
        return float(out[0]) if np.ndim(y) == 0 else out

    return cdf


def _edge_crossings(spec: MechanismSpec,
                    y: np.ndarray) -> dict[LossDirection, np.ndarray]:
    """The noise crossings of the loss edges ``y``, in the order of ``y``,
    for every direction of `directions_for`: where the base loss crosses
    the threshold of each edge, as in `loss_cdf`, bitwise.  For a plain
    spec ``y`` is symmetric about 0 (``y[::-1] == -y``); for a subsampled
    one, ADD's crossings are those of the edges ``-y[::-1]``.

    One root solve serves them all.  A plain spec's crossing at ``-y``
    mirrors the one at ``y``, so its roots are solved on the upper half of
    ``|y|``; ADD's threshold at ``-y`` is REMOVE's at ``y``, so REMOVE's
    solve, reversed, serves ADD.  A root that lies past `_loss_cut` is not
    solved (`_live_half_gap_root`).
    """
    beta, ratio, q = spec.loss_key
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
        return {LossDirection.REMOVE: _crossing(beta, ratio, theta,
                                                upper=False, w=w)}
    return {LossDirection.REMOVE: _crossing(beta, ratio, theta, upper=True,
                                            w=w),
            LossDirection.ADD: _crossing(beta, ratio, theta[::-1], upper=False,
                                         w=None if w is None else w[::-1])}


def _solved_edges(spec: MechanismSpec, h: float, m: int) -> tuple[int, int]:
    """``first, last``: the indices ``i`` of the edges ``(i - 1/2) h``,
    ``-m <= i <= m + 1``, that `loss_masses` solves, those inside the loss's
    solved reach; none when ``first > last``.

    The reach is ``[-a_cut, a_cut]`` (`_loss_cut`) for a plain spec and its
    REMOVE image under `_directed_loss` for a subsampled one; ADD's is its
    negation, on the same edges reversed.  Past it every tail is exactly 0
    or 1, so with no edge solved the pieces below and above the grid are
    exactly 0.  The edges lie in the reach up to rounding, which only moves
    where the open end pieces start.  A plain spec's edges are symmetric
    about 0.
    """
    beta, ratio, q = spec.loss_key
    cut = _loss_cut(beta, 0.5 * ratio)
    if q is None:
        hi_y = cut
    else:
        lo_y, hi_y = _directed_loss(np.array([cut, -cut]), q,
                                    LossDirection.REMOVE)
    with np.errstate(over="ignore", invalid="ignore"):
        last = int(math.floor(np.clip(hi_y / h + 0.5, -m - 1, m + 1)))
        first = 1 - last if q is None else \
            int(math.ceil(np.clip(lo_y / h + 0.5, -m, m + 2)))
    return first, last


def loss_masses(spec: MechanismSpec, h: float,
                m: int) -> dict[LossDirection, np.ndarray]:
    """The law of the single-shot loss on the cells ``((i - 1/2) h, (i +
    1/2) h]``, ``|i| <= m``, for every direction of `directions_for`.

    The loss line falls into ``2m + 3`` pieces: the mass at or below ``-(m
    + 1/2) h``, the cells in order, and the mass above ``(m + 1/2) h``.
    Each direction maps to one array of those pieces, in that order.

    * Only the edges whose noise crossing can lie in ``(-x1, x1 +
      Delta/sigma)``, where ``|theta|`` stays below `_loss_cut`, are solved
      (`_solved_edges`, `_edge_crossings`); the pieces past them hold none.
      At ``beta = 1`` that is the loss's bounded range.
    * A piece's mass is the integral, between the noise crossings of its two
      edges, of the density its direction draws from: ``p(u)`` for a plain
      spec and for ADD, ``(1 - q) p(u) + q p(u - Delta/sigma)`` for REMOVE
      (`ggdist._masses_between`).  The atoms of ``beta = 1`` lie in pieces
      whose crossing interval is open.
    * The pieces at the two ends of the solved edges are open too and take
      the noise past the range: the mass past its low-loss end moves to
      higher loss, a pessimistic rounding, and the mass past its high-loss
      end, at most ``P(Z >= x1)`` (1.5e-20), to lower loss.
    """
    beta, ratio, q = spec.loss_key
    first, last = _solved_edges(spec, h, m)
    y = (np.arange(first, last + 1, dtype=np.float64) - 0.5) * h
    crossings = _edge_crossings(spec, y)

    def pieces(z: np.ndarray, start: int, falling: bool,
               mixed: bool = False) -> np.ndarray:
        # Noise crossings in increasing order, open at both ends.
        x = np.concatenate([[-np.inf], z[::-1] if falling else z, [np.inf]])
        mass = ggdist._masses_between(x, beta)
        if mixed:       # u ~ (1 - q) p(u) + q p(u - Delta/sigma)
            mass *= 1.0 - q
            mass += q * ggdist._masses_between(x - ratio, beta)
        out = np.zeros(2 * m + 3)
        out[start:start + mass.size] = mass[::-1] if falling else mass
        return out

    remove, add = LossDirection.REMOVE, LossDirection.ADD
    if q is None:
        return {remove: pieces(crossings[remove], first + m, True)}
    return {remove: pieces(crossings[remove], first + m, False, True),
            add: pieces(crossings[add], 1 - last + m, True)}


def loss_moments(spec: MechanismSpec,
                 direction: LossDirection) -> tuple[float, float]:
    """Mean and variance of the single-shot loss in ``direction``.

    Quadrature against the GG density in units of sigma (`ggdist._quadrature`),
    on panels that break at the loss's kinks ``0`` and ``Delta/sigma``.  A
    loss whose variance overflows float64 raises `RangeError`.
    """
    if not isinstance(direction, LossDirection):
        raise ParameterError(f"direction must be a LossDirection, got {direction!r}")
    return _loss_moments(spec, (direction,))[direction]


def _loss_moments(spec: MechanismSpec, directions
                  ) -> dict[LossDirection, tuple[float, float]]:
    """`loss_moments` in each of ``directions``, checked in that order, from
    one quadrature per noise law.  Every direction draws the noise of ``Q``
    with its own mass (``1 - q`` for REMOVE's ``M = (1 - q) Q + q P``, 1
    otherwise), so ``Q``'s nodes, density and base loss serve them all; only
    REMOVE adds ``P``'s part."""
    beta, ratio, q = spec.loss_key
    kinks = (0.0, ratio)
    shares = [1.0 - q if q is not None and d is LossDirection.REMOVE else 1.0
              for d in directions]
    u, rows = _quadrature(beta, 0.0, kinks, np.array(shares)[:, None])
    out = {}
    # An overflow leaves the variance inf or nan, which raises below.
    with np.errstate(over="ignore", invalid="ignore"):
        ell = _base_loss(spec, u)
        removed = None if q is None else \
            _directed_loss(ell, q, LossDirection.REMOVE)
        for direction, w in zip(directions, rows):
            if q is None:
                y = ell
            elif direction is LossDirection.ADD:
                y = -removed
            else:                           # from M = (1 - q) Q + q P
                u_p, w_p = _quadrature(beta, ratio, kinks, q)
                y = np.concatenate([removed, _directed_loss(
                    _base_loss(spec, u_p), q, LossDirection.REMOVE)])
                w = np.concatenate([w, w_p])
            mean = float(w @ y)
            var = float(w @ (y - mean) ** 2)
            if not math.isfinite(var):
                raise RangeError(
                    f"the single-shot loss at beta = {beta:g}, Delta/sigma = "
                    f"{ratio:.6g} reaches {float(np.max(np.abs(y))):.3g} in "
                    f"the {direction.value} direction, so its variance "
                    f"overflows float64")
            out[direction] = (mean, var)
    return out


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
    count = _integer("count", count, 1)

    d = mu_arr.size
    sigma_beta = params.sigma ** params.beta
    z = ggdist.sample(params, rng, count * d).reshape(count, d)
    total = np.zeros(count, dtype=np.float64)
    for j in range(d):
        total += kernels.gg_loss(np.ascontiguousarray(z[:, j]), float(mu_arr[j]),
                                 params.beta, sigma_beta)
    return total


def laplace_prv_cdf(x, scale: float, sensitivity: float):
    """Exact PRV CDF of the Laplace mechanism (scale ``b``, shift ``Delta``).

    The loss lives on [-Delta/b, Delta/b] with atoms at both endpoints:
    mass 1/2 at +Delta/b and exp(-Delta/b)/2 at -Delta/b.  Only tests and
    `perfbench/workloads.py`'s check call it; it leaves the package once
    the benchmark stops calling it (ROADMAP item 1).
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
