"""Calibration: noise scales for privacy targets, families, tail weights.

`solve_sigma` inverts the accountant in sigma by bracketed bisection.  The
accountant discretizes the exact loss CDF, so each probe is a deterministic
function of the loss key and the grid, and epsilon(sigma) is monotone
non-increasing up to discretization error; a given solve is exactly
reproducible.  Observed non-monotonicity beyond half the solve tolerance
aborts with `AccountingInconsistencyError` rather than returning a sigma
the evidence does not support.  `equivalent_family` solves one sigma per shape at a
shared target, and `tail_weight` reads the tail masses of such a solved
family.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass

import numpy as np

from .accountant import (DEFAULT_BINS, DEFAULT_SAMPLES, AccountantConfig,
                         account)
from .errors import AccountingInconsistencyError, ParameterError, SolverError
from .ggdist import GGParams, _upper_tail
from .prv import MechanismSpec

DEFAULT_TOLERANCE = 0.05
_MAX_BRACKET_STEPS = 200
_MAX_BISECT_STEPS = 200


@dataclass(frozen=True)
class PrivacyTarget:
    """An (epsilon, delta) goal for a mechanism usage pattern."""

    epsilon: float
    delta: float
    compositions: int = 1
    sample_rate: float | None = None

    def __post_init__(self) -> None:
        if not (math.isfinite(self.epsilon) and self.epsilon > 0):
            raise ParameterError(f"epsilon must be positive, got {self.epsilon!r}")
        if not (0.0 < self.delta < 1.0):
            raise ParameterError(f"delta must lie in (0, 1), got {self.delta!r}")
        if self.compositions < 1:
            raise ParameterError("compositions must be >= 1")
        if self.sample_rate is not None and not 0.0 < self.sample_rate <= 1.0:
            raise ParameterError(
                f"sample_rate must lie in (0, 1], got {self.sample_rate!r}")


@dataclass
class SolveResult:
    sigma: float
    bracket: tuple[float, float]
    epsilon: float
    probes: int
    evaluations: list[tuple[float, float]]


# Probes closer than this ratio are not compared for monotonicity: their
# true epsilon gap can be inside the accountant's grid error, and any
# apparent reversal is uninformative.
_MONOTONE_MIN_RATIO = 1.05


def _check_monotone(evals: dict[float, float], slack: float) -> None:
    pairs = sorted(evals.items())
    for i in range(len(pairs)):
        for j in range(i + 1, len(pairs)):
            lo_sigma, lo_eps = pairs[i]
            hi_sigma, hi_eps = pairs[j]
            if hi_sigma < lo_sigma * _MONOTONE_MIN_RATIO:
                continue
            if hi_eps > lo_eps + slack:
                raise AccountingInconsistencyError(
                    "epsilon(sigma) rose with sigma beyond tolerance: "
                    f"eps({lo_sigma:.6g}) = {lo_eps:.6g} but "
                    f"eps({hi_sigma:.6g}) = {hi_eps:.6g} (slack {slack:g})")


def solve_sigma(beta: float, target: PrivacyTarget,
                cfg: AccountantConfig | None = None, rng=None, *,
                tolerance: float = DEFAULT_TOLERANCE,
                sensitivity: float = 1.0,
                samples_n: int = DEFAULT_SAMPLES,
                bins: int = DEFAULT_BINS) -> SolveResult:
    """Smallest noise scale meeting ``target``, to within ``tolerance`` in
    epsilon.

    Doubles/halves an initial bracket around sigma = sensitivity until
    ``eps(sigma_min) > target.epsilon > eps(sigma_max)``, then bisects,
    keeping that invariant, until the kept (sigma_max) side is within
    ``tolerance / 2`` of the target.  Each probe re-runs the deterministic
    accountant, so the returned sigma re-accounts to exactly the epsilon
    reported here.  The probes at sensitivity ``c`` are ``c`` times those at
    sensitivity 1: their ratios ``sensitivity / sigma`` agree to an ulp
    (bitwise when ``c`` is a power of two), and so do their epsilons.
    """
    if not (isinstance(sensitivity, (int, float))
            and math.isfinite(sensitivity) and sensitivity > 0):
        raise ParameterError(
            f"sensitivity must be positive and finite, got {sensitivity!r}")
    if not (math.isfinite(tolerance) and tolerance > 0):
        raise ParameterError(f"tolerance must be positive, got {tolerance!r}")
    evals: dict[float, float] = {}

    def probe(sigma: float) -> float:
        if sigma not in evals:
            spec = MechanismSpec(GGParams(beta, sigma), sensitivity,
                                 target.sample_rate, target.compositions)
            result = account(spec, cfg, delta=target.delta, rng=rng,
                             samples_n=samples_n, bins=bins)
            evals[sigma] = result.epsilon
            _check_monotone(evals, 0.5 * tolerance)
        return evals[sigma]

    sigma_min = sigma_max = float(sensitivity)
    for _ in range(_MAX_BRACKET_STEPS):
        if probe(sigma_min) > target.epsilon:
            break
        sigma_min /= 2.0
    else:
        raise SolverError(
            f"no sigma in [{sigma_min:g}, {sensitivity:g}] pushes epsilon "
            f"above {target.epsilon:g}; target may be out of range")
    for _ in range(_MAX_BRACKET_STEPS):
        if probe(sigma_max) < target.epsilon:
            break
        sigma_max *= 2.0
    else:
        raise SolverError(
            f"no sigma in [{sensitivity:g}, {sigma_max:g}] brings epsilon below "
            f"{target.epsilon:g}; target may be out of range")

    stopped_by = f"the {_MAX_BISECT_STEPS}-step bisection limit"
    for _ in range(_MAX_BISECT_STEPS):
        if abs(evals[sigma_max] - target.epsilon) <= 0.5 * tolerance:
            break
        mid = 0.5 * (sigma_min + sigma_max)
        if mid in (sigma_min, sigma_max):
            stopped_by = (
                f"the bracket reaching float resolution, with epsilon = "
                f"{evals[sigma_min]:.6g} at the adjacent sigma = "
                f"{sigma_min!r}: on this grid epsilon jumps by more than the "
                "tolerance between adjacent sigma, and more bins make the "
                "jumps smaller")
            break
        if probe(mid) > target.epsilon:
            sigma_min = mid
        else:
            sigma_max = mid
    if abs(evals[sigma_max] - target.epsilon) > 0.5 * tolerance:
        raise SolverError(
            f"bisection did not land within {0.5 * tolerance:g} of "
            f"epsilon = {target.epsilon:g} after {len(evals)} probes; closest "
            f"was {evals[sigma_max]:.6g} at sigma = {sigma_max!r}, stopped by "
            f"{stopped_by}")

    return SolveResult(sigma=sigma_max, bracket=(sigma_min, sigma_max),
                       epsilon=evals[sigma_max], probes=len(evals),
                       evaluations=sorted(evals.items()))


@dataclass
class FamilyPoint:
    beta: float
    sigma: float
    epsilon: float


@dataclass
class FamilyResult:
    """Noise scales giving one (epsilon, delta) guarantee across shapes."""

    points: list[FamilyPoint]
    target: PrivacyTarget
    sigma_monotone: bool  # reported, not asserted: sigma rising with beta


def equivalent_family(betas, target: PrivacyTarget,
                      cfg: AccountantConfig | None = None, rng=None, *,
                      tolerance: float = DEFAULT_TOLERANCE,
                      samples_n: int = DEFAULT_SAMPLES,
                      bins: int = DEFAULT_BINS) -> FamilyResult:
    """Solve sigma for every shape in ``betas`` at one shared target."""
    beta_list = [float(b) for b in np.atleast_1d(np.asarray(betas, dtype=np.float64))]
    if not beta_list:
        raise ParameterError("betas must be non-empty")
    points = []
    for beta in sorted(beta_list):
        solved = solve_sigma(beta, target, cfg, rng, tolerance=tolerance,
                             samples_n=samples_n, bins=bins)
        points.append(FamilyPoint(beta=beta, sigma=solved.sigma,
                                  epsilon=solved.epsilon))
    sigmas = [p.sigma for p in points]
    monotone = bool(np.all(np.diff(sigmas) > 0)) if len(sigmas) > 1 else True
    return FamilyResult(points=points, target=target, sigma_monotone=monotone)


@dataclass
class TailWeightPoint:
    beta: float
    tau: float
    weight: float
    sigma: float
    weight_smoothed: float | None = None


@dataclass
class TailWeightResult:
    points: list[TailWeightPoint]
    family: FamilyResult


def _cutoff_list(cutoffs) -> list[float]:
    values = [float(c) for c in np.atleast_1d(np.asarray(cutoffs, dtype=np.float64))]
    if not values or any(c <= 0 or not math.isfinite(c) for c in values):
        raise ParameterError("cutoffs must be positive and finite")
    return values


def tail_weight(family: FamilyResult, cutoffs, *,
                smooth: bool = False) -> TailWeightResult:
    """Two-sided tail mass w = 2 (1 - F(tau)) of each noise of a solved
    ``family`` (see `equivalent_family`) at each cutoff.

    It is evaluated as twice the GG upper tail at ``tau / sigma``
    (`ggdist._upper_tail`), which keeps its relative precision in the far
    tail.  With ``smooth=True`` a Savitzky-Golay pass (order 2, window 5)
    over the beta axis is attached per cutoff; raw weights are always
    reported.
    """
    points: list[TailWeightPoint] = []
    for tau in _cutoff_list(cutoffs):
        raw = []
        for fp in family.points:
            w = 2.0 * _upper_tail(np.array([tau / fp.sigma]), fp.beta)[0]
            raw.append(TailWeightPoint(beta=fp.beta, tau=tau, weight=float(w),
                                       sigma=fp.sigma))
        if smooth and len(raw) >= 5:
            from scipy.signal import savgol_filter  # deferred: slow to import
            smoothed = savgol_filter([p.weight for p in raw], 5, 2)
            for p, s in zip(raw, smoothed):
                p.weight_smoothed = float(s)
        points.extend(raw)
    return TailWeightResult(points=points, family=family)


# ---------------------------------------------------------------------------
# CSV formats (owned here)
# ---------------------------------------------------------------------------


def family_to_csv(result: FamilyResult) -> str:
    """Two columns, header ``beta,sigma``."""
    buf = io.StringIO()
    buf.write("beta,sigma\n")
    for p in result.points:
        buf.write(f"{p.beta:.12g},{p.sigma:.12g}\n")
    return buf.getvalue()


def family_from_csv(text: str) -> list[FamilyPoint]:
    lines = [ln for ln in text.strip().splitlines() if ln.strip()]
    if not lines or lines[0].strip() != "beta,sigma":
        raise ParameterError("family CSV must start with header 'beta,sigma'")
    if len(lines) == 1:
        raise ParameterError("family CSV has a header but no data rows")
    points = []
    for idx, line in enumerate(lines[1:], start=2):
        parts = line.split(",")
        if len(parts) != 2:
            raise ParameterError(f"family CSV row {idx}: expected 2 columns")
        values = {}
        for column, cell in zip(("beta", "sigma"), parts):
            try:
                values[column] = float(cell)
            except ValueError:
                raise ParameterError(
                    f"family CSV row {idx}: {column} {cell.strip()!r} is not "
                    "a number") from None
        points.append(FamilyPoint(**values, epsilon=math.nan))
    return points


def tail_weights_to_csv(result: TailWeightResult) -> str:
    """Header ``beta,tau,weight`` (plus ``weight_smoothed`` when present)."""
    buf = io.StringIO()
    smoothed = any(p.weight_smoothed is not None for p in result.points)
    buf.write("beta,tau,weight,weight_smoothed\n" if smoothed
              else "beta,tau,weight\n")
    for p in result.points:
        row = f"{p.beta:.12g},{p.tau:.12g},{p.weight:.12g}"
        if smoothed:
            extra = "" if p.weight_smoothed is None else f"{p.weight_smoothed:.12g}"
            row += f",{extra}"
        buf.write(row + "\n")
    return buf.getvalue()
