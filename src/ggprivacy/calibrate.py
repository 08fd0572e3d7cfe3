"""Calibration: noise scales for privacy targets, families, tail weights.

`solve_sigma` inverts the accountant in sigma by root-finding on two grids:
a coarse grid of 2^12 cells finds the root cheaply, and the caller's grid
confirms it, taking further steps only if the coarse root misses there.
The caller's grid alone decides the result.  The accountant discretizes the
exact loss CDF, so each probe is a deterministic function of the loss key
and the grid, and epsilon(sigma) is monotone non-increasing up to
discretization error; a given solve is exactly reproducible.  Observed
non-monotonicity on the caller's grid beyond half the solve tolerance
aborts with `AccountingInconsistencyError` rather than returning a sigma
the evidence does not support.  `equivalent_family` solves one sigma per
shape at a shared target, and `tail_weight` reads the tail masses of such a
solved family.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass

import numpy as np

from .accountant import DEFAULT_BINS, DEFAULT_SAMPLES, _grid_cells, account
from .errors import (AccountingInconsistencyError, ParameterError, SolverError,
                     _integer, _real)
from .ggdist import GGParams, _upper_tail
from .prv import MechanismSpec

DEFAULT_TOLERANCE = 0.05
_MAX_BRACKET_STEPS = 200
_MAX_SEARCH_STEPS = 200
# Cells requested for the coarse stage: a probe there costs a small share of
# one at 2^16, so two grids solve the benchmark's calibration targets at 2^16
# bins about 2.5 times faster than the caller's grid alone.
_COARSE_BINS = 2 ** 12
# The coarse stage hands off once its bracket is this narrow relative to
# sigma: closer in, epsilon on the coarse grid can jump over its band
# between adjacent floats, and the caller's grid decides anyway.
_COARSE_RESOLUTION = 1e-3


@dataclass(frozen=True)
class PrivacyTarget:
    """An (epsilon, delta) goal for a mechanism usage pattern."""

    epsilon: float
    delta: float
    compositions: int = 1
    sample_rate: float | None = None

    def __post_init__(self) -> None:
        epsilon = _real("epsilon", self.epsilon)
        delta = _real("delta", self.delta)
        if not (math.isfinite(epsilon) and epsilon > 0):
            raise ParameterError(f"epsilon must be positive, got {self.epsilon!r}")
        if not (0.0 < delta < 1.0):
            raise ParameterError(f"delta must lie in (0, 1), got {self.delta!r}")
        object.__setattr__(self, "epsilon", epsilon)
        object.__setattr__(self, "delta", delta)
        object.__setattr__(self, "compositions",
                           _integer("compositions", self.compositions, 1))
        if self.sample_rate is not None:
            q = _real("sample_rate", self.sample_rate)
            if not 0.0 < q <= 1.0:
                raise ParameterError(
                    f"sample_rate must lie in (0, 1], got {self.sample_rate!r}")
            object.__setattr__(self, "sample_rate", q)


@dataclass
class SolveResult:
    """A solved noise scale.  ``epsilon`` is the caller's grid's epsilon at
    ``sigma``; ``bracket`` is ``(lower, sigma)``, ``lower`` the largest sigma
    below it whose epsilon on the caller's grid exceeded the target (``sigma``
    itself when no caller-grid probe did).  ``evaluations`` lists every probe
    in the order run, as ``(sigma, epsilon, cells)`` with the cell count of
    its grid, and ``probes`` counts them."""

    sigma: float
    bracket: tuple[float, float]
    epsilon: float
    probes: int
    evaluations: list[tuple[float, float, int]]


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


class _Grid:
    """epsilon(s) on one accountant grid, for s = sigma / sensitivity.

    Each s is accounted once.  Each new probe is appended, with the grid's
    cell count, to the shared ``evaluations`` and checked for monotonicity
    against this grid's earlier probes."""

    def __init__(self, epsilon_of, cells: int, sensitivity: float,
                 slack: float, evaluations: list):
        self.epsilon_of, self.cells = epsilon_of, cells
        self.sensitivity, self.slack = sensitivity, slack
        self.evaluations = evaluations
        self.seen: dict[float, float] = {}

    def __call__(self, s: float) -> float:
        if s not in self.seen:
            sigma = self.sensitivity * s
            self.seen[s] = eps = self.epsilon_of(sigma)
            self.evaluations.append((sigma, eps, self.cells))
            _check_monotone({self.sensitivity * k: v
                             for k, v in self.seen.items()}, self.slack)
        return self.seen[s]


def _search(probe: _Grid, s: float, high: float, width: float,
            resolution: float = 0.0) -> float:
    """An s whose epsilon on ``probe``'s grid is at most ``high`` and within
    ``width`` of it, or `SolverError`.

    Walks from ``s`` until the grid brackets the band's middle, first by the
    factor that epsilon proportional to 1 / s predicts from the probe at
    ``s``, then by its square after each miss, at most 2 per step.  It then
    closes in by Illinois regula falsi on log epsilon against log s, aiming
    at the band's middle; a step outside the bracket, or two steps that
    together do not halve it, bisect instead.  It stops with `SolverError`
    once the bracket is narrower than ``resolution`` times its lower end, or
    when it reaches float resolution."""
    aim = high - 0.5 * width

    def inside(eps: float) -> bool:
        return eps <= high and high - eps <= width

    def gap(eps: float) -> float:
        return math.log(eps / aim) if eps > 0.0 else -math.inf

    eps = probe(s)
    if inside(eps):
        return s
    up = eps > aim
    factor = math.exp(min(math.log(2.0), abs(gap(eps))))
    start, lo, hi = s, None, None
    for _ in range(_MAX_BRACKET_STEPS):
        if eps > aim:
            lo = s
        else:
            hi = s
        if lo is not None and hi is not None:
            break
        step = s * factor if up else s / factor
        s = step if step != s else math.nextafter(s, math.inf if up else 0.0)
        eps = probe(s)
        if inside(eps):
            return s
        factor = min(2.0, factor * factor)
    else:
        scale = probe.sensitivity
        if up:
            raise SolverError(
                f"no sigma in [{scale * start:g}, {scale * s:g}] brings "
                f"epsilon down to {high:g}; target may be out of range")
        raise SolverError(
            f"no sigma in [{scale * s:g}, {scale * start:g}] pushes epsilon "
            f"above {high:g}; target may be out of range")

    f_lo, f_hi = gap(probe(lo)), gap(probe(hi))
    kept = 0  # the end the last step kept: -1 lo, +1 hi
    widths = [hi - lo]
    stopped_by = f"the {_MAX_SEARCH_STEPS}-step search limit"
    for _ in range(_MAX_SEARCH_STEPS):
        if hi - lo < resolution * lo:
            stopped_by = f"the bracket narrowing below {resolution:g} relative"
            break
        s = lo * math.exp(math.log(hi / lo) * f_lo / (f_lo - f_hi))
        if not lo < s < hi or (len(widths) > 2
                               and widths[-1] > 0.5 * widths[-3]):
            s = 0.5 * (lo + hi)
            if s in (lo, hi):
                stopped_by = (
                    f"the bracket reaching float resolution, with epsilon = "
                    f"{probe(lo):.6g} at the adjacent sigma = "
                    f"{probe.sensitivity * lo!r}: on this grid epsilon jumps "
                    "by more than the tolerance between adjacent sigma, and "
                    "more bins make the jumps smaller")
                break
        eps = probe(s)
        if inside(eps):
            return s
        if eps > aim:
            lo, f_lo = s, gap(eps)
            if kept == 1:
                f_hi *= 0.5
            kept = 1
        else:
            hi, f_hi = s, gap(eps)
            if kept == -1:
                f_lo *= 0.5
            kept = -1
        widths.append(hi - lo)
    raise SolverError(
        f"the search did not land within {width:g} of epsilon = "
        f"{high:g} after {len(probe.evaluations)} probes; closest was "
        f"{probe(hi):.6g} at sigma = {probe.sensitivity * hi!r}, stopped by "
        f"{stopped_by}")


def solve_sigma(beta: float, target: PrivacyTarget, *, rng=None,
                tolerance: float = DEFAULT_TOLERANCE,
                sensitivity: float = 1.0,
                samples_n: int = DEFAULT_SAMPLES,
                bins: int = DEFAULT_BINS) -> SolveResult:
    """Smallest noise scale meeting ``target``: a sigma whose epsilon is at
    most ``target.epsilon`` and within ``tolerance / 2`` of it.

    The search runs on ``s = sigma / sensitivity`` in two stages, each
    aiming at ``target.epsilon - tolerance / 4`` (see `_search`).  The
    coarse stage works on a grid of 2^12 cells: it walks s from 1, at most
    doubling or halving it per step, until epsilon brackets the aim, then
    closes in by Illinois regula falsi on log epsilon against log s.  The
    caller's grid (``bins``) then probes the coarse root; if that misses the
    band, it walks and closes in the same way on its own probes, secant
    steps inside a bracket confirmed there, with bisection as the
    safeguard.  Only the caller's grid decides: the returned epsilon comes
    from an `account` call on it, so the returned sigma re-accounts to
    exactly that epsilon.  When the caller's grid has no more cells than
    the coarse one, it searches alone from s = 1; when the coarse stage
    cannot land (epsilon can jump over its band), it stops once its
    bracket is under 1e-3 relative in sigma, and the caller's grid starts
    from the coarse probe nearest the aim.

    Returns ``sigma = sensitivity * s``: the probes at sensitivity ``c`` are
    ``c`` times those at sensitivity 1, their ratios ``sensitivity / sigma``
    agree to an ulp (bitwise when ``c`` is a power of two), and so do their
    epsilons.

    ``rng`` and ``samples_n`` go to every `account` probe, which validates
    them; neither changes the result.  They stay while
    `perfbench/workloads.py` passes them, and go with the certificate
    (ROADMAP item 1).
    """
    sensitivity = _real("sensitivity", sensitivity)
    if not (math.isfinite(sensitivity) and sensitivity > 0):
        raise ParameterError(
            f"sensitivity must be positive and finite, got {sensitivity!r}")
    tolerance = _real("tolerance", tolerance)
    if not (math.isfinite(tolerance) and tolerance > 0):
        raise ParameterError(f"tolerance must be positive, got {tolerance!r}")

    evaluations: list[tuple[float, float, int]] = []

    def grid(grid_bins: int) -> _Grid:
        def epsilon_of(sigma: float) -> float:
            spec = MechanismSpec(GGParams(beta, sigma), sensitivity,
                                 target.sample_rate, target.compositions)
            return account(spec, delta=target.delta, rng=rng,
                           samples_n=samples_n, bins=grid_bins).epsilon
        return _Grid(epsilon_of, _grid_cells(grid_bins), sensitivity,
                     0.5 * tolerance, evaluations)

    caller = grid(bins)
    coarse = grid(_COARSE_BINS)
    goal, start = target.epsilon, 1.0
    if coarse.cells < caller.cells:
        try:
            _search(coarse, start, goal - 0.125 * tolerance, 0.25 * tolerance,
                    _COARSE_RESOLUTION)
        except (SolverError, AccountingInconsistencyError):
            pass  # the caller's grid decides
        aim = goal - 0.25 * tolerance
        start = min(coarse.seen, key=lambda k: abs(coarse.seen[k] - aim))
    s = _search(caller, start, goal, 0.5 * tolerance)

    lower = max((k for k, eps in caller.seen.items() if k < s and eps > goal),
                default=s)
    return SolveResult(sigma=sensitivity * s,
                       bracket=(sensitivity * lower, sensitivity * s),
                       epsilon=caller.seen[s], probes=len(evaluations),
                       evaluations=evaluations)


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


def equivalent_family(betas, target: PrivacyTarget, *,
                      tolerance: float = DEFAULT_TOLERANCE,
                      bins: int = DEFAULT_BINS) -> FamilyResult:
    """Solve sigma for every shape in ``betas`` at one shared target, in
    increasing beta."""
    beta_list = [float(b) for b in np.atleast_1d(np.asarray(betas, dtype=np.float64))]
    if not beta_list:
        raise ParameterError("betas must be non-empty")
    points = []
    for beta in sorted(beta_list):
        solved = solve_sigma(beta, target, tolerance=tolerance, bins=bins)
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
