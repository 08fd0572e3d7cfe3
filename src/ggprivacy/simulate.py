"""Vote-histogram simulation studies for the private argmax.

Histograms are built so the margin between the top two classes is
controlled: the runner-up holds a fraction ``1 - r`` of the winner's votes,
with ``r`` the runner-up gap ratio swept over a grid.  Utility is the
Monte-Carlo frequency with which the noisy argmax returns the true (largest)
class; for two classes an exact quadrature value is available as an oracle.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field

import numpy as np

from . import ggdist
from .errors import ConstructionError, IngestionError, ParameterError
from .ggdist import GGParams

_MAX_ATTEMPTS = 10_000


def _default_grid() -> tuple[float, ...]:
    return tuple(np.linspace(0.001, 0.2, 20))


@dataclass(frozen=True)
class SimConfig:
    """Sweep shape for the hardmax utility study."""

    num_classes: int = 2
    total_votes: int = 1000
    runner_up_grid: tuple[float, ...] = field(default_factory=_default_grid)
    histograms_per_r: int = 500
    trials: int = 50

    def __post_init__(self) -> None:
        if self.num_classes < 2:
            raise ParameterError("num_classes must be >= 2")
        if self.total_votes < 1:
            raise ParameterError("total_votes must be >= 1")
        grid = tuple(float(r) for r in self.runner_up_grid)
        if not grid or any(not 0.0 < r < 1.0 for r in grid):
            raise ParameterError("runner_up_grid values must lie in (0, 1)")
        object.__setattr__(self, "runner_up_grid", grid)
        if self.histograms_per_r < 1 or self.trials < 1:
            raise ParameterError("histograms_per_r and trials must be >= 1")


@dataclass(frozen=True)
class VoteHistogram:
    counts: np.ndarray
    true_label: int
    runner_up: float | None = None

    def __post_init__(self) -> None:
        c = np.asarray(self.counts, dtype=np.int64)
        if c.ndim != 1 or c.size < 2 or np.any(c < 0):
            raise ParameterError("counts must be a 1-d array of >= 2 "
                                 "non-negative integers")
        c.flags.writeable = False
        object.__setattr__(self, "counts", c)
        if not 0 <= self.true_label < c.size:
            raise ParameterError(f"true_label {self.true_label} out of range")


def build_histogram(num_classes: int, total_votes: int, runner_up: float,
                    rng: np.random.Generator) -> VoteHistogram:
    """One histogram with a controlled winner/runner-up margin.

    Two classes are split deterministically: ``x0 = round(V / (2 - r))``,
    ``x1 = V - x0`` (so ``x1 ~= (1 - r) x0``).  With more classes the top
    three counts are pinned (``x1 = floor((1-r) x0)``, ``x2 = floor(0.95
    x1)``), middle classes draw uniformly from ``[0, x2]``, and the last
    class absorbs the remainder; draws whose remainder falls outside
    ``[0, x1]`` are rejected and retried.  The winner is always class 0;
    a tie (possible as r -> 0) still counts class 0 as the true label.
    """
    if not 0.0 < runner_up < 1.0:
        raise ParameterError(f"runner_up must lie in (0, 1), got {runner_up!r}")
    V, N, r = int(total_votes), int(num_classes), float(runner_up)
    if N == 2:
        x0 = round(V / (2.0 - r))
        counts = [x0, V - x0]
        if counts[1] < 0:
            raise ConstructionError(f"total_votes {V} too small for two classes")
        return VoteHistogram(np.asarray(counts), 0, r)

    # Size the winner so the expected allocation uses up V: the pinned head
    # contributes x0 (1 + (1-r)) for three classes and x0 (1 + 1.95 (1-r))
    # once x2 joins, and each of the N-4 middle classes draws about
    # 0.475 (1-r) x0 on average, leaving the last class near zero.
    if N == 3:
        denom = 1.0 + (1.0 - r)
    else:
        denom = 1.0 + (1.0 - r) * (1.95 + 0.475 * (N - 4))
    x0 = round(V / denom)
    x1 = math.floor(x0 * (1.0 - r))
    x2 = math.floor(0.95 * x1)
    head = [x0, x1] if N == 3 else [x0, x1, x2]
    n_middle = max(0, N - 4)
    if N == 4:
        # Four classes leave nothing random to retry, so absorb the rounding
        # residue into x2 when that keeps 0 <= x2 <= x1.
        last = V - sum(head)
        shift = min(last, 0) + max(last - x1, 0)
        if shift and 0 <= x2 + shift <= x1:
            head[2] = x2 + shift
    for _ in range(_MAX_ATTEMPTS):
        middles = rng.integers(0, x2 + 1, size=n_middle) if n_middle else \
            np.empty(0, dtype=np.int64)
        last = V - sum(head) - int(middles.sum())
        if 0 <= last <= x1:
            counts = np.concatenate([np.asarray(head, dtype=np.int64),
                                     middles.astype(np.int64),
                                     np.asarray([last], dtype=np.int64)])
            return VoteHistogram(counts, 0, r)
        if n_middle == 0:
            break  # nothing random to retry
    raise ConstructionError(
        f"could not place {V} votes over {N} classes at runner_up={r:g} "
        f"within {_MAX_ATTEMPTS} attempts")


def make_histograms(cfg: SimConfig, rng: np.random.Generator) -> list[VoteHistogram]:
    """The full sweep: ``histograms_per_r`` instances at every grid ratio."""
    out = []
    for r in cfg.runner_up_grid:
        for _ in range(cfg.histograms_per_r):
            out.append(build_histogram(cfg.num_classes, cfg.total_votes, r, rng))
    return out


@dataclass(frozen=True)
class UtilityPoint:
    runner_up: float | None
    value: float
    stderr: float


def hardmax_utility(hists: list[VoteHistogram], noise: GGParams, trials: int,
                    rng: np.random.Generator) -> list[UtilityPoint]:
    """Monte-Carlo P(noisy argmax == true label), grouped by gap ratio.

    Every histogram in a group gets ``trials`` independent noisings; the
    reported standard error is sqrt(v(1-v) / (trials * group size)).
    """
    if trials < 1:
        raise ParameterError("trials must be >= 1")
    if not hists:
        raise ParameterError("hists must be non-empty")
    groups: dict[float | None, list[VoteHistogram]] = {}
    for hist in hists:
        groups.setdefault(hist.runner_up, []).append(hist)

    points = []
    for key, group in groups.items():
        counts = np.stack([h.counts for h in group]).astype(np.float64)
        true = np.asarray([h.true_label for h in group])
        H, N = counts.shape
        noise_block = ggdist.sample(noise, rng, trials * H * N).reshape(trials, H, N)
        wins = np.argmax(counts[None, :, :] + noise_block, axis=2) == true[None, :]
        value = float(wins.mean())
        stderr = math.sqrt(max(value * (1.0 - value), 0.0) / (trials * H))
        points.append(UtilityPoint(runner_up=key, value=value, stderr=stderr))
    return points


def exact_two_class_utility(gap: float, noise: GGParams) -> float:
    """Exact P(argmax correct) for two classes with vote gap ``gap``:
    integral of pdf(y) * cdf(gap + y) dy, by adaptive quadrature."""
    if gap < 0:
        raise ParameterError(f"gap must be >= 0, got {gap!r}")
    from scipy import integrate  # deferred: slow to import
    span = 40.0 * noise.sigma

    def integrand(y):
        return ggdist.pdf(noise, y) * ggdist.cdf(noise, gap + y)

    breaks = sorted({0.0, -float(gap)})
    value, _ = integrate.quad(integrand, -span, span,
                              points=[b for b in breaks if -span < b < span],
                              limit=200)
    return float(value)


def auc_over_runner_up(points: list[UtilityPoint], r_max: float = 0.1) -> float:
    """Trapezoid integral of utility over gap ratios up to ``r_max``."""
    usable = sorted((p for p in points
                     if p.runner_up is not None and p.runner_up <= r_max + 1e-12),
                    key=lambda p: p.runner_up)
    if len(usable) < 2:
        raise ParameterError("need at least two utility points below r_max")
    rs = np.asarray([p.runner_up for p in usable])
    vs = np.asarray([p.value for p in usable])
    return float(np.trapezoid(vs, rs))


def normalized_auc(curves: dict, r_max: float = 0.1) -> dict:
    """AUCs of several utility curves, divided by the largest one."""
    raw = {key: auc_over_runner_up(points, r_max) for key, points in curves.items()}
    top = max(raw.values())
    if top <= 0:
        return {key: 0.0 for key in raw}
    return {key: value / top for key, value in raw.items()}


@dataclass(frozen=True)
class PateAccuracy:
    beta: float
    sigma: float
    mean: float
    std: float
    stderr: float


def pate_label_accuracy(hists: list[VoteHistogram], noises: list[GGParams],
                        trials: int, rng: np.random.Generator) -> list[PateAccuracy]:
    """Label accuracy of the noisy argmax over teacher-vote histograms.

    One trial labels every histogram once; ``trials`` repetitions give the
    mean and (sample) standard deviation per noise setting.
    """
    if trials < 2:
        raise ParameterError("trials must be >= 2 to report a std")
    if not hists:
        raise ParameterError("hists must be non-empty")
    sizes = {h.counts.size for h in hists}
    if len(sizes) != 1:
        raise ParameterError("all histograms must share one class count")
    counts = np.stack([h.counts for h in hists]).astype(np.float64)
    true = np.asarray([h.true_label for h in hists])
    H, N = counts.shape
    rows = []
    for noise in noises:
        block = ggdist.sample(noise, rng, trials * H * N).reshape(trials, H, N)
        wins = np.argmax(counts[None, :, :] + block, axis=2) == true[None, :]
        per_trial = wins.mean(axis=1)
        mean = float(per_trial.mean())
        std = float(per_trial.std(ddof=1))
        rows.append(PateAccuracy(beta=noise.beta, sigma=noise.sigma, mean=mean,
                                 std=std, stderr=std / math.sqrt(trials)))
    return rows


# ---------------------------------------------------------------------------
# File formats (owned here)
# ---------------------------------------------------------------------------


def histograms_to_csv(hists: list[VoteHistogram]) -> str:
    """Header ``class_0,...,class_{N-1},true_label``; one histogram per row."""
    if not hists:
        raise ParameterError("hists must be non-empty")
    n = hists[0].counts.size
    buf = io.StringIO()
    buf.write(",".join([f"class_{i}" for i in range(n)] + ["true_label"]) + "\n")
    for h in hists:
        if h.counts.size != n:
            raise ParameterError("all histograms must share one class count")
        buf.write(",".join(str(int(c)) for c in h.counts)
                  + f",{int(h.true_label)}\n")
    return buf.getvalue()


def histograms_from_csv(path) -> list[VoteHistogram]:
    """Parse the histogram CSV; `IngestionError` names the offending row."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        rows = [(i, row) for i, row in enumerate(reader, start=1)
                if any(cell.strip() for cell in row)]
    if not rows:
        raise IngestionError("row 1: file is empty")
    header_num, header = rows[0]
    n = len(header) - 1
    expected = [f"class_{i}" for i in range(n)] + ["true_label"]
    if n < 2 or [c.strip() for c in header] != expected:
        raise IngestionError(
            f"row {header_num}: header must read class_0,...,class_k,true_label")
    hists = []
    for row_num, row in rows[1:]:
        if len(row) != n + 1:
            raise IngestionError(f"row {row_num}: expected {n + 1} columns, "
                                 f"got {len(row)}")
        try:
            values = [int(cell) for cell in row]
        except ValueError as exc:
            raise IngestionError(f"row {row_num}: non-integer entry ({exc})") \
                from exc
        counts, label = values[:-1], values[-1]
        if any(c < 0 for c in counts):
            raise IngestionError(f"row {row_num}: negative vote count")
        if not 0 <= label < n:
            raise IngestionError(f"row {row_num}: true_label {label} out of "
                                 f"range [0, {n - 1}]")
        hists.append(VoteHistogram(np.asarray(counts, dtype=np.int64), label))
    return hists


@dataclass(frozen=True)
class ResultRow:
    """One line of the generic study output table."""

    beta: float
    sigma: float
    epsilon: float | None
    delta: float | None
    metric: str
    value: float
    stderr: float | None


def results_to_csv(rows: list[ResultRow]) -> str:
    """Header ``beta,sigma,epsilon,delta,metric,value,stderr``; blanks for
    fields a study does not define."""
    buf = io.StringIO()
    buf.write("beta,sigma,epsilon,delta,metric,value,stderr\n")

    def fmt(x) -> str:
        return "" if x is None else f"{x:.12g}"

    for r in rows:
        buf.write(",".join([f"{r.beta:.12g}", f"{r.sigma:.12g}", fmt(r.epsilon),
                            fmt(r.delta), r.metric, f"{r.value:.12g}",
                            fmt(r.stderr)]) + "\n")
    return buf.getvalue()
