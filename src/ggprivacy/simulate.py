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
import os
from concurrent import futures  # its ThreadPoolExecutor loads on first use
from dataclasses import dataclass, field

import numpy as np

from . import ggdist
from .errors import ConstructionError, IngestionError, ParameterError
from .ggdist import GGParams

_MAX_ATTEMPTS = 10_000
# Gauss-Legendre nodes per panel of `exact_two_class_utility`: at beta = 1.5
# the panels beside the density's kink reach about 2e-10 relative with 32
# nodes, against 5e-9 with `ggdist`'s default 16.
_ORACLE_NODES = 32


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
        for name, least in (("num_classes", 2), ("total_votes", 1),
                            ("histograms_per_r", 1), ("trials", 1)):
            object.__setattr__(self, name,
                               _integer(name, getattr(self, name), least))
        grid = tuple(float(r) for r in self.runner_up_grid)
        if not grid or any(not 0.0 < r < 1.0 for r in grid):
            raise ParameterError("runner_up_grid values must lie in (0, 1)")
        object.__setattr__(self, "runner_up_grid", grid)


def _integer(name: str, value, least: int) -> int:
    """``value`` as an int.  A bool, a value of any other type than an
    integer, or one below ``least`` raises a `ParameterError` that names
    ``name``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ParameterError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise ParameterError(f"{name} must be >= {least}, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class VoteHistogram:
    counts: np.ndarray
    true_label: int
    runner_up: float | None = None

    def __post_init__(self) -> None:
        c = np.asarray(self.counts, dtype=np.int64)
        _check_counts(c, 1, self.true_label)
        c.flags.writeable = False
        object.__setattr__(self, "counts", c)

    @classmethod
    def _rows_of(cls, rows: np.ndarray, true_label: int,
                 runner_up: float | None) -> list[VoteHistogram]:
        """One histogram per row of the int64 block ``rows``.  The checks of
        `__post_init__` run once on the whole block, which is then frozen;
        each histogram holds a read-only row view of it and skips
        `__post_init__`."""
        _check_counts(rows, 2, true_label)
        rows.flags.writeable = False
        new, put = object.__new__, object.__setattr__
        hists = []
        for row in rows:
            hist = new(cls)
            put(hist, "counts", row)
            put(hist, "true_label", true_label)
            put(hist, "runner_up", runner_up)
            hists.append(hist)
        return hists


def _check_counts(counts: np.ndarray, ndim: int, true_label: int) -> None:
    """`VoteHistogram`'s invariants on an ``ndim``-d array of counts (one
    histogram, or a block of them by row): at least two non-negative counts
    per histogram, and ``true_label`` one of the classes."""
    if counts.ndim != ndim or counts.shape[-1] < 2 or np.any(counts < 0):
        raise ParameterError("counts must be a 1-d array of >= 2 "
                             "non-negative integers")
    if not 0 <= true_label < counts.shape[-1]:
        raise ParameterError(f"true_label {true_label} out of range")


def _pinned_head(num_classes: int, total_votes: int, r: float) -> list[int]:
    """The counts no draw sets (see `build_histogram`): the whole two-class
    split, ``[x0, x1]`` for three classes, ``[x0, x1, x2]`` from four."""
    V, N = total_votes, num_classes
    if N == 2:
        x0 = round(V / (2.0 - r))
        return [x0, V - x0]
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
    if N == 3:
        return [x0, x1]
    if N == 4:
        # Four classes leave nothing random to retry, so absorb the rounding
        # residue into x2 when that keeps 0 <= x2 <= x1.
        last = V - x0 - x1 - x2
        shift = min(last, 0) + max(last - x1, 0)
        if shift and 0 <= x2 + shift <= x1:
            x2 += shift
    return [x0, x1, x2]


def _histograms_at(num_classes: int, total_votes: int, runner_up: float,
                   count: int, rng: np.random.Generator) -> list[VoteHistogram]:
    """``count`` histograms at one gap ratio (see `build_histogram`).

    Up to four classes nothing is drawn: one histogram serves every slot.
    With more, the middle counts of all ``count`` histograms are drawn as one
    ``(count, N - 4)`` block, and only the rejected rows are drawn again,
    each row at most ``_MAX_ATTEMPTS`` times.  A ratio that no draw can
    place raises `ConstructionError` before drawing.
    """
    if not 0.0 < runner_up < 1.0:
        raise ParameterError(f"runner_up must lie in (0, 1), got {runner_up!r}")
    V, N, r = int(total_votes), int(num_classes), float(runner_up)
    head = _pinned_head(N, V, r)
    if N == 2:
        return [VoteHistogram(np.asarray(head), 0, r)] * count
    x1, x2, rest = head[1], head[-1], V - sum(head)
    middle = max(N - 4, 0)
    # The middle counts can sum to any integer in [0, middle * x2], so some
    # draw leaves the last class in [0, x1] exactly when this holds.
    if rest >= 0 and rest - middle * x2 <= x1:
        if not middle:
            return [VoteHistogram(np.asarray(head + [rest]), 0, r)] * count
        rows = np.empty((count, N), dtype=np.int64)
        rows[:, :3] = head
        pending = np.arange(count)
        for _ in range(_MAX_ATTEMPTS):
            middles = rng.integers(0, x2 + 1, size=(pending.size, middle))
            last = rest - middles.sum(axis=1)
            ok = (last >= 0) & (last <= x1)
            placed = pending[ok]
            rows[placed, 3:-1] = middles[ok]
            rows[placed, -1] = last[ok]
            pending = pending[~ok]
            if not pending.size:
                return VoteHistogram._rows_of(rows, 0, r)
    raise ConstructionError(
        f"could not place {V} votes over {N} classes at runner_up={r:g} "
        f"within {_MAX_ATTEMPTS} attempts")


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
    return _histograms_at(num_classes, total_votes, runner_up, 1, rng)[0]


def make_histograms(cfg: SimConfig, rng: np.random.Generator) -> list[VoteHistogram]:
    """The full sweep: ``histograms_per_r`` instances at every grid ratio.

    Up to four classes each ratio's histogram is built once and repeated,
    and ``rng`` is not touched.  With five or more, each ratio draws the
    middle counts of all its histograms as one block and redraws only the
    rejected rows, so the stream differs from `build_histogram` called once
    per histogram.
    """
    out = []
    for r in cfg.runner_up_grid:
        out.extend(_histograms_at(cfg.num_classes, cfg.total_votes, r,
                                  cfg.histograms_per_r, rng))
    return out


@dataclass(frozen=True)
class UtilityPoint:
    runner_up: float | None
    value: float
    stderr: float


def _stacked(hists: list[VoteHistogram], where: str
             ) -> tuple[np.ndarray, np.ndarray]:
    """The counts of ``hists`` as one float64 ``(H, N)`` block and their
    true labels.  Histograms with different class counts raise a
    `ParameterError` that says so, naming ``where`` they met."""
    if len({h.counts.size for h in hists}) != 1:
        raise ParameterError(
            f"all histograms {where} must share one class count")
    return (np.stack([h.counts for h in hists]).astype(np.float64),
            np.asarray([h.true_label for h in hists]))


def _argmax_hits(counts: np.ndarray, true: np.ndarray,
                 noise: np.ndarray) -> np.ndarray:
    """``(trials, H)`` booleans: whether the noisy argmax of each of the
    ``H`` histograms picks its true label, with ``noise`` the ``(trials, H,
    N)`` noise block.  The noisy counts overwrite ``noise`` in place, and a
    tie goes to the first maximum, as in `np.argmax`."""
    noise += counts
    return np.argmax(noise, axis=2) == true


def _cores() -> int:
    """The cores this process may run on: the size of the studies' pools."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _noisy_argmax_hits(jobs: list[tuple[GGParams, np.ndarray, np.ndarray]],
                       trials: int, rng: np.random.Generator
                       ) -> list[np.ndarray]:
    """`_argmax_hits` of every ``(noise, counts, true)`` job under its own
    ``(trials, H, N)`` block of ``noise``, in job order.

    Job ``i`` draws its block from the ``i``-th child of
    ``rng.spawn(len(jobs))``, so the hits depend on ``rng`` alone, not on
    the thread count or schedule.  The jobs run on a pool of ``min(_cores(),
    len(jobs))`` threads, created and joined here.  Worker ``w`` takes jobs
    ``w``, ``w + workers``, ... and draws each into one float64 block that
    this thread allocated for it, of the largest job's ``trials * H * N``
    elements.  An exception in a worker is raised here once every worker
    has stopped.
    """
    streams = rng.spawn(len(jobs))
    workers = min(_cores(), len(jobs))
    size = max(trials * counts.size for _, counts, _ in jobs)
    blocks = [np.empty(size) for _ in range(workers)]
    hits: list[np.ndarray] = [None] * len(jobs)

    def run(worker: int) -> None:
        for i in range(worker, len(jobs), workers):
            noise, counts, true = jobs[i]
            n = trials * counts.size
            block = ggdist.sample(noise, streams[i], n, out=blocks[worker][:n])
            hits[i] = _argmax_hits(counts, true,
                                   block.reshape(trials, *counts.shape))

    with futures.ThreadPoolExecutor(workers) as pool:
        done = [pool.submit(run, w) for w in range(workers)]
    for future in done:
        future.result()
    return hits


def hardmax_utility(hists: list[VoteHistogram], noise: GGParams, trials: int,
                    rng: np.random.Generator) -> list[UtilityPoint]:
    """Monte-Carlo P(noisy argmax == true label), grouped by gap ratio.

    Every histogram in a group gets ``trials`` independent noisings; the
    reported standard error is sqrt(v(1-v) / (trials * group size)).  The
    histograms of one group must share one class count.

    Group ``i``, in order of first appearance in ``hists``, draws its noise
    from the ``i``-th child of ``rng.spawn(len(groups))``, spawned once
    every check has passed, so a call that raises on its inputs leaves
    ``rng`` as it was.  The groups are drawn and scored concurrently, on one
    thread per available core and at most one per group, and the result
    does not depend on that count.  Each thread holds one float64 noise
    block of ``trials * H * N`` elements, for the largest group's ``H``
    histograms of ``N`` classes.
    """
    trials = _integer("trials", trials, 1)
    if not hists:
        raise ParameterError("hists must be non-empty")
    groups: dict[float | None, list[VoteHistogram]] = {}
    for hist in hists:
        groups.setdefault(hist.runner_up, []).append(hist)
    jobs = [(noise, *_stacked(group, f"with runner_up={key!r}"))
            for key, group in groups.items()]

    points = []
    for key, hits in zip(groups, _noisy_argmax_hits(jobs, trials, rng)):
        value = float(hits.mean())
        stderr = math.sqrt(max(value * (1.0 - value), 0.0) / hits.size)
        points.append(UtilityPoint(runner_up=key, value=value, stderr=stderr))
    return points


def exact_two_class_utility(gap: float, noise: GGParams) -> float:
    """Exact P(argmax correct) for two classes with vote gap ``gap``: the
    integral of pdf(y) * cdf(gap + y) dy, by Gauss-Legendre panels in units
    of sigma that break at the kinks ``0`` and ``-gap`` (`ggdist._quadrature`)."""
    if gap < 0:
        raise ParameterError(f"gap must be >= 0, got {gap!r}")
    u, w = ggdist._quadrature(noise.beta, 0.0, (-gap / noise.sigma,),
                              nodes=_ORACLE_NODES)
    return float(w @ ggdist.cdf(noise, gap + noise.sigma * u))


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

    Setting ``i`` of ``noises`` draws from the ``i``-th child of
    ``rng.spawn(len(noises))``, spawned once every check has passed, so a
    call that raises on its inputs leaves ``rng`` as it was.  The settings
    are drawn and scored concurrently as in `hardmax_utility`: one thread
    per available core and at most one per setting, each holding one
    float64 block of ``trials * H * N`` elements for the ``H`` histograms of
    ``N`` classes.  The result does not depend on the thread count.
    """
    trials = _integer("trials", trials, 2)
    if not hists:
        raise ParameterError("hists must be non-empty")
    noises = list(noises)
    if not noises:
        raise ParameterError("noises must be non-empty")
    counts, true = _stacked(hists, "labelled together")
    rows = []
    hits_per_noise = _noisy_argmax_hits(
        [(noise, counts, true) for noise in noises], trials, rng)
    for noise, hits in zip(noises, hits_per_noise):
        per_trial = hits.mean(axis=1)
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
