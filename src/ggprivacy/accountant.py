"""Discretized privacy-loss accounting.

The pipeline: take the exact law of the single-shot loss, bin it onto a
uniform grid of ``2m + 1`` cells spanning a window [-L, L] with ``L = (m +
1/2) h``, conditioned on the window, at offset 0; self-compose the binned
distribution with FFT powers (circular, i.e. modulo the window), and read
``delta(epsilon)`` / ``epsilon(delta)`` off the composed grid.

* Each cell's mass is the noise density's integral between the cell's two
  noise crossings (`prv.loss_masses`), so it keeps its own relative
  precision, down to the smallest cells of the upper tail.  Only the cells
  that can carry mass are solved and integrated, from one root solve for
  every direction (on half the edges for a plain spec; REMOVE's solve,
  reversed, serves ADD); the rest of the grid is zero.
* `DiscretePRV` clips, into a copy, and normalizes the masses a caller
  gives it.  The accountant's own builders hand theirs over
  (`DiscretePRV._adopt`), to be normalized in place with no second pass
  over them and no copy: `_discretize_directions` its masses conditioned
  on the window, `compose` its inverse FFT after its drift check, both
  with the round-off below 0 already clipped, since at large ``k`` the
  FFT's passes the -1e-12 that `DiscretePRV` accepts.
* The cell count is rounded up to a fast FFT length, an odd number whose
  prime factors all lie in {3, 5, 7}, and powers are taken by repeated
  squaring, so composing ``k`` copies costs ``O(log k)`` spectrum products
  and one inverse FFT.
* The window is sized from the exact loss moments (`prv.loss_moments`,
  one quadrature per noise law for both directions), then widened until
  ``k`` times the exact single-shot mass outside it is at most 1e-12 in
  each direction, so a rare inclusion with a large loss is not
  renormalized away.  The masses below and above the window are read as
  tails at the noise crossings of its ends.  A window that already covers
  the loss's solved reach, past which every such tail is exactly 0, skips
  that check.
* Queries read two suffix tables over the positive support ``y_i``: the
  mass ``S1[i]`` at or above ``y_i`` and the sum ``T[i]`` of those masses
  scaled by ``exp(-(y_j - y_i))``, so ``delta(eps) = S1[i] - exp(eps -
  y_i) T[i]`` on ``[y_{i-1}, y_i)``.  The exponent is never positive, and
  ``T`` is built by blocks with no log or exp per cell.  `epsilon_at`
  inverts that segment in closed form.
* Importing this module pins glibc's mmap and trim thresholds
  (`_pin_malloc_thresholds`), so the grid arrays one call frees stay in the
  heap for the next.  In a fresh process, each `account` call after the
  first on ``beta = 3, sigma = 4, k = 100`` at the default grid faults in
  7 378 to 9 007 pages under glibc's dynamic thresholds and none with them
  pinned.

`account` and `CompositionLedger` share that path: both discretize through
`_discretize_directions`, compose through `compose` and read epsilon
through `_epsilon_within_window`, which refuses an answer that the window
caps; both refuse a ``delta`` below `_DELTA_FLOOR` (1e-11), where FFT
round-off sets epsilon.  The ledger's `max_steps` searches on its own grid.
`AccountResult.curve` is built on its first read.  Nothing on the
path samples.  The paper's sampled estimator, `discretize_from_samples` fed
by `prv.sample_prv`, stays as its reproduction and as a cross-check.

`account` also evaluates the paper's finite-sample error certificate
``(eta, tau)`` (`error_bounds`): the true delta at ``epsilon (+/-) tau``
lies within ``eta`` of the reported curve.  It charges sampling error for
``samples_n`` draws that the exact discretization does not make, so it only
errs on the conservative side, and it is dominated by its worst-case
discretization terms: at the defaults it is vacuous (``eta >= 1`` or ``tau
>= epsilon``).  The reported epsilon is a point estimate.  A grid
(`AccountantConfig`) is ``(L, cells)`` and carries no certificate size.

Determinism: `account`, `CompositionLedger` and the calibration built on
them are deterministic functions of their spec and grid; they depend on
the spec only through `MechanismSpec.loss_key` ``(beta, Delta/sigma, q)``.
The ledger takes neither a seed nor a sample count.  `account` still
validates ``rng`` (an ``int`` seed or ``None``), though no result depends
on it, and takes ``samples_n``, which sizes only ``eta`` and ``tau``.
`perfbench/workloads.py` passes both and reads ``eta`` and ``tau``; they go
with the certificate (ROADMAP item 1).
"""

from __future__ import annotations

import bisect
import ctypes
import dataclasses
import hashlib
import json
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
from scipy import fft as sp_fft
from scipy import special

from . import kernels
from .errors import (AccountingInconsistencyError, BudgetExhaustedError,
                     ConfigError, GridMismatchError, ParameterError,
                     RangeError, TruncationError, _integer, _real)
from .prv import (LossDirection, MechanismSpec, _loss_moments, _solved_edges,
                  directions_for, loss_masses)
# perfbench/spans.py patches sample_prv and discretize_from_samples here.
# Nothing in this module calls sample_prv; the import goes once the
# benchmark's tracer stops patching it (ROADMAP item 1).
from .prv import sample_prv  # noqa: F401

DEFAULT_SEED = 61803398
DEFAULT_BINS = 2 ** 19
DEFAULT_SAMPLES = 5_000_000
_MIN_SAMPLES = 10_000
_WINDOW_SPREAD = 12.0
_WINDOW_TAIL = 1e-12   # bound on k x the single-shot mass outside [-L, L]
_WINDOW_GROWTH = 1.25
_SAMPLE_CHUNK = 2_500_000
_MIN_ACCEPTANCE = 0.10
_MASS_DRIFT_TOL = 1e-9
# The smallest delta `account` and `CompositionLedger` answer.  FFT round-off
# moves epsilon by at most 1.0e-4 at delta = 1e-11 and by up to 3.2e-3 at
# 1e-12 (beta = 2 against the Gaussian closed form, 531 441 cells).
_DELTA_FLOOR = 1e-11
# `_suffix_sums` blocks: a span of 32 keeps p_j exp(-(j - i) h) within one
# block normal for p_j above 1e-294, and 1024-cell blocks cost ~2e3 exps.
_BLOCK_SPAN = 32.0
_BLOCK_CELLS = 1024
# glibc's mallopt parameters, and the ceiling of its dynamic mmap threshold
# on 64-bit hosts.
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_PINNED_MMAP_THRESHOLD = 32 * 2 ** 20


def _pin_malloc_thresholds() -> None:
    """Pin glibc's mmap threshold at 32 MiB and its trim threshold at twice
    that, for the whole process.

    By default glibc raises both after each free of an mmapped chunk, to
    the largest such chunk freed so far and twice that: one 4.25 MB grid
    array.  Under that rule the ~30 MB of FFT outputs, pocketfft scratch and
    query tables that each `account` call frees goes back to the kernel, and
    the next call faults it in again.  Any successful ``mallopt`` turns the
    rule off, so the trim threshold is set only once the mmap one is: alone,
    it would leave every large array mmapped.  Where libc has no ``mallopt``
    (macOS, Windows) or refuses the value, nothing changes.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    if mallopt(_M_MMAP_THRESHOLD, _PINNED_MMAP_THRESHOLD) == 1:
        mallopt(_M_TRIM_THRESHOLD, 2 * _PINNED_MMAP_THRESHOLD)


_pin_malloc_thresholds()


def derive_rng(seed: int | None, *context) -> np.random.Generator:
    """Build a generator from a seed plus a canonical description of its use.

    The context items are rendered with ``repr`` and hashed (SHA-256), so the
    stream depends on every argument but on nothing environmental.
    """
    base = DEFAULT_SEED if seed is None else int(seed)
    payload = repr((base,) + tuple(context)).encode()
    digest = hashlib.sha256(payload).digest()
    entropy = int.from_bytes(digest, "big")
    return np.random.default_rng(np.random.SeedSequence(entropy))


def _check_seed(rng) -> None:
    """`ParameterError` unless ``rng`` is an int seed or None."""
    if rng is not None and (isinstance(rng, bool)
                            or not isinstance(rng, (int, np.integer))):
        raise ParameterError(f"rng must be an int seed or None, got {rng!r}")


def _fast_fft_cells(n: int) -> int:
    """Smallest odd count >= ``n`` whose prime factors all lie in {3, 5, 7}.

    pocketfft transforms such lengths with its radix-3/5/7 passes; a length
    with a large prime factor (2^16 + 1 is prime, 2^19 + 1 = 3 * 174763)
    falls back to Bluestein's algorithm, several times slower.
    """
    best = 1
    while best < n:
        best *= 3
    p7 = 1
    while p7 < best:
        p57 = p7
        while p57 < best:
            p = p57
            while p < n:
                p *= 3
            best = min(best, p)
            p57 *= 5
        p7 *= 7
    return best


def _grid_cells(bins) -> int:
    """The cell count a request of ``bins`` builds (see `AccountantConfig`),
    or `ConfigError`."""
    if not isinstance(bins, (int, np.integer)) or bins < 2:
        raise ConfigError(f"bins must be an integer >= 2, got {bins!r}")
    requested = 2 * (int(bins) // 2) + 1
    cells = _fast_fft_cells(requested)
    if cells > 2 ** 26:
        raise ConfigError(
            f"bins={bins!r} asks for {requested} cells, which round up to "
            f"the fast FFT length {cells}, over the 2**26-cell cap")
    return cells


@dataclass(frozen=True)
class AccountantConfig:
    """The discretized accountant's grid, ``(L, cells)``.

    A request of ``bins`` asks for ``2 (bins // 2) + 1`` cells; the grid
    built has the smallest odd count at least that large whose prime
    factors all lie in {3, 5, 7} (a fast FFT length: 2^19 -> 3^12 =
    531441), and ``bins`` stores that count, so ``AccountantConfig(L,
    cfg.bins)`` builds the same grid.  With ``m = bins // 2`` the ``2m + 1``
    cells span [-trunc_L, trunc_L], so ``trunc_L = (m + 1/2) * mesh_h``.
    The sample count and free parameters of the paper's sampled estimator
    and certificate are arguments of `discretize_from_samples` and
    `error_bounds`, the two functions that use them.
    """

    trunc_L: float
    bins: int = DEFAULT_BINS

    def __post_init__(self) -> None:
        trunc_L = _real("trunc_L", self.trunc_L)
        if not (math.isfinite(trunc_L) and trunc_L > 0):
            raise ConfigError(f"trunc_L must be positive, got {trunc_L!r}")
        object.__setattr__(self, "trunc_L", trunc_L)
        object.__setattr__(self, "bins", _grid_cells(self.bins))

    @property
    def half_bins(self) -> int:
        return self.bins // 2

    @property
    def mesh_h(self) -> float:
        return 2.0 * self.trunc_L / self.bins

    def to_dict(self) -> dict:
        return {"trunc_L": self.trunc_L, "cells": self.bins,
                "mesh_h": self.mesh_h}


@dataclass(frozen=True, eq=False)
class DiscretePRV:
    """A privacy-loss distribution binned to a uniform grid.

    ``probs[j]`` is the mass of grid index ``i = j - m`` whose loss value is
    ``i * mesh_h + offset``.  The exact discretizations carry offset 0 and
    the sampled estimator one in [0, mesh_h / 2]; composition adds offsets,
    so composed ones may exceed that half-cell range.  Construction clips
    the masses it is given at 0, into a copy, and normalizes them, so
    ``probs`` may carry rounding error: entries down to -1e-12 and a total
    within `_MASS_DRIFT_TOL` of 1.  The accountant's own builders, `compose`
    and `_discretize_directions`, clip their masses themselves and hand them
    over through `_adopt`, which only normalizes them.
    """

    probs: np.ndarray
    mesh_h: float
    offset: float = 0.0
    compositions: int = 1
    tail_upper: float | None = None
    acceptance: float | None = None
    _tables: tuple | None = field(default=None, repr=False, compare=False)
    _rfft: np.ndarray | None = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        p = np.asarray(self.probs, dtype=np.float64)
        if p.ndim != 1 or p.size < 3 or p.size % 2 == 0:
            raise ParameterError("probs must be a 1-d array of odd length >= 3")
        if np.any(p < -1e-12) or not np.all(np.isfinite(p)):
            raise ParameterError("probs must be finite and non-negative")
        total = float(p.sum())
        if abs(total - 1.0) > _MASS_DRIFT_TOL:
            raise ParameterError(f"probs must sum to 1 within {_MASS_DRIFT_TOL:g}; "
                                 f"got {total!r}")
        p = np.maximum(p, 0.0)
        p /= p.sum()
        p.flags.writeable = False
        object.__setattr__(self, "probs", p)
        mesh_h, offset = _real("mesh_h", self.mesh_h), _real("offset", self.offset)
        if not (math.isfinite(mesh_h) and mesh_h > 0):
            raise ParameterError(f"mesh_h must be positive, got {mesh_h!r}")
        if not (math.isfinite(offset) and offset >= 0):
            raise ParameterError(f"offset must be >= 0, got {offset!r}")
        object.__setattr__(self, "mesh_h", mesh_h)
        object.__setattr__(self, "offset", offset)
        object.__setattr__(self, "compositions",
                           _integer("compositions", self.compositions, 1))

    @classmethod
    def _adopt(cls, probs: np.ndarray, **fields) -> "DiscretePRV":
        """A `DiscretePRV` over ``probs``, an array that no one else holds,
        already at least 0, of odd length and within `_MASS_DRIFT_TOL` of a
        total of 1: normalized in place, as construction would normalize
        its copy, bitwise, with no second pass.  A mass that is not finite
        leaves the total not finite, which raises
        `AccountingInconsistencyError`."""
        total = probs.sum()
        if not math.isfinite(total):
            raise AccountingInconsistencyError(
                f"masses must be finite; they sum to {total!r}")
        probs /= total
        probs.flags.writeable = False
        fields["probs"] = probs
        self = cls.__new__(cls)
        for f in dataclasses.fields(cls):
            object.__setattr__(self, f.name, fields.get(f.name, f.default))
        return self

    @property
    def half_bins(self) -> int:
        return (self.probs.size - 1) // 2

    @property
    def trunc_L(self) -> float:
        return (self.half_bins + 0.5) * self.mesh_h

    def support(self) -> np.ndarray:
        m = self.half_bins
        return np.arange(-m, m + 1, dtype=np.float64) * self.mesh_h + self.offset

    def _spectrum(self) -> np.ndarray:
        """rFFT of the probabilities with index 0 at loss 0, cached."""
        if self._rfft is None:
            object.__setattr__(self, "_rfft",
                               sp_fft.rfft(np.fft.ifftshift(self.probs),
                                           overwrite_x=True))
        return self._rfft

    # -- delta / epsilon queries -------------------------------------------

    def _positive_tables(self) -> tuple[np.ndarray, ...]:
        """Suffix sums over the strictly positive part of the support.

        With the positive support points ``y_i`` padded by ``+inf``: S1[i] =
        sum_{j >= i} p_j and the scaled suffix sum T[i] = sum_{j >= i} p_j
        exp(-(y_j - y_i)), both padded with a trailing zero, so on [y_{i-1},
        y_i) delta(eps) = S1[i] - exp(eps - y_i) T[i].  The exponent is at
        most 0 however wide the grid, so nothing overflows where exp(eps)
        would (eps past 709) and nothing underflows where exp(-y) would (y
        past 745).  D[i] = delta(y_i) = S1[i+1] - exp(-h) T[i+1] locates
        `epsilon_at`'s segment.  `_suffix_sums` builds S1 and T with no log or
        exp per cell.
        """
        if self._tables is None:
            # `support()` from just below its first positive point, padded
            # with +inf, bitwise.
            m, h = self.half_bins, self.mesh_h
            start = max(-m, -math.ceil(self.offset / h) - 1)
            ys = np.arange(start, m + 2, dtype=np.float64) * h + self.offset
            ys[-1] = np.inf
            skip = int(np.searchsorted(ys, 0.0, side="right"))
            ys = ys[skip:]
            s1, t = _suffix_sums(self.probs[start + m + skip:], h)
            d = t[1:] * -math.exp(-h)      # s1[1:] - exp(-h) t[1:], bitwise
            d += s1[1:]
            object.__setattr__(self, "_tables", (ys, s1, t, d))
        return self._tables

    def delta_at(self, epsilon) -> np.ndarray | float:
        """Hockey-stick divergence delta(epsilon) on the grid, for eps >= 0:
        a real number, or an array of integers or floats."""
        if isinstance(epsilon, np.ndarray) or np.ndim(epsilon):
            dtype = np.asarray(epsilon).dtype
            if dtype.kind not in "iuf":
                raise ParameterError(
                    f"epsilon must be a real number, got an array of {dtype}")
        else:
            epsilon = _real("epsilon", epsilon)
        eps = np.atleast_1d(np.asarray(epsilon, dtype=np.float64))
        if np.any(eps < 0) or not np.all(np.isfinite(eps)):
            raise ParameterError("epsilon must be finite and >= 0")
        ys, s1, t, _ = self._positive_tables()
        j = np.searchsorted(ys, eps, side="right")
        out = np.clip(s1[j] - np.exp(eps - ys[j]) * t[j], 0.0, 1.0)
        return float(out[0]) if np.ndim(epsilon) == 0 else out

    def epsilon_at(self, delta: float) -> float:
        """Smallest epsilon in [0, L] with delta(epsilon) <= delta, up to rounding:
        the closed-form root on the segment that ends at the first D[i] <= delta."""
        delta = _real("delta", delta)
        if not (0.0 < delta <= 1.0):
            d0 = self.delta_at(0.0)
            raise RangeError(
                f"delta target must lie in (0, 1]; attainable range here is "
                f"(0, {d0:.6g}] down to 0 at epsilon = {self.trunc_L:.6g}; "
                f"got {delta!r}")
        if self.delta_at(0.0) <= delta:
            return 0.0
        ys, s1, t, d = self._positive_tables()
        i = int(np.argmax(d <= delta))  # S1[i] > delta(y_{i-1} or 0) > delta
        lo, hi = float(ys[i - 1]) if i else 0.0, float(ys[i])
        rest, scaled = float(s1[i]) - delta, float(t[i])
        eps = min(max(hi + math.log(rest / scaled), lo), hi) if scaled else hi
        # One ulp of eps may not move eps - y_i: double the step, up to y_i.
        step = math.ulp(eps)
        while self.delta_at(eps) > delta:
            if eps == hi:  # D[i] rounded to <= delta, delta(y_i) did not
                i += 1
                hi = float(ys[i])
            eps, step = min(eps + step, hi), 2.0 * step
        return eps


def _suffix_sums(p: np.ndarray, h: float) -> tuple[np.ndarray, np.ndarray]:
    """S1[i] = sum_{j >= i} p[j] and T[i] = sum_{j >= i} p[j] exp(-(j - i)
    h), each padded with a trailing zero.

    T is the recurrence T[i] = p[i] + exp(-h) T[i+1], run by blocks of
    ``size`` cells over the reversed masses ``u``: within a block starting
    at ``a``, one cumulative sum of ``u[r] exp((r - a) h)``, plus the carry
    ``exp(-h) T`` from the block before, rescaled by ``exp(-(r - a) h)``.
    A block spans at most `_BLOCK_SPAN` in loss, so its factors neither
    overflow nor underflow, and holds at most `_BLOCK_CELLS` cells, so the
    factors cost ``2 size + 1`` exps per table and the carry loop runs once
    per block.
    """
    n = p.size
    size = max(1, min(n + 1, _BLOCK_CELLS, int(_BLOCK_SPAN / h)))
    blocks = -(-(n + 1) // size)
    k = np.arange(size + 1)
    up, down = np.exp(h * k[:size]), np.exp(-h * k)
    u = np.zeros((blocks, size))
    flat = u.reshape(-1)
    flat[1:n + 1] = p[::-1]                     # flat[n - i] = p[i]
    s1 = np.cumsum(flat[:n + 1])[::-1]
    u *= up
    t = np.cumsum(u, axis=1)
    carry = [0.0] * blocks
    ends, c, decay = t[:, -1].tolist(), 0.0, float(down[size])
    for b in range(blocks - 1):
        carry[b + 1] = c = decay * (ends[b] + c)
    t += np.array(carry)[:, None]
    t *= down[:size]
    return s1, t.reshape(-1)[n::-1]


# ---------------------------------------------------------------------------
# Discretization
# ---------------------------------------------------------------------------


def _index_mean(q: np.ndarray) -> float:
    """``sum_j j q_j`` over the cells ``j = -m .. m`` of a ``2m + 1``-cell
    grid.  ``einsum`` sums in its own loop.  ``np.dot`` would start BLAS
    threads that cost more than the sum at these sizes, and its summation
    order, so its last bits, would follow the BLAS thread count."""
    m = q.size // 2
    return float(np.einsum("i,i->", np.arange(-m, m + 1, dtype=np.float64), q))


def discretize_from_samples(sample_fn: Callable[[np.random.Generator, int], np.ndarray],
                            cfg: AccountantConfig, rng: np.random.Generator,
                            samples_n: int) -> DiscretePRV:
    """The paper's sampled estimator: a `DiscretePRV` on ``cfg``'s grid from
    ``2 * samples_n`` accepted draws (``samples_n`` an integer >= 10000).

    Rejection-samples ``sample_fn(rng, count)`` into [-L, L]; the first
    ``samples_n`` accepted values feed the bin masses, the second half
    estimates the sub-cell offset ``mu_hat = clamp(mean - grid_mean,
    [0, h/2])``.  Raises `TruncationError` when fewer than 10% of draws land
    inside the window.
    """
    if not isinstance(rng, np.random.Generator):
        raise ParameterError(f"rng must be a numpy Generator, got {rng!r}")
    n = _integer("samples_n", samples_n, _MIN_SAMPLES)
    need = 2 * n
    L, h, m = cfg.trunc_L, cfg.mesh_h, cfg.half_bins
    chunk = min(need, _SAMPLE_CHUNK)

    pieces: list[np.ndarray] = []
    accepted = 0
    drawn = 0
    while accepted < need:
        values = np.asarray(sample_fn(rng, chunk), dtype=np.float64)
        drawn += values.size
        kept = values[np.abs(values) <= L]
        accepted += kept.size
        pieces.append(kept)
        if drawn >= min(need, 1_000_000) and accepted < _MIN_ACCEPTANCE * drawn:
            raise TruncationError(
                f"only {accepted}/{drawn} loss samples fell inside "
                f"[-{L:g}, {L:g}] (acceptance {accepted / drawn:.3f} < "
                f"{_MIN_ACCEPTANCE}); widen trunc_L")
    values = np.concatenate(pieces)[:need]
    acceptance = accepted / drawn
    rejected = drawn - accepted

    counts = kernels.bin_counts(values[:n], h, m)
    q = counts.astype(np.float64) / n
    grid_mean = h * _index_mean(q)
    mu_tilde = float(np.mean(values[n:])) - grid_mean
    mu_hat = min(max(mu_tilde, 0.0), h / 2.0)

    # 99% Clopper-Pearson upper bound on the per-draw rejection probability.
    tail_upper = float(special.betaincinv(rejected + 1, drawn - rejected, 0.99)) \
        if rejected < drawn else 1.0

    return DiscretePRV(probs=q, mesh_h=h, offset=mu_hat, compositions=1,
                       tail_upper=tail_upper, acceptance=acceptance)


def discretize_from_cdf(cdf_fn: Callable[[np.ndarray], np.ndarray],
                        cfg: AccountantConfig) -> DiscretePRV:
    """Deterministic discretization of a known loss CDF onto the grid.

    Bin masses are CDF differences at the cell edges ``(i - 1/2) h``,
    conditioned on the window, at offset 0.  Raises `TruncationError` when
    the window holds less than 10% of the mass.

    Conditioning on the caller's window drops the mass outside it, so a
    window too narrow for the query reports an epsilon that is too small,
    with no error: at beta = 2, sigma = 1, k = 20 and 16384 bins, a window
    of L = 30 reads epsilon(1e-5) = 29.97, where `account`'s window reads
    46.21.  `account` and `CompositionLedger` size their windows with
    `_auto_config`.
    """
    m = cfg.half_bins
    edges = (np.arange(-m, m + 2, dtype=np.float64) - 0.5) * cfg.mesh_h
    F = np.asarray(cdf_fn(edges), dtype=np.float64)
    if F.shape != edges.shape or not np.all(np.isfinite(F)):
        raise ParameterError("cdf_fn must return finite values, one per edge")
    mass = float(F[-1] - F[0])
    _check_window(mass, cfg)
    q = np.diff(F)
    q /= q.sum()                    # conditioned on the window
    return DiscretePRV(probs=q, mesh_h=cfg.mesh_h, compositions=1,
                       tail_upper=1.0 - mass, acceptance=mass)


def _check_window(mass: float, cfg: AccountantConfig) -> None:
    """`TruncationError` when the window holds less than
    `_MIN_ACCEPTANCE` of the single-shot loss's ``mass``."""
    if mass < _MIN_ACCEPTANCE:
        raise TruncationError(
            f"window [-{cfg.trunc_L:g}, {cfg.trunc_L:g}] holds only "
            f"{mass:.3f} of the loss mass; widen trunc_L")


# ---------------------------------------------------------------------------
# Composition
# ---------------------------------------------------------------------------


def _power(base: np.ndarray, k: int) -> np.ndarray:
    """``base ** k`` for an integer ``k >= 1`` by repeated squaring.

    numpy's complex power multiplies only for ``k < 100`` and goes through
    ``exp(k log z)`` above; this takes ``O(log k)`` products at any ``k``.
    The squares and the product are taken in place in at most two private
    arrays, in the order a fresh array per product would take them, so the
    result is bitwise the same.  ``base`` is not modified.
    """
    out, square = None, base
    while True:
        if k & 1:
            if out is None:
                out = square
            elif out is base:
                out = out * square
            else:
                np.multiply(out, square, out=out)
        k >>= 1
        if not k:
            return out
        if square is base or square is out:
            square = square * square
        else:
            np.multiply(square, square, out=square)


def compose(items: Sequence[tuple[DiscretePRV, int]]) -> DiscretePRV:
    """Compose grid-aligned PRVs with multiplicities via FFT powers.

    The convolution is circular modulo the window width, matching the error
    accounting; wrapped-around mass is charged to the certificate, not
    redistributed.  After a check that the inverse FFT's total has not
    drifted (`AccountingInconsistencyError`), its round-off below 0 is
    clipped here, since at large ``k`` it can pass the -1e-12 that
    `DiscretePRV` accepts from callers, and `DiscretePRV._adopt` normalizes
    it in place.  A
    single item with multiplicity 1 is returned unchanged.  Each
    multiplicity is an integer of at least 1.
    """
    entries = [(prv, _integer("multiplicity", k, 1)) for prv, k in items]
    if not entries:
        raise ParameterError("compose needs at least one (prv, multiplicity) pair")
    first = entries[0][0]
    for prv, _ in entries[1:]:
        if prv.probs.size != first.probs.size or prv.mesh_h != first.mesh_h:
            raise GridMismatchError(
                "all PRVs must share one grid: "
                f"({first.probs.size} cells, h={first.mesh_h!r}) vs "
                f"({prv.probs.size} cells, h={prv.mesh_h!r})")
    if len(entries) == 1 and entries[0][1] == 1:
        return first

    spectrum = None
    offset = 0.0
    total_k = 0
    for prv, k in entries:
        power = _power(prv._spectrum(), k)
        if spectrum is None:    # a power with k > 1 is a private array
            spectrum = power if k > 1 else power.copy()
        else:
            spectrum *= power
        offset += k * prv.offset
        total_k += k * prv.compositions
    probs = np.fft.fftshift(sp_fft.irfft(spectrum, n=first.probs.size,
                                         overwrite_x=True))
    total = float(probs.sum())
    if abs(total - 1.0) > _MASS_DRIFT_TOL:
        raise AccountingInconsistencyError(
            f"FFT composition lost probability mass: sum = {total!r}")
    np.maximum(probs, 0.0, out=probs)
    return DiscretePRV._adopt(probs, mesh_h=first.mesh_h, offset=offset,
                              compositions=total_k)


# ---------------------------------------------------------------------------
# Error certificate
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ErrorBounds:
    """(eta, tau) certificate with the resolved free parameters."""

    eta: float
    tau: float
    hoeffding_s: float
    sampling_t: float


def _sampling_t(cfg: AccountantConfig, samples_n: int) -> float:
    """The certificate's default sampling slack, ``10 L / sqrt(n)``."""
    return 10.0 * cfg.trunc_L / math.sqrt(samples_n)


def error_bounds(cfg: AccountantConfig, compositions: int, tail_single: float,
                 tail_sum: float, samples_n: int,
                 hoeffding_s: float | None = None,
                 sampling_t: float | None = None) -> ErrorBounds:
    """The paper's finite-sample certificate for ``compositions`` of one
    mechanism estimated from ``samples_n`` draws on ``cfg``'s grid.

    ``tail_single`` bounds the per-draw probability of falling outside the
    window; ``tail_sum`` bounds the composed loss exceeding L - t.  The
    remaining terms cover binning (Hoeffding over the sub-cell jitter, with
    slack ``hoeffding_s``, by default ``10 h sqrt(k)``), empirical-CDF error
    (slack ``sampling_t``, by default ``10 L / sqrt(n)``), and the mesh
    itself.
    """
    k = _integer("compositions", compositions, 1)
    n = _integer("samples_n", samples_n, _MIN_SAMPLES)
    for name, v in (("hoeffding_s", hoeffding_s), ("sampling_t", sampling_t)):
        if v is not None and not (math.isfinite(_real(name, v)) and v > 0):
            raise ParameterError(f"{name} must be positive when given, got {v!r}")
    L, h = cfg.trunc_L, cfg.mesh_h
    s = 10.0 * h * math.sqrt(k) if hoeffding_s is None else hoeffding_s
    t = _sampling_t(cfg, n) if sampling_t is None else sampling_t
    root = math.sqrt(L / (n * h))

    eta = (2.0 * k * tail_single
           + 4.0 * math.exp(-2.0 * s * s / (k * h * h))
           + 4.0 * k * math.exp(-n * t * t / (2.0 * L * L))
           + 8.0 * k * math.exp(-n * t * t / 2.0)
           + tail_sum
           + 2.0 * k * (t + root))
    tau = (s
           + k * (t + 2.0 * L * (0.5 * t + root))
           + 2.0 * k * (0.5 * t + root))
    return ErrorBounds(eta=min(eta, 1.0), tau=tau, hoeffding_s=s, sampling_t=t)


# ---------------------------------------------------------------------------
# Privacy curve / account()
# ---------------------------------------------------------------------------


@dataclass
class PrivacyCurve:
    """An (epsilon, delta) trade-off curve sampled at points of epsilon."""

    epsilon: np.ndarray
    delta: np.ndarray
    config: dict
    mechanism: dict

    def __post_init__(self) -> None:
        eps = np.asarray(self.epsilon, dtype=np.float64)
        dlt = np.asarray(self.delta, dtype=np.float64)
        if eps.shape != dlt.shape or eps.ndim != 1 or eps.size < 2:
            raise ParameterError("epsilon and delta must be matching 1-d arrays")
        if np.any(np.diff(eps) <= 0):
            raise ParameterError("epsilon grid must be strictly increasing")
        if np.any(dlt < 0) or np.any(dlt > 1):
            raise ParameterError("delta values must lie in [0, 1]")
        if np.any(np.diff(dlt) > 1e-12):
            raise ParameterError("delta must be non-increasing along the curve")
        self.epsilon = eps
        self.delta = dlt

    def to_json(self, indent: int | None = None) -> str:
        return json.dumps({
            "epsilon": self.epsilon.tolist(),
            "delta": self.delta.tolist(),
            "config": self.config,
            "mechanism": self.mechanism,
        }, indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "PrivacyCurve":
        raw = json.loads(text)
        return cls(epsilon=np.asarray(raw["epsilon"]), delta=np.asarray(raw["delta"]),
                   config=dict(raw["config"]), mechanism=dict(raw["mechanism"]))


@dataclass
class AccountResult:
    """Everything `account` learned about one mechanism invocation pattern.

    ``epsilon`` and ``delta`` are point estimates.  ``eta`` and ``tau`` are
    the paper's certificate for the sampled estimator (`error_bounds`),
    vacuous at the defaults; they stay while `perfbench/workloads.py` reads
    them (ROADMAP item 1).  ``curve`` is built from ``composed`` on its first
    read, then kept: the solver and the ledger never read it.
    """

    epsilon: float
    delta: float
    eta: float
    tau: float
    config: AccountantConfig
    composed: dict[LossDirection, DiscretePRV]
    _spec: MechanismSpec = field(repr=False)
    _curve_points: int = field(repr=False)
    _curve: PrivacyCurve | None = field(default=None, init=False, repr=False,
                                        compare=False)

    @property
    def curve(self) -> PrivacyCurve:
        """``delta(epsilon)`` at ``curve_points`` points of [0, L], the
        largest over the directions."""
        if self._curve is None:
            eps = np.linspace(0.0, self.config.trunc_L, self._curve_points)
            delta = np.maximum.reduce([np.asarray(prv.delta_at(eps))
                                       for prv in self.composed.values()])
            delta = np.minimum.accumulate(delta)  # iron out last-ulp wobble
            self._curve = PrivacyCurve(epsilon=eps, delta=delta,
                                       config=self.config.to_dict(),
                                       mechanism=self._spec.to_dict())
        return self._curve


def _auto_config(spec: MechanismSpec, k: int, bins: int) -> AccountantConfig:
    """Size the window for ``k`` compositions from the exact moments of the
    single-shot loss: L = |k mean| + 12 sqrt(k) std, the widest direction.

    Moments alone can miss a rare inclusion that carries a large loss, whose
    mass would then fall outside [-L, L] and be renormalized away.  So L
    then grows by `_WINDOW_GROWTH` until, in every direction, ``k`` times the
    exact single-shot mass outside [-L, L] is at most `_WINDOW_TAIL`.  Both
    masses are read as tails at the noise crossings of ``-L`` and ``L``
    (`prv.loss_masses`), each to its own relative precision, down to the
    1.5e-20 past which the noise's tails are read into the pieces next to
    them.  That is far below ``_WINDOW_TAIL / k`` for any ``k`` under about
    6e7, so there the loop meets `_WINDOW_TAIL` itself.

    A window that already covers the loss's solved reach, so that
    `prv.loss_masses` would solve neither ``-L`` nor ``L``
    (`prv._solved_edges`), has nothing outside it, and skips the loop."""
    L = 1e-6
    for mean, var in _loss_moments(spec, directions_for(spec)).values():
        L = max(L, abs(k * mean) + _WINDOW_SPREAD * math.sqrt(k * var))

    def outside(L: float) -> float:
        return max(float(pieces[0] + pieces[-1])
                   for pieces in loss_masses(spec, 2.0 * L, 0).values())

    first, last = _solved_edges(spec, 2.0 * L, 0)
    if first <= last:
        while k * outside(L) > _WINDOW_TAIL:
            L *= _WINDOW_GROWTH
    return AccountantConfig(L, bins)


def _check_delta(delta: float) -> None:
    """`RangeError` for a ``delta`` below `_DELTA_FLOOR`, before any grid is
    built."""
    if not delta >= _DELTA_FLOOR:
        raise RangeError(
            f"delta must be at least {_DELTA_FLOOR:g}, the smallest delta "
            f"the accountant answers (below it FFT round-off, not the loss, "
            f"sets epsilon); got {delta!r}")


def _discretize_directions(spec: MechanismSpec,
                           cfg: AccountantConfig) -> dict[LossDirection, DiscretePRV]:
    """The single-shot loss of ``spec`` on ``cfg``'s grid, per direction:
    the cell masses of `prv.loss_masses`, conditioned on the window and
    clipped at 0 in place, at offset 0.  Each single's ``tail_upper`` is the
    mass outside the window, read as tails."""
    singles = {}
    for direction, pieces in loss_masses(spec, cfg.mesh_h,
                                         cfg.half_bins).items():
        cells = pieces[1:-1]
        total = float(cells.sum())
        _check_window(total, cfg)
        cells /= total                  # conditioned on the window
        np.maximum(cells, 0.0, out=cells)
        singles[direction] = DiscretePRV._adopt(
            cells, mesh_h=cfg.mesh_h,
            tail_upper=float(pieces[0] + pieces[-1]), acceptance=total)
    return singles


def _mass_beyond(prv: DiscretePRV, level: float) -> float:
    """The mass of ``prv`` where ``|support()| >= level > 0``, summed over
    the grid's two end slices in support order, bitwise the sum over that
    mask, without building the support."""
    def y(i: int) -> float:         # support()[i + m], bitwise
        return i * prv.mesh_h + prv.offset

    index = range(-prv.half_bins, prv.half_bins + 1)
    low = bisect.bisect_right(index, -level, key=y)
    high = bisect.bisect_left(index, level, key=y)
    return float(np.concatenate([prv.probs[:low], prv.probs[high:]]).sum())


def _epsilon_within_window(composed, delta: float) -> float:
    """The largest `DiscretePRV.epsilon_at` ``delta`` over ``composed``, or
    `RangeError` when one falls in its window's top cell, where the window,
    not the loss, sets it: at beta = 2, sigma = 4, k = 100 on the default
    grid, delta = 1e-40 would read the top point, 48.676, for a true 52.90."""
    eps = 0.0
    for prv in composed:
        e = prv.epsilon_at(delta)
        floor = (prv.half_bins - 1) * prv.mesh_h + prv.offset
        if e > floor:
            raise RangeError(
                f"delta = {delta!r} lies below {prv.delta_at(floor):.3g}, the "
                f"smallest delta the window of L = {prv.trunc_L:.6g} resolves")
        eps = max(eps, e)
    return eps


def account(spec: MechanismSpec, *,
            epsilon: float | None = None, delta: float | None = None,
            rng=None, curve_points: int = 129,
            samples_n: int = DEFAULT_SAMPLES,
            bins: int = DEFAULT_BINS) -> AccountResult:
    """Account a mechanism spec end to end.

    Exactly one of ``epsilon`` / ``delta`` must be given; the other is
    computed, as a point estimate.  The window is sized from the exact loss
    moments (`_auto_config`) on a grid of ``bins`` cells.  Subsampled
    mechanisms are accounted in both adjacency directions and the worse
    direction is reported.  A ``delta`` below `_DELTA_FLOOR` raises
    `RangeError` before any grid is built, and so does one whose epsilon
    falls in the window's top cell (`_epsilon_within_window`).

    ``samples_n`` (an integer >= 10000) sizes only the certificate
    ``(eta, tau)`` (`error_bounds`), vacuous at the defaults.  ``rng`` is
    validated, and no result depends on it.  Both stay while
    `perfbench/workloads.py` passes them (ROADMAP item 1).
    """
    if (epsilon is None) == (delta is None):
        raise ParameterError("provide exactly one of epsilon= or delta=")
    if epsilon is not None:
        epsilon = _real("epsilon", epsilon)
        if not math.isfinite(epsilon) or epsilon < 0:
            raise ParameterError(
                f"epsilon must be finite and >= 0, got {epsilon!r}")
    if delta is not None:
        delta = _real("delta", delta)
        _check_delta(delta)
    curve_points = _integer("curve_points", curve_points, 2)
    samples_n = _integer("samples_n", samples_n, _MIN_SAMPLES)
    _check_seed(rng)

    k = spec.compositions
    cfg = _auto_config(spec, k, bins)
    t = _sampling_t(cfg, samples_n)
    composed: dict[LossDirection, DiscretePRV] = {}
    eta = tau = 0.0
    for direction, one in _discretize_directions(spec, cfg).items():
        full = composed[direction] = compose([(one, k)])
        tail_single = float(one.tail_upper)
        tail_sum = min(1.0, _mass_beyond(full, cfg.trunc_L - t)
                       + k * tail_single)
        bounds = error_bounds(cfg, k, tail_single, tail_sum, samples_n)
        eta, tau = max(eta, bounds.eta), max(tau, bounds.tau)

    if delta is not None:
        eps_est = _epsilon_within_window(composed.values(), delta)
        delta_est = float(delta)
    else:
        eps_est = float(epsilon)
        delta_est = max(float(prv.delta_at(epsilon)) for prv in composed.values())

    return AccountResult(
        epsilon=eps_est, delta=delta_est, eta=eta, tau=tau, config=cfg,
        composed=composed, _spec=spec, _curve_points=curve_points)


# ---------------------------------------------------------------------------
# Step ledger (composition counts that grow one mechanism at a time)
# ---------------------------------------------------------------------------


class CompositionLedger:
    """Cheap ``epsilon(k)`` over many composition counts of one mechanism.

    Discretizes the one-step loss once, as `account` does, and answers each
    ``k`` with `compose` (the single's rFFT is cached on it); the spec's
    ``compositions`` is not read.  The window is sized for ``k_cap``, so
    ``composed(k_cap)`` is `account`'s result at ``k_cap`` compositions and
    the same ``bins``.  It draws nothing and reads no certificate, so it
    takes no seed and no sample count.  Built for training loops that need
    "how many more steps fit in the budget" (`max_steps`).
    ``evaluations`` lists every probe `max_steps` made, in the order made,
    as ``(k, epsilon)``.
    """

    def __init__(self, spec: MechanismSpec, *, k_cap: int = 4096,
                 bins: int = 2 ** 16):
        self.k_cap = _integer("k_cap", k_cap, 1)
        self.spec = spec
        self.cfg = _auto_config(spec, self.k_cap, bins)
        self._singles = _discretize_directions(spec, self.cfg)
        self._eps_cache: dict[tuple[int, float], float] = {}
        self.evaluations: list[tuple[int, float]] = []

    def composed(self, k: int) -> dict[LossDirection, DiscretePRV]:
        if _integer("k", k, 1) > self.k_cap:
            raise ParameterError(f"k must lie in [1, {self.k_cap}], got {k}")
        return {direction: compose([(one, k)])
                for direction, one in self._singles.items()}

    def epsilon_at(self, k: int, delta: float) -> float:
        key = (_integer("k", k, 1), _real("delta", delta))
        _check_delta(key[1])
        if key not in self._eps_cache:
            self._eps_cache[key] = _epsilon_within_window(
                self.composed(k).values(), key[1])
        return self._eps_cache[key]

    def max_steps(self, epsilon: float, delta: float) -> int:
        """Largest k <= k_cap with epsilon(k) <= epsilon on the ledger's grid,
        up to where that grid shows epsilon(k) <= epsilon < epsilon(k + 1).

        Prices k = 1 (`BudgetExhaustedError` when it is over budget) and
        k_cap, then takes regula falsi steps between them until it brackets
        the budget (`_last_within`).  Every probe lands in ``evaluations``.
        A probe the window caps (`RangeError`) reads as the lowest epsilon
        it can stand for; a budget at or above that raises the error.  A
        NaN budget raises `ParameterError`, and a ``delta`` below
        `_DELTA_FLOOR` `RangeError`, before any probe.
        """
        epsilon, delta = _real("epsilon", epsilon), _real("delta", delta)
        if math.isnan(epsilon):
            raise ParameterError("epsilon must be a number, got nan")
        _check_delta(delta)

        def probe(k: int) -> float:
            try:
                eps = self.epsilon_at(k, delta)
            except RangeError:
                # Past the second-highest support point, at least this high.
                eps = (self.cfg.half_bins - 1) * self.cfg.mesh_h
                if eps <= epsilon:
                    raise
            self.evaluations.append((k, eps))
            return eps

        first = probe(1)
        if first > epsilon:
            raise BudgetExhaustedError(
                f"a single step already costs epsilon = {first:.4f} at "
                f"delta = {delta:g}, over the budget {epsilon:g}")
        if self.k_cap == 1:
            return 1
        last = probe(self.k_cap)
        if last <= epsilon:
            return self.k_cap
        return _last_within(probe, (1, first), (self.k_cap, last), epsilon)


def _last_within(probe: Callable[[int], float], low: tuple[int, float],
                 high: tuple[int, float], target: float) -> int:
    """The k with ``probe(k) <= target < probe(k + 1)``, from a bracket
    ``low = (lo, probe(lo))`` at most and ``high = (hi, probe(hi))`` over
    ``target``, with ``lo < hi``.

    Each k is the floor of where the chord between the bracket's ends, log
    epsilon against log k, meets ``target`` (Illinois regula falsi: an end
    kept twice has its gap halved), moved inside the bracket; so once a
    probe lands next to the answer, the chord's next k usually closes the
    bracket.  Three steps that together do not halve the bracket, or a chord
    from epsilon = 0, bisect.
    """
    def gap(eps: float) -> float:
        return math.log(eps / target) if eps > 0.0 else -math.inf

    (lo, eps_lo), (hi, eps_hi) = low, high
    f_lo, f_hi = gap(eps_lo), gap(eps_hi)
    kept = 0  # the end the last step kept: -1 lo, +1 hi
    widths = [hi - lo]
    while hi - lo > 1:
        stalled = len(widths) > 3 and widths[-1] > 0.5 * widths[-4]
        k = (lo + hi) // 2 if stalled or not math.isfinite(f_lo) else \
            math.floor(lo * (hi / lo) ** (f_lo / (f_lo - f_hi)))
        k = min(max(k, lo + 1), hi - 1)
        f = gap(probe(k))
        if f <= 0.0:
            lo, f_lo = k, f
            if kept == 1:
                f_hi *= 0.5
            kept = 1
        else:
            hi, f_hi = k, f
            if kept == -1:
                f_lo *= 0.5
            kept = -1
        widths.append(hi - lo)
    return lo
