"""Discretized privacy-loss accounting.

The pipeline: take the exact CDF of the single-shot loss, bin it onto a
uniform grid of ``2m + 1`` cells spanning a window [-L, L] with ``L = (m +
1/2) h``, conditioned on the window, with a sub-cell offset from the exact
conditional mean; self-compose the binned distribution with FFT powers
(circular, i.e. modulo the window), and read ``delta(epsilon)`` /
``epsilon(delta)`` off the composed grid.

* Every exact CDF value on this path, at the cell edges and at the window
  ends ``+-L``, comes from `prv.loss_cdfs_on_grid`, bitwise equal to the
  pointwise `prv.loss_cdf`.  The cell edges ``(i - 1/2) h`` are bitwise
  symmetric about 0, so it serves every direction from one root solve (on
  half the edges for a plain spec; REMOVE's solve, reversed, serves ADD)
  and evaluates no tail that float64 saturates at 0.0 or 1.0.
* `DiscretePRV` is the one place that clips and normalizes masses: the
  discretizers hand it masses conditioned on the window, `compose` its raw
  inverse FFT.
* The cell count is rounded up to a fast FFT length, an odd number whose
  prime factors all lie in {3, 5, 7}, and powers are taken by repeated
  squaring, so composing ``k`` copies costs ``O(log k)`` spectrum products
  and one inverse FFT.
* The window is sized from the exact loss moments (`prv.loss_moments`),
  then widened until ``k`` times the exact single-shot mass outside it is
  at most 1e-12 in each direction, so a rare inclusion with a large loss
  is not renormalized away.  The mass above the window is read as ``1 -
  F(L)``, which float64 resolves only to ``2**-54``, so on that side the
  bound is ``1e-12 + k * 2**-54`` (5.6e-11 at ``k = 1e6``).
* Queries read two suffix tables over the positive support ``y_i``: the
  mass ``S1[i]`` at or above ``y_i`` and the sum ``T[i]`` of those masses
  scaled by ``exp(-(y_j - y_i))``, so ``delta(eps) = S1[i] - exp(eps -
  y_i) T[i]`` on ``[y_{i-1}, y_i)``.  The exponent is never positive, and
  ``T`` is built by blocks with no log or exp per cell.  `epsilon_at`
  inverts that segment in closed form.

`account` and `CompositionLedger` share that path: both discretize through
`_discretize_directions` and compose through `compose`.  The ledger's
`max_steps` brackets the step count on a coarse grid and confirms it on
its own, which alone decides.  Nothing on the path samples.  The paper's
sampled estimator, `discretize_from_samples` fed by `prv.sample_prv`,
stays as its reproduction and as a cross-check.

Alongside the point estimates the accountant evaluates the paper's
finite-sample error certificate ``(eta, tau)``: the true delta at
``epsilon (+/-) tau`` lies within ``eta`` of the reported curve.  Its
formula is unchanged and still charges the sampling terms for
``samples_n`` draws, which the exact discretization does not make, so it
only errs on the conservative side.  With the default window it is
dominated by its worst-case discretization terms and is much looser than
the observed accuracy; both the raw estimate and the conservative
(estimate + certificate) values are reported.

Determinism: `account`, `CompositionLedger` and the calibration built on
them are deterministic functions of their spec and sizes; they depend on
the spec only through `MechanismSpec.loss_key` ``(beta, Delta/sigma, q)``.
They still take ``rng`` as an ``int`` seed or ``None`` (the documented
default ``DEFAULT_SEED``), validate it and report it as
`AccountResult.seed`, but no result depends on it.
"""

from __future__ import annotations

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
                     RangeError, TruncationError)
from .prv import (LossDirection, MechanismSpec, directions_for,
                  loss_cdfs_on_grid, loss_moments, loss_range)
# perfbench/spans.py patches sample_prv and discretize_from_samples here.
from .prv import sample_prv  # noqa: F401

DEFAULT_SEED = 61803398
DEFAULT_BINS = 2 ** 19
DEFAULT_SAMPLES = 5_000_000
_WINDOW_SPREAD = 12.0
_WINDOW_TAIL = 1e-12   # bound on k x the single-shot mass outside [-L, L]
_WINDOW_GROWTH = 1.25
_SAMPLE_CHUNK = 2_500_000
_MIN_ACCEPTANCE = 0.10
_MASS_DRIFT_TOL = 1e-9
# Cells requested for the coarse stage of `CompositionLedger.max_steps` and
# `calibrate.solve_sigma`: a probe there costs a small share of one at 2^16.
_COARSE_BINS = 2 ** 12
# `_suffix_sums` blocks: a span of 32 keeps p_j exp(-(j - i) h) within one
# block normal for p_j above 1e-294, and 1024-cell blocks cost ~2e3 exps.
_BLOCK_SPAN = 32.0
_BLOCK_CELLS = 1024


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


def _seed(rng) -> int:
    """The int seed that ``rng`` (an int or None) names."""
    if rng is None:
        return DEFAULT_SEED
    if isinstance(rng, (int, np.integer)) and not isinstance(rng, bool):
        return int(rng)
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


@dataclass(frozen=True)
class AccountantConfig:
    """Grid and certificate sizes for the discretized accountant.

    A request of ``bins`` asks for ``2 (bins // 2) + 1`` cells; the grid
    built has the smallest odd count at least that large whose prime
    factors all lie in {3, 5, 7} (a fast FFT length: 2^19 -> 3^12 =
    531441), and ``bins`` stores that count, so ``AccountantConfig(L,
    cfg.bins)`` builds the same grid.  With ``m = bins // 2`` the ``2m + 1``
    cells span [-trunc_L, trunc_L], so ``trunc_L = (m + 1/2) * mesh_h``.
    ``samples_n`` is the sample count of the paper's sampled estimator
    (`discretize_from_samples`) and of the error certificate, which assumes
    it.  ``hoeffding_s`` / ``sampling_t`` are the free parameters of the
    certificate; ``None`` resolves them at accounting time to
    ``10 h sqrt(k)`` and ``10 L / sqrt(n)``.
    """

    trunc_L: float
    bins: int = DEFAULT_BINS
    samples_n: int = DEFAULT_SAMPLES
    hoeffding_s: float | None = None
    sampling_t: float | None = None

    def __post_init__(self) -> None:
        if not (math.isfinite(self.trunc_L) and self.trunc_L > 0):
            raise ConfigError(f"trunc_L must be positive, got {self.trunc_L!r}")
        if not isinstance(self.bins, (int, np.integer)) or self.bins < 2:
            raise ConfigError(f"bins must be an integer >= 2, got {self.bins!r}")
        requested = 2 * (int(self.bins) // 2) + 1
        cells = _fast_fft_cells(requested)
        if cells > 2 ** 26:
            raise ConfigError(
                f"bins={self.bins!r} asks for {requested} cells, which round "
                f"up to the fast FFT length {cells}, over the 2**26-cell cap")
        if not isinstance(self.samples_n, (int, np.integer)) or self.samples_n < 10_000:
            raise ConfigError(
                f"samples_n must be an integer >= 10000, got {self.samples_n!r}")
        for name in ("hoeffding_s", "sampling_t"):
            v = getattr(self, name)
            if v is not None and not (math.isfinite(v) and v > 0):
                raise ConfigError(f"{name} must be positive when given, got {v!r}")
        object.__setattr__(self, "trunc_L", float(self.trunc_L))
        object.__setattr__(self, "bins", cells)
        object.__setattr__(self, "samples_n", int(self.samples_n))

    @property
    def half_bins(self) -> int:
        return self.bins // 2

    @property
    def mesh_h(self) -> float:
        return 2.0 * self.trunc_L / self.bins

    def resolved_s(self, compositions: int) -> float:
        if self.hoeffding_s is not None:
            return self.hoeffding_s
        return 10.0 * self.mesh_h * math.sqrt(compositions)

    def resolved_t(self) -> float:
        if self.sampling_t is not None:
            return self.sampling_t
        return 10.0 * self.trunc_L / math.sqrt(self.samples_n)

    def to_dict(self) -> dict:
        return {
            "trunc_L": self.trunc_L,
            "cells": self.bins,
            "mesh_h": self.mesh_h,
            "samples_n": self.samples_n,
            "hoeffding_s": self.hoeffding_s,
            "sampling_t": self.sampling_t,
        }


@dataclass(frozen=True, eq=False)
class DiscretePRV:
    """A privacy-loss distribution binned to a uniform grid.

    ``probs[j]`` is the mass of grid index ``i = j - m`` whose loss value is
    ``i * mesh_h + offset``.  Freshly discretized distributions carry an
    offset in [0, mesh_h / 2]; composition adds offsets, so composed ones may
    exceed that half-cell range.  Construction is the one place masses are
    clipped at 0 and normalized, so ``probs`` may carry rounding error:
    entries down to -1e-12 and a total within `_MASS_DRIFT_TOL` of 1.
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
        if not (math.isfinite(self.mesh_h) and self.mesh_h > 0):
            raise ParameterError(f"mesh_h must be positive, got {self.mesh_h!r}")
        if not (math.isfinite(self.offset) and self.offset >= 0):
            raise ParameterError(f"offset must be >= 0, got {self.offset!r}")
        if self.compositions < 1:
            raise ParameterError("compositions must be >= 1")

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
                               sp_fft.rfft(np.fft.ifftshift(self.probs)))
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
            y = self.support()
            j0 = int(np.searchsorted(y, 0.0, side="right"))
            ys = np.concatenate([y[j0:], [np.inf]])
            s1, t = _suffix_sums(self.probs[j0:], self.mesh_h)
            d = s1[1:] - math.exp(-self.mesh_h) * t[1:]
            object.__setattr__(self, "_tables", (ys, s1, t, d))
        return self._tables

    def delta_at(self, epsilon) -> np.ndarray | float:
        """Hockey-stick divergence delta(epsilon) on the grid, for eps >= 0."""
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
    t = np.cumsum(u * up, axis=1)
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


def discretize_from_samples(sample_fn: Callable[[np.random.Generator, int], np.ndarray],
                            cfg: AccountantConfig,
                            rng: np.random.Generator) -> DiscretePRV:
    """Estimate a `DiscretePRV` from ``2 * samples_n`` accepted draws.

    Rejection-samples ``sample_fn(rng, count)`` into [-L, L]; the first
    ``samples_n`` accepted values feed the bin masses, the second half
    estimates the sub-cell offset ``mu_hat = clamp(mean - grid_mean,
    [0, h/2])``.  Raises `TruncationError` when fewer than 10% of draws land
    inside the window.
    """
    if not isinstance(rng, np.random.Generator):
        raise ParameterError(f"rng must be a numpy Generator, got {rng!r}")
    n = cfg.samples_n
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
    grid_mean = h * float(np.dot(np.arange(-m, m + 1, dtype=np.float64), q))
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

    Bin masses come from CDF differences at the cell edges, conditioned on
    the window; the offset uses the exact conditional mean (CDF trapezoid
    integration by parts).  Raises `TruncationError` when the window holds
    less than 10% of the mass.
    """
    edges = _cell_edges(cfg)
    return _binned(edges, cdf_fn(edges), cfg)


def _cell_edges(cfg: AccountantConfig) -> np.ndarray:
    """The ``2m + 2`` cell edges ``(i - 1/2) h`` of ``cfg``'s grid, bitwise
    symmetric about 0."""
    m = cfg.half_bins
    return (np.arange(-m, m + 2, dtype=np.float64) - 0.5) * cfg.mesh_h


def _binned(edges: np.ndarray, F, cfg: AccountantConfig) -> DiscretePRV:
    """`discretize_from_cdf` from the CDF ``F`` at ``cfg``'s `_cell_edges`."""
    m, h, L = cfg.half_bins, cfg.mesh_h, cfg.trunc_L
    F = np.asarray(F, dtype=np.float64)
    if F.shape != edges.shape or not np.all(np.isfinite(F)):
        raise ParameterError("cdf_fn must return finite values, one per edge")
    mass = float(F[-1] - F[0])
    if mass < _MIN_ACCEPTANCE:
        raise TruncationError(
            f"window [-{L:g}, {L:g}] holds only {mass:.3f} of the loss mass; "
            "widen trunc_L")
    q = np.diff(F)
    q /= q.sum()                    # conditioned on the window

    # E[Y | window] via integration by parts; trapezoid over the edge grid.
    stieltjes = L * (float(F[-1]) + float(F[0])) - float(np.trapezoid(F, edges))
    cond_mean = stieltjes / mass
    grid_mean = h * float(np.dot(np.arange(-m, m + 1, dtype=np.float64), q))
    mu_hat = min(max(cond_mean - grid_mean, 0.0), h / 2.0)

    return DiscretePRV(probs=q, mesh_h=h, offset=mu_hat, compositions=1,
                       tail_upper=1.0 - mass, acceptance=mass)


# ---------------------------------------------------------------------------
# Composition
# ---------------------------------------------------------------------------


def _power(base: np.ndarray, k: int) -> np.ndarray:
    """``base ** k`` for an integer ``k >= 1`` by repeated squaring.

    numpy's complex power multiplies only for ``k < 100`` and goes through
    ``exp(k log z)`` above; this takes ``O(log k)`` products at any ``k``.
    ``base`` is not modified.
    """
    out = None
    while True:
        if k & 1:
            out = base if out is None else out * base
        k >>= 1
        if not k:
            return out
        base = base * base


def compose(items: Sequence[tuple[DiscretePRV, int]]) -> DiscretePRV:
    """Compose grid-aligned PRVs with multiplicities via FFT powers.

    The convolution is circular modulo the window width, matching the error
    accounting; wrapped-around mass is charged to the certificate, not
    redistributed.  The inverse FFT goes to `DiscretePRV` as it is, which
    clips and normalizes it, after a check that its total has not drifted
    (`AccountingInconsistencyError`).  A single item with multiplicity 1 is
    returned unchanged.
    """
    entries = [(prv, int(k)) for prv, k in items]
    if not entries:
        raise ParameterError("compose needs at least one (prv, multiplicity) pair")
    for prv, k in entries:
        if k < 1:
            raise ParameterError(f"multiplicities must be >= 1, got {k}")
    first = entries[0][0]
    for prv, _ in entries[1:]:
        if prv.probs.size != first.probs.size or prv.mesh_h != first.mesh_h:
            raise GridMismatchError(
                "all PRVs must share one grid: "
                f"({first.probs.size} cells, h={first.mesh_h!r}) vs "
                f"({prv.probs.size} cells, h={prv.mesh_h!r})")
    if len(entries) == 1 and entries[0][1] == 1:
        return first

    spectrum = np.ones(first.probs.size // 2 + 1, dtype=np.complex128)
    offset = 0.0
    total_k = 0
    for prv, k in entries:
        spectrum *= _power(prv._spectrum(), k)
        offset += k * prv.offset
        total_k += k * prv.compositions
    probs = np.fft.fftshift(sp_fft.irfft(spectrum, n=first.probs.size))
    total = float(probs.sum())
    if abs(total - 1.0) > _MASS_DRIFT_TOL:
        raise AccountingInconsistencyError(
            f"FFT composition lost probability mass: sum = {total!r}")
    return DiscretePRV(probs=probs, mesh_h=first.mesh_h, offset=offset,
                       compositions=total_k)


def convolve_direct(prv_a: DiscretePRV, prv_b: DiscretePRV) -> DiscretePRV:
    """Quadratic-time circular convolution; cross-check oracle for `compose`."""
    if prv_a.probs.size != prv_b.probs.size or prv_a.mesh_h != prv_b.mesh_h:
        raise GridMismatchError("operands must share one grid")
    size = prv_a.probs.size
    a = np.fft.ifftshift(prv_a.probs)
    b = np.fft.ifftshift(prv_b.probs)
    out = np.zeros(size)
    for shift in range(size):
        out += a[shift] * np.roll(b, shift)
    return DiscretePRV(probs=np.fft.fftshift(out), mesh_h=prv_a.mesh_h,
                       offset=prv_a.offset + prv_b.offset,
                       compositions=prv_a.compositions + prv_b.compositions)


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


def error_bounds(cfg: AccountantConfig, compositions: int, tail_single: float,
                 tail_sum: float) -> ErrorBounds:
    """Finite-sample certificate for ``compositions`` of one mechanism.

    ``tail_single`` bounds the per-draw probability of falling outside the
    window; ``tail_sum`` bounds the composed loss exceeding L - t.  The
    remaining terms cover binning (Hoeffding over the sub-cell jitter),
    empirical-CDF error, and the mesh itself.
    """
    k = int(compositions)
    L, h, n = cfg.trunc_L, cfg.mesh_h, cfg.samples_n
    s = cfg.resolved_s(k)
    t = cfg.resolved_t()
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
    """A sampled (epsilon, delta) trade-off curve with its certificate."""

    epsilon: np.ndarray
    delta: np.ndarray
    eta: float
    tau: float
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
            "eta": self.eta,
            "tau": self.tau,
            "config": self.config,
            "mechanism": self.mechanism,
        }, indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "PrivacyCurve":
        raw = json.loads(text)
        return cls(epsilon=np.asarray(raw["epsilon"]), delta=np.asarray(raw["delta"]),
                   eta=float(raw["eta"]), tau=float(raw["tau"]),
                   config=dict(raw["config"]), mechanism=dict(raw["mechanism"]))


@dataclass
class AccountResult:
    """Everything `account` learned about one mechanism invocation pattern."""

    epsilon: float
    delta: float
    epsilon_conservative: float
    delta_conservative: float
    eta: float
    tau: float
    curve: PrivacyCurve
    config: AccountantConfig
    composed: dict[LossDirection, DiscretePRV]
    seed: int


def _auto_config(spec: MechanismSpec, k: int, samples_n: int,
                 bins: int) -> AccountantConfig:
    """Size the window for ``k`` compositions from the exact moments of the
    single-shot loss: L = |k mean| + 12 sqrt(k) std, the widest direction.

    Moments alone can miss a rare inclusion that carries a large loss, whose
    mass would then fall outside [-L, L] and be renormalized away.  So L
    then grows by `_WINDOW_GROWTH` until, in every direction, ``k`` times the
    exact single-shot mass outside [-L, L] is at most `_WINDOW_TAIL`.

    The mass above L is read as ``1 - F(L)`` from the CDF, which cannot
    resolve a mass below ``2**-54`` (half an ulp of 1): the loop may stop
    once ``F(L)`` rounds to 1.0.  So ``k`` times that mass is at most
    ``_WINDOW_TAIL + k * 2**-54``: within twice `_WINDOW_TAIL` up to ``k``
    of about 1.8e4, and up to 5.6e-11 at ``k = 1e6``.  The mass below -L
    is read directly and meets `_WINDOW_TAIL` itself."""
    L = 1e-6
    for direction in directions_for(spec):
        mean, var = loss_moments(spec, direction)
        L = max(L, abs(k * mean) + _WINDOW_SPREAD * math.sqrt(k * var))

    def outside(L: float) -> float:
        cdfs = loss_cdfs_on_grid(spec, np.array([-L, L])).values()
        return max(float(lo + (1.0 - hi)) for lo, hi in cdfs)

    while k * outside(L) > _WINDOW_TAIL:
        L *= _WINDOW_GROWTH
    return AccountantConfig(L, bins=bins, samples_n=samples_n)


def _discretize_directions(spec: MechanismSpec,
                           cfg: AccountantConfig) -> dict[LossDirection, DiscretePRV]:
    """The single-shot loss of ``spec`` on ``cfg``'s grid, per direction,
    discretized from its exact CDF (every direction from one root solve,
    `prv.loss_cdfs_on_grid`)."""
    edges = _cell_edges(cfg)
    return {direction: _binned(edges, F, cfg)
            for direction, F in loss_cdfs_on_grid(spec, edges).items()}


def account(spec: MechanismSpec, cfg: AccountantConfig | None = None, *,
            epsilon: float | None = None, delta: float | None = None,
            rng=None, curve_points: int = 129,
            samples_n: int = DEFAULT_SAMPLES,
            bins: int = DEFAULT_BINS) -> AccountResult:
    """Account a mechanism spec end to end.

    Exactly one of ``epsilon`` / ``delta`` must be given; the other is
    computed.  With ``cfg=None`` the window is auto-sized from the exact loss
    moments (``samples_n`` and ``bins`` feed that construction; they are
    ignored when an explicit config is supplied).  Subsampled mechanisms are
    accounted in both adjacency directions and the worse direction is
    reported.  ``rng`` is validated and reported as `AccountResult.seed`;
    the result does not depend on it.
    """
    if (epsilon is None) == (delta is None):
        raise ParameterError("provide exactly one of epsilon= or delta=")
    if epsilon is not None and (not math.isfinite(epsilon) or epsilon < 0):
        raise ParameterError(f"epsilon must be finite and >= 0, got {epsilon!r}")
    if not isinstance(curve_points, (int, np.integer)) or curve_points < 2:
        raise ParameterError(
            f"curve_points must be an integer >= 2, got {curve_points!r}")
    seed = _seed(rng)

    k = spec.compositions
    if cfg is None:
        cfg = _auto_config(spec, k, samples_n, bins)
    t = cfg.resolved_t()
    composed: dict[LossDirection, DiscretePRV] = {}
    bounds: dict[LossDirection, ErrorBounds] = {}
    for direction, one in _discretize_directions(spec, cfg).items():
        full = compose([(one, k)])
        composed[direction] = full

        lo, hi = loss_range(spec, direction)
        if lo >= -cfg.trunc_L and hi <= cfg.trunc_L:
            tail_single = 0.0
        else:
            tail_single = float(one.tail_upper)
        y = full.support()
        grid_tail = float(full.probs[np.abs(y) >= cfg.trunc_L - t].sum())
        tail_sum = min(1.0, grid_tail + k * tail_single)
        bounds[direction] = error_bounds(cfg, k, tail_single, tail_sum)

    eta = max(b.eta for b in bounds.values())
    tau = max(b.tau for b in bounds.values())

    if delta is not None:
        eps_est = max(prv.epsilon_at(delta) for prv in composed.values())
        delta_est = float(delta)
    else:
        eps_est = float(epsilon)
        delta_est = max(float(prv.delta_at(epsilon)) for prv in composed.values())

    eps_grid = np.linspace(0.0, cfg.trunc_L, curve_points)
    delta_grid = np.maximum.reduce([np.asarray(prv.delta_at(eps_grid))
                                    for prv in composed.values()])
    delta_grid = np.minimum.accumulate(delta_grid)  # iron out last-ulp wobble
    curve = PrivacyCurve(epsilon=eps_grid, delta=delta_grid, eta=eta, tau=tau,
                         config=cfg.to_dict(), mechanism=spec.to_dict())

    return AccountResult(
        epsilon=eps_est, delta=delta_est,
        epsilon_conservative=eps_est + tau,
        delta_conservative=min(1.0, delta_est + eta),
        eta=eta, tau=tau, curve=curve, config=cfg, composed=composed,
        seed=seed)


# ---------------------------------------------------------------------------
# Step ledger (composition counts that grow one mechanism at a time)
# ---------------------------------------------------------------------------


class CompositionLedger:
    """Cheap ``epsilon(k)`` over many composition counts of one mechanism.

    Discretizes the one-step loss once, as `account` does, and answers each
    ``k`` with `compose` (the single's rFFT is cached on it); the spec's
    ``compositions`` is not read.  The auto window is sized for ``k_cap``, so
    ``composed(k_cap)`` is `account`'s result at ``k_cap`` compositions and
    the same sizes.  ``rng`` is validated as in `account` and otherwise
    unused, and ``samples_n`` changes no result: it only lands in
    ``cfg.samples_n``.  Built for training loops that need "how many more
    steps fit in the budget" (`max_steps`), which searches on two grids.
    ``evaluations`` lists every probe `max_steps` made, in the order made,
    as ``(k, epsilon, cells)`` with the cell count of the probe's grid.
    """

    def __init__(self, spec: MechanismSpec, cfg: AccountantConfig | None = None,
                 rng=None, k_cap: int = 4096,
                 samples_n: int = 400_000, bins: int = 2 ** 16):
        if (not isinstance(k_cap, (int, np.integer)) or isinstance(k_cap, bool)
                or k_cap < 1):
            raise ParameterError(
                f"k_cap must be an integer >= 1, got {k_cap!r}")
        _seed(rng)
        self.spec = spec
        self.k_cap = int(k_cap)
        if cfg is None:
            cfg = _auto_config(spec, self.k_cap, samples_n, bins)
        self.cfg = cfg
        self._singles = _discretize_directions(spec, cfg)
        self._coarse_singles: dict[LossDirection, DiscretePRV] | None = None
        self._eps_cache: dict[tuple[int, float], float] = {}
        self.evaluations: list[tuple[int, float, int]] = []

    def composed(self, k: int) -> dict[LossDirection, DiscretePRV]:
        if not 1 <= k <= self.k_cap:
            raise ParameterError(f"k must lie in [1, {self.k_cap}], got {k}")
        return {direction: compose([(one, k)])
                for direction, one in self._singles.items()}

    def epsilon_at(self, k: int, delta: float) -> float:
        key = (int(k), float(delta))
        if key not in self._eps_cache:
            self._eps_cache[key] = max(prv.epsilon_at(delta)
                                       for prv in self.composed(k).values())
        return self._eps_cache[key]

    def max_steps(self, epsilon: float, delta: float) -> int:
        """Largest k <= k_cap with epsilon(k) <= epsilon on the ledger's grid,
        up to where that grid shows epsilon(k) <= epsilon < epsilon(k + 1).

        The ledger's grid prices k = 1 (`BudgetExhaustedError` when it is
        over budget) and k_cap.  Between them a grid of 2^12 cells over the
        same window bisects in k, and its answer is the first guess on the
        ledger's grid, which then takes regula falsi steps until it brackets
        the budget itself (`_last_within`).  Only the ledger's grid decides.
        A ledger of at most 2^12 cells searches alone.  Every probe lands in
        ``evaluations``.
        """
        def recorded(epsilon_of, cells: int) -> Callable[[int], float]:
            def probe(k: int) -> float:
                eps = epsilon_of(k)
                self.evaluations.append((k, eps, cells))
                return eps
            return probe

        fine = recorded(lambda k: self.epsilon_at(k, delta), self.cfg.bins)
        first = fine(1)
        if first > epsilon:
            raise BudgetExhaustedError(
                f"a single step already costs epsilon = {first:.4f} at "
                f"delta = {delta:g}, over the budget {epsilon:g}")
        if self.k_cap == 1:
            return 1
        last = fine(self.k_cap)
        if last <= epsilon:
            return self.k_cap
        guess = None
        coarse_cfg = AccountantConfig(self.cfg.trunc_L, _COARSE_BINS,
                                      self.cfg.samples_n)
        if coarse_cfg.bins < self.cfg.bins:
            if self._coarse_singles is None:
                self._coarse_singles = _discretize_directions(self.spec,
                                                              coarse_cfg)
            coarse = recorded(lambda k: max(
                compose([(one, k)]).epsilon_at(delta)
                for one in self._coarse_singles.values()), coarse_cfg.bins)
            lo, hi = 1, self.k_cap
            while hi - lo > 1:
                mid = (lo + hi) // 2
                if coarse(mid) <= epsilon:
                    lo = mid
                else:
                    hi = mid
            guess = lo
        return _last_within(fine, (1, first), (self.k_cap, last), epsilon,
                            guess)


def _last_within(probe: Callable[[int], float], low: tuple[int, float],
                 high: tuple[int, float], target: float,
                 guess: int | None) -> int:
    """The k with ``probe(k) <= target < probe(k + 1)``, from a bracket
    ``low = (lo, probe(lo))`` at most and ``high = (hi, probe(hi))`` over
    ``target``, with ``lo < hi``.

    Probes ``guess`` first unless it is None.  Each later k is the floor of
    where the chord between the bracket's ends, log epsilon against log k,
    meets ``target`` (Illinois regula falsi: an end kept twice has its gap
    halved), moved inside the bracket; so once a probe lands next to the
    answer, the chord's next k usually closes the bracket.  Three steps that
    together do not halve the bracket, or a chord from epsilon = 0, bisect.
    """
    def gap(eps: float) -> float:
        return math.log(eps / target) if eps > 0.0 else -math.inf

    (lo, eps_lo), (hi, eps_hi) = low, high
    f_lo, f_hi = gap(eps_lo), gap(eps_hi)
    kept = 0  # the end the last step kept: -1 lo, +1 hi
    widths = [hi - lo]
    k = guess
    while hi - lo > 1:
        if k is None:
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
        k = None
    return lo
