"""Accountant: grids, discretization, composition, delta/epsilon queries."""

from __future__ import annotations

import json
import math
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest
from scipy import optimize, stats

from ggprivacy import (
    AccountantConfig,
    BudgetExhaustedError,
    CompositionLedger,
    ConfigError,
    DiscretePRV,
    GGParams,
    GridMismatchError,
    LossDirection,
    MechanismSpec,
    ParameterError,
    PrivacyCurve,
    RangeError,
    TruncationError,
    account,
    compose,
    derive_rng,
    discretize_from_cdf,
    discretize_from_samples,
    error_bounds,
)
from ggprivacy import accountant
from ggprivacy.accountant import DEFAULT_BINS, DEFAULT_SAMPLES
from ggprivacy.prv import laplace_prv_cdf
from oracles import convolve_direct, gaussian_prv_cdf

GAUSS = MechanismSpec(GGParams(2.0, math.sqrt(2.0)), 1.0)   # loss ~ N(1/2, 1)


def gauss_delta(eps: float, s: float = 1.0, sens: float = 1.0) -> float:
    """Closed-form delta(eps) of the Gaussian mechanism with noise std s."""
    a = sens / (2.0 * s)
    b = eps * s / sens
    return float(stats.norm.cdf(a - b) - math.exp(eps) * stats.norm.cdf(-a - b))


def gauss_epsilon(delta: float, s: float = 1.0, sens: float = 1.0) -> float:
    return float(optimize.brentq(lambda e: gauss_delta(e, s, sens) - delta,
                                 0.0, 60.0, xtol=1e-12))


# -- seed derivation -----------------------------------------------------------

def test_derive_rng_is_deterministic_and_context_sensitive():
    a = derive_rng(11, "ctx").random(4)
    b = derive_rng(11, "ctx").random(4)
    c = derive_rng(11, "other").random(4)
    d = derive_rng(12, "ctx").random(4)
    npt.assert_array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


# -- config --------------------------------------------------------------------

def test_config_grid_alignment_enforced():
    cfg = AccountantConfig(10.0, 2 ** 10)  # 1025 cells round up to 3 * 7^3
    m = cfg.half_bins
    assert m == 514
    assert (m + 0.5) * cfg.mesh_h == pytest.approx(10.0, rel=1e-12)
    # A grid is (L, cells): the sampled estimator's sizes are not its fields.
    with pytest.raises(TypeError, match="samples_n"):
        AccountantConfig(10.0, 2 ** 10, samples_n=10 ** 6)
    with pytest.raises(ConfigError):
        AccountantConfig(10.0, bins=1)


def _fast_length(cells: int) -> bool:
    for p in (3, 5, 7):
        while cells % p == 0:
            cells //= p
    return cells == 1


def test_config_rounds_cells_up_to_a_fast_fft_length():
    for bins in range(2, 5001):
        requested = 2 * (bins // 2) + 1
        cfg = AccountantConfig(1.0, bins)
        cells = cfg.bins
        assert cells % 2 == 1 and _fast_length(cells) and cells >= requested
        assert cells == next(c for c in range(requested, cells + 1, 2)
                             if _fast_length(c))
        assert 2 * cfg.half_bins + 1 == cells
        assert AccountantConfig(1.0, cells) == cfg
    for bins, cells in ((2 ** 12, 4375), (2 ** 16, 65625), (2 ** 19, 3 ** 12)):
        cfg = AccountantConfig(7.0, bins)
        assert cfg.to_dict()["cells"] == cells == cfg.bins
        assert cfg.mesh_h == 14.0 / cells


def test_config_cell_cap_applies_to_the_rounded_grid():
    # 2**26 - 1 requested cells fit under the cap; their fast length does not.
    with pytest.raises(ConfigError, match=r"67108863 cells.* 67528125"):
        AccountantConfig(1.0, 2 ** 26 - 2)
    assert AccountantConfig(1.0, 66_430_125).bins == 66_430_125


def test_error_bounds_resolves_free_parameters():
    cfg = AccountantConfig(30.0, 2 ** 15)
    auto = error_bounds(cfg, 4, 0.0, 0.0, 10 ** 6)
    assert auto.hoeffding_s == pytest.approx(10.0 * cfg.mesh_h * 2.0, rel=1e-15)
    assert auto.sampling_t == pytest.approx(0.3, rel=1e-15)
    explicit = error_bounds(cfg, 4, 0.0, 0.0, 10 ** 6, hoeffding_s=0.1,
                            sampling_t=0.2)
    assert (explicit.hoeffding_s, explicit.sampling_t) == (0.1, 0.2)
    for n in (9_999, 1e6, True):
        with pytest.raises(ParameterError, match="samples_n"):
            error_bounds(cfg, 4, 0.0, 0.0, n)
    for free in (dict(hoeffding_s=0.0), dict(hoeffding_s=math.nan),
                 dict(sampling_t=-0.2), dict(sampling_t=math.inf),
                 dict(sampling_t=True)):
        with pytest.raises(ParameterError, match=next(iter(free))):
            error_bounds(cfg, 4, 0.0, 0.0, 10 ** 6, **free)
    with pytest.raises(ParameterError, match="compositions"):
        error_bounds(cfg, 2.5, 0.0, 0.0, 10 ** 6)


# -- DiscretePRV ---------------------------------------------------------------

def hand_prv(probs, mesh_h=1.0, offset=0.0) -> DiscretePRV:
    return DiscretePRV(probs=np.asarray(probs, dtype=np.float64),
                       mesh_h=mesh_h, offset=offset)


def within_ulps(expected: float, ulps: int = 8):
    return pytest.approx(expected, rel=0.0, abs=ulps * math.ulp(expected))


@pytest.mark.parametrize("bad", [
    dict(probs=[0.5, 0.5]),                      # even length
    dict(probs=[0.2, 0.2, 0.2]),                 # mass 0.6
    dict(probs=[0.5, 0.6, -0.1]),                # negative
    dict(probs=[0.5, 0.5 + 2e-12, -2e-12]),      # below the -1e-12 allowed
    dict(probs=[0.5, np.nan, 0.5]),
    dict(probs=[0.5, np.inf, 0.5]),
    dict(probs=[0.2, 0.5, 0.3], mesh_h=0.0),
    dict(probs=[0.2, 0.5, 0.3], offset=-0.1),
])
def test_prv_validation(bad):
    kwargs = dict(probs=None, mesh_h=1.0, offset=0.0)
    kwargs.update(bad)
    kwargs["probs"] = np.asarray(kwargs["probs"], dtype=np.float64)
    with pytest.raises(ParameterError):
        DiscretePRV(**kwargs)


def test_prv_probs_are_read_only():
    prv = hand_prv([0.2, 0.5, 0.3])
    with pytest.raises(ValueError):
        prv.probs[0] = 1.0


def test_delta_at_hand_grid():
    # Support [-1, 0, 1] with masses [0.2, 0.5, 0.3]: only y = 1 is above
    # any eps >= 0, so delta(eps) = 0.3 * (1 - e^{eps - 1}) until it hits 0.
    prv = hand_prv([0.2, 0.5, 0.3])
    for eps in (0.0, 0.25, 0.5, 0.99):
        expected = 0.3 * (1.0 - math.exp(eps - 1.0))
        assert prv.delta_at(eps) == pytest.approx(expected, rel=1e-12)
    assert prv.delta_at(1.0) == 0.0
    assert prv.delta_at(5.0) == 0.0
    with pytest.raises(ParameterError):
        prv.delta_at(-0.1)


def test_delta_at_respects_offset():
    prv = hand_prv([0.2, 0.5, 0.3], offset=0.25)
    # Support [-0.75, 0.25, 1.25].
    expected = 0.5 * (1.0 - math.exp(-0.25)) + 0.3 * (1.0 - math.exp(-1.25))
    assert prv.delta_at(0.0) == pytest.approx(expected, rel=1e-12)


def test_delta_at_on_wide_supports_and_large_epsilon():
    # Support [-800, -400, 0, 400, 800]: exp(-y) underflows at y = 800 and
    # exp(eps) overflows past eps ~ 709, so both query paths must run in
    # log space.  Make numpy raise instead of warn to catch regressions.
    prv = hand_prv([0.1, 0.2, 0.4, 0.2, 0.1], mesh_h=400.0)
    with np.errstate(over="raise", invalid="raise"):
        assert prv.delta_at(0.0) == pytest.approx(0.3, rel=1e-12)
        expected = 0.1 * (1.0 - math.exp(-50.0))
        assert prv.delta_at(750.0) == pytest.approx(expected, rel=1e-12)
        assert prv.delta_at(10_000.0) == 0.0
        # delta(eps) = 0.1 (1 - e^{eps-800}) on (400, 800), so delta = 0.05
        # lands at eps = 800 - ln 2, beyond the naive exp(eps) range.
        assert prv.epsilon_at(0.05) == within_ulps(800.0 - math.log(2.0))


def test_epsilon_at_inverts_delta_at():
    for probs, eps, target in (
            ([0.2, 0.5, 0.3], 0.5, 0.3 * (1.0 - math.exp(-0.5))),
            # Support [-2..2]: the answer lies on the segment (1, 2].
            ([0.1, 0.1, 0.3, 0.3, 0.2], 0.3,
             0.3 * (1.0 - math.exp(-0.7)) + 0.2 * (1.0 - math.exp(-1.7)))):
        prv = hand_prv(probs)
        got = prv.epsilon_at(target)
        assert got == within_ulps(eps)
        assert prv.delta_at(got) <= target
    prv = hand_prv([0.2, 0.5, 0.3])
    assert prv.epsilon_at(0.25) == 0.0       # already above delta(0)
    eps = prv.epsilon_at(1e-12)
    assert prv.delta_at(eps) <= 1e-12
    for bad in (0.0, -0.1, 1.5):
        with pytest.raises(RangeError):
            prv.epsilon_at(bad)


def test_epsilon_at_steps_past_rounding_plateaus():
    # With all positive mass near 1e-300 at a 1e-6 mesh, delta_at rounds
    # eps + LS2 to the ulp of LS2 ~ -690, about 1e9 ulps of eps: a safe-side
    # step of one ulp at a time would not finish.
    prv = hand_prv([0.5, 0.5, 0.0, 1e-300, 1e-300], mesh_h=1e-6)
    top, bottom = prv.delta_at(0.0), prv.delta_at(1e-6)
    for t in np.linspace(0.01, 0.99, 30):
        target = float(bottom + t * (top - bottom))
        eps = prv.epsilon_at(target)
        assert 0.0 < eps <= 1e-6 and prv.delta_at(eps) <= target


def test_delta_vanishes_at_the_top_of_the_support(rng):
    # epsilon_at's segment lookup needs no other upper bracket: no grid
    # mass lies above the top cell, fresh or composed.
    for _ in range(60):
        size = 2 * int(rng.integers(1, 40)) + 1
        probs = rng.random(size) ** 4
        mesh_h = float(rng.uniform(0.01, 3.0))
        prv = DiscretePRV(probs=probs / probs.sum(), mesh_h=mesh_h,
                          offset=float(rng.uniform(0.0, mesh_h / 2.0)))
        for item in (prv, compose([(prv, int(rng.integers(2, 50)))])):
            top = float(item.support()[-1])
            assert item.delta_at(top) == 0.0
            eps = item.epsilon_at(1e-300)
            assert 0.0 <= eps <= top and item.delta_at(eps) <= 1e-300


def log_form_tables(prv: DiscretePRV):
    """The positive support, S1 and LS2[i] = log sum_{j >= i} p_j exp(-y_j):
    the log-form suffix table that `DiscretePRV` used before its scaled
    suffix sums, with one exp and one log1p per cell; kept as their oracle."""
    y = prv.support()
    j0 = int(np.searchsorted(y, 0.0, side="right"))
    ys, p = y[j0:], prv.probs[j0:]
    s1 = np.concatenate([np.cumsum(p[::-1])[::-1], [0.0]])
    with np.errstate(divide="ignore"):
        ls2 = np.logaddexp.accumulate((np.log(p) - ys)[::-1])[::-1]
    return ys, s1, np.concatenate([ls2, [-np.inf]])


def log_form_delta(prv: DiscretePRV, eps: np.ndarray) -> np.ndarray:
    ys, s1, ls2 = log_form_tables(prv)
    j = np.searchsorted(ys, eps, side="right")
    return np.clip(s1[j] - np.exp(eps + ls2[j]), 0.0, 1.0)


def log_form_epsilon(prv: DiscretePRV, delta: float) -> float:
    """The log form's closed-form root on the first segment whose end has
    delta(y_i) <= delta."""
    if log_form_delta(prv, np.array([0.0]))[0] <= delta:
        return 0.0
    ys, s1, ls2 = log_form_tables(prv)
    i = int(np.argmax(s1[1:] - np.exp(ys + ls2[1:]) <= delta))
    lo = float(ys[i - 1]) if i else 0.0
    return min(max(math.log(s1[i] - delta) - float(ls2[i]), lo), float(ys[i]))


def _train_ledger() -> CompositionLedger:
    """The ledger of the benchmark's train workload at beta = 2: 65 625
    cells, k_cap 400, Poisson rate 200 / 4000."""
    return CompositionLedger(MechanismSpec(GGParams(2.0, 1.0), 1.0, 0.05, 1),
                             k_cap=400, bins=2 ** 16)


@pytest.fixture(scope="module")
def train_ledger():
    return _train_ledger()


def _oracle_grids(name: str, train_ledger) -> list[DiscretePRV]:
    if name == "train":
        return list(train_ledger.composed(110).values())
    if name == "hand":
        return [hand_prv([0.1, 0.1, 0.3, 0.3, 0.2]),
                hand_prv([0.2, 0.5, 0.3], offset=0.25)]
    # Support up to 1000 at h = 0.5: 2000 positive cells in blocks of 64.
    probs = np.random.default_rng(8).random(4001) ** 4
    return [hand_prv(probs / probs.sum(), mesh_h=0.5, offset=0.125)]


@pytest.mark.parametrize("name", ["train", "hand", "wide"])
def test_suffix_tables_match_the_log_form(name, train_ledger):
    for prv in _oracle_grids(name, train_ledger):
        top = float(prv.support()[-1])
        eps = np.linspace(0.0, top, 1001)
        with np.errstate(over="raise", invalid="raise"):
            got = prv.delta_at(eps)
        want = log_form_delta(prv, eps)
        # At the top of the grid, delta = S1 - exp(eps - y) T cancels to
        # 1e-20 and below, in both forms: a 1e-30 floor covers those cells.
        npt.assert_allclose(got, want, rtol=1e-12, atol=1e-30)
        d0 = float(prv.delta_at(0.0))
        for delta in np.geomspace(1e-12 * d0, 0.5 * d0, 25):
            got = prv.epsilon_at(float(delta))
            assert got == pytest.approx(log_form_epsilon(prv, float(delta)),
                                        rel=1e-12)
            assert prv.delta_at(got) <= delta


@pytest.mark.parametrize("shift", [0.0, 0.3, 1.0, 2.7, 1e4])
def test_positive_tables_read_the_positive_support(shift):
    # The tables start at the first support point above 0 and end in +inf,
    # at any offset: bitwise the points of `support()` and their masses.
    probs = np.random.default_rng(10).random(201)
    prv = hand_prv(probs / probs.sum(), mesh_h=0.25, offset=0.25 * shift)
    ys, s1, _, _ = prv._positive_tables()
    y = prv.support()
    assert ys[:-1].tobytes() == y[y > 0.0].tobytes() and ys[-1] == np.inf
    assert s1[0] == pytest.approx(prv.probs[y > 0.0].sum(), rel=1e-14)


def test_suffix_tables_span_blocks_past_exp_range():
    # Blocks of one cell at h = 400 and of 64 cells at h = 0.5, with y past
    # 745 where exp(-y) underflows: the carried sums stay exact there.
    rng = np.random.default_rng(9)
    for h, cells in ((400.0, 9), (0.5, 4001)):
        probs = rng.random(cells) ** 2
        prv = hand_prv(probs / probs.sum(), mesh_h=h)
        ys, _, t, _ = prv._positive_tables()
        p = prv.probs[prv.half_bins + 1:]
        want = np.zeros(p.size + 1)
        for i in range(p.size - 1, -1, -1):
            want[i] = p[i] + math.exp(-h) * want[i + 1]
        assert ys[-2] > 745.0 and ys[-1] == np.inf
        npt.assert_allclose(t, want, rtol=1e-13, atol=0.0)


# -- discretization ------------------------------------------------------------

@pytest.mark.parametrize("m", [0, 1, 2047, 32812])
def test_index_mean_is_the_grid_mean(m):
    # The grid mean sum_j j q_j, taken without BLAS, within rounding of the
    # exactly rounded sum.
    from ggprivacy.accountant import _index_mean
    q = np.random.default_rng(m).random(2 * m + 1)
    q /= q.sum()
    j = np.arange(-m, m + 1, dtype=np.float64)
    exact = math.fsum(j * q)
    assert _index_mean(q) == pytest.approx(exact, rel=1e-12,
                                           abs=1e-15 * (m + 1))


def test_discretize_from_samples_normal_oracle():
    cfg = AccountantConfig(12.0, 2 ** 12)
    prv = discretize_from_samples(lambda r, c: r.normal(0.5, 1.0, c), cfg,
                                  derive_rng(1, "disc"), 20_000)
    assert prv.probs.sum() == pytest.approx(1.0, abs=1e-12)
    assert 0.0 <= prv.offset <= cfg.mesh_h / 2.0
    assert prv.acceptance == 1.0
    assert prv.tail_upper is not None and prv.tail_upper < 1e-3
    mean = float(prv.support() @ prv.probs)
    assert mean == pytest.approx(0.5, abs=0.05)
    assert prv.delta_at(1.0) == pytest.approx(gauss_delta(1.0), abs=0.02)


def test_discretize_from_samples_is_deterministic():
    cfg = AccountantConfig(8.0, 2 ** 10)
    a = discretize_from_samples(lambda r, c: r.normal(0.5, 1.0, c), cfg,
                                derive_rng(2, "disc"), 15_000)
    b = discretize_from_samples(lambda r, c: r.normal(0.5, 1.0, c), cfg,
                                derive_rng(2, "disc"), 15_000)
    npt.assert_array_equal(a.probs, b.probs)
    assert a.offset == b.offset


def test_discretize_rejects_hopeless_truncation():
    cfg = AccountantConfig(0.05, 2 ** 3)
    with pytest.raises(TruncationError):
        discretize_from_samples(lambda r, c: r.normal(0.5, 1.0, c), cfg,
                                derive_rng(3, "disc"), 20_000)


@pytest.mark.parametrize("rng", [None, 3])
def test_discretize_from_samples_takes_only_a_generator(rng):
    cfg = AccountantConfig(8.0, 2 ** 10)
    with pytest.raises(ParameterError, match="rng"):
        discretize_from_samples(lambda r, c: r.normal(0.5, 1.0, c), cfg, rng,
                                15_000)


def test_discretize_from_cdf_gaussian():
    cfg = AccountantConfig(12.0, 2 ** 14)
    prv = discretize_from_cdf(lambda x: gaussian_prv_cdf(x, 1.0, 1.0), cfg)
    assert prv.probs.sum() == pytest.approx(1.0, abs=1e-9)
    for eps in (0.5, 1.0, 2.0):
        assert prv.delta_at(eps) == pytest.approx(gauss_delta(eps), abs=1e-3)
    mean = float(prv.support() @ prv.probs)
    assert mean == pytest.approx(0.5, abs=1e-3)


def test_discretize_from_cdf_laplace_atoms():
    cfg = AccountantConfig(2.0, 2 ** 12)
    prv = discretize_from_cdf(lambda x: laplace_prv_cdf(x, 1.0, 1.0), cfg)
    y = prv.support()
    # The endpoint atoms land in single cells.
    assert prv.probs[np.abs(y - 1.0) <= cfg.mesh_h].sum() > 0.45
    assert prv.probs[np.abs(y + 1.0) <= cfg.mesh_h].sum() > 0.9 * 0.5 * math.exp(-1.0)
    # Pure DP: nothing above the loss range.
    assert prv.delta_at(1.0 + 2.0 * cfg.mesh_h) == 0.0
    assert prv.delta_at(0.0) == pytest.approx(1.0 - math.exp(-0.5), abs=5e-3)


@pytest.mark.parametrize("k", [1, 10])
@pytest.mark.parametrize("q", [None, 0.1])
@pytest.mark.parametrize("beta", [1.0, 1.5, 2.0, 3.0])
def test_sampled_and_cdf_discretizations_agree(beta, q, k):
    # The paper's sampled estimator and the exact CDF, binned on one grid:
    # the CDF's epsilon lies within the Monte-Carlo spread of one sampled
    # run (eight seeds at 50k draws; the spread covers the estimator's noise
    # and its upward bias from clamping a noisy offset at 0).
    from ggprivacy.accountant import _auto_config
    from ggprivacy.prv import directions_for, loss_cdf, sample_prv

    spec = MechanismSpec(GGParams(beta, 2.0), 1.0, q, k)
    cfg = _auto_config(spec, k, 2 ** 12)

    def epsilon(singles):
        return max(compose([(one, k)]).epsilon_at(1e-3) for one in singles)

    exact = epsilon(discretize_from_cdf(loss_cdf(spec, d), cfg)
                    for d in directions_for(spec))
    sampled = [epsilon(discretize_from_samples(
                   lambda r, c: sample_prv(spec, d, r, c), cfg,
                   derive_rng(seed, "cross-check", d.value), 50_000)
                   for d in directions_for(spec))
               for seed in range(8)]
    assert abs(exact - np.mean(sampled)) <= 4.0 * np.std(sampled, ddof=1)


@pytest.mark.parametrize("sigma,k,bins", [
    (math.sqrt(2.0), 1, 2 ** 16), (2.0, 10, 2 ** 16), (4.0, 100, 2 ** 16),
    (4.0, 100, 2 ** 19),   # the account benchmark's beta = 2 op: 20.67551
])
def test_account_gaussian_oracle(sigma, k, bins):
    # GG(2, sigma) is Gaussian with std sigma / sqrt(2); k releases compose
    # to one with std sigma / sqrt(2 k).
    spec = MechanismSpec(GGParams(2.0, sigma), 1.0, None, k)
    want = gauss_epsilon(1e-5, sigma / math.sqrt(2.0 * k))
    assert account(spec, delta=1e-5, bins=bins).epsilon == pytest.approx(
        want, abs=1e-4)


@pytest.mark.parametrize("q", [None, 1.0])
def test_account_laplace_matches_laplace_prv_cdf(q):
    spec = MechanismSpec(GGParams(1.0, 4.0), 1.0, q, 100)
    got = account(spec, delta=1e-5, bins=2 ** 14)
    one = discretize_from_cdf(lambda x: laplace_prv_cdf(x, 4.0, 1.0),
                              got.config)
    prv = got.composed[LossDirection.REMOVE]
    ref = compose([(one, 100)])
    npt.assert_allclose(prv.probs, ref.probs, rtol=0.0, atol=1e-9)
    assert prv.offset == pytest.approx(ref.offset, abs=1e-9)
    assert got.epsilon == pytest.approx(ref.epsilon_at(1e-5), abs=1e-9)


# -- composition ---------------------------------------------------------------

def test_compose_single_identity():
    prv = hand_prv([0.2, 0.5, 0.3])
    assert compose([(prv, 1)]) is prv


def test_compose_point_masses_and_offsets():
    size = 5
    a = np.zeros(size)
    a[3] = 1.0       # support index +1
    prv = DiscretePRV(probs=a, mesh_h=1.0, offset=0.25)
    two = compose([(prv, 2)])
    expected = np.zeros(size)
    expected[4] = 1.0  # +1 twice = +2
    npt.assert_allclose(two.probs, expected, atol=1e-12)
    assert two.offset == pytest.approx(0.5, rel=1e-12)
    assert two.compositions == 2


def test_compose_wraps_circularly():
    size = 5
    a = np.zeros(size)
    a[4] = 1.0       # support index +2 on a grid of halfwidth 2
    prv = DiscretePRV(probs=a, mesh_h=1.0)
    two = compose([(prv, 2)])
    # +2 + 2 = +4 = -1 (mod 5 cells): wraparound is charged to the
    # certificate, never redistributed.
    expected = np.zeros(size)
    expected[1] = 1.0
    npt.assert_allclose(two.probs, expected, atol=1e-12)


@pytest.mark.parametrize("k", [1, 2, 3, 7, 8, 100, 255, 4096, 10 ** 6 + 1])
def test_power_squares_in_place_bitwise(rng, k):
    # The in-place squaring takes the products of a fresh array per product,
    # in the same order, and leaves the base as it was.
    from ggprivacy.accountant import _power
    base = rng.normal(size=64) + 1j * rng.normal(size=64)
    base /= np.abs(base)
    kept = base.copy()
    want, square, j = None, base, k
    while True:
        if j & 1:
            want = square if want is None else want * square
        j >>= 1
        if not j:
            break
        square = square * square
    got = _power(base, k)
    assert got.tobytes() == want.tobytes()
    assert base.tobytes() == kept.tobytes()


def test_compose_grid_mismatch():
    a = hand_prv([0.2, 0.5, 0.3], mesh_h=1.0)
    b = hand_prv([0.2, 0.5, 0.3], mesh_h=0.5)
    c = hand_prv([0.1, 0.2, 0.4, 0.2, 0.1], mesh_h=1.0)
    with pytest.raises(GridMismatchError):
        compose([(a, 1), (b, 1)])
    with pytest.raises(GridMismatchError):
        compose([(a, 1), (c, 1)])
    with pytest.raises(ParameterError):
        compose([])
    with pytest.raises(ParameterError):
        compose([(a, 0)])


def test_compose_matches_direct_convolution(rng):
    m = 16
    size = 2 * m + 1
    pa = rng.random(size); pa /= pa.sum()
    pb = rng.random(size); pb /= pb.sum()
    a = DiscretePRV(probs=pa, mesh_h=0.25)
    b = DiscretePRV(probs=pb, mesh_h=0.25)
    fft = compose([(a, 2), (b, 1)])
    direct = convolve_direct(convolve_direct(a, a), b)
    tv = 0.5 * np.abs(fft.probs - direct.probs).sum()
    assert tv < 1e-12
    assert fft.offset == pytest.approx(direct.offset, rel=1e-12)


@pytest.mark.parametrize("k", [1, 2, 99, 100, 101])
def test_compose_power_matches_repeated_direct_convolution(rng, k):
    # numpy's complex power multiplies only below k = 100; compose squares.
    probs = np.zeros(121)
    probs[58:63] = rng.random(5)
    one = DiscretePRV(probs=probs / probs.sum(), mesh_h=0.5, offset=0.1)
    direct = one
    for _ in range(k - 1):
        direct = convolve_direct(direct, one)
    fft = compose([(one, k)])
    assert 0.5 * np.abs(fft.probs - direct.probs).sum() < 1e-12
    assert fft.offset == pytest.approx(direct.offset, rel=1e-12)
    assert fft.compositions == k


def test_compose_power_matches_numpy_power_at_large_k(rng):
    k = 4096
    probs = np.zeros(1029)
    probs[512:517] = rng.random(5)
    one = DiscretePRV(probs=probs / probs.sum(), mesh_h=0.5)
    want = np.fft.fftshift(np.fft.irfft(np.power(one._spectrum(), k),
                                        n=probs.size))
    want = np.maximum(want, 0.0)
    want /= want.sum()
    got = compose([(one, k)]).probs
    assert 0.5 * np.abs(got - want).sum() < 1e-12


@pytest.mark.filterwarnings("error")
def test_compose_clips_its_own_round_off_at_large_k():
    # At k = 1e5 the REMOVE direction's inverse FFT dips to about -1.5e-12,
    # below the -1e-12 that DiscretePRV accepts from callers; compose clips
    # its own round-off, and the callers' floor stays.
    from scipy import fft
    from ggprivacy.accountant import (_auto_config, _discretize_directions,
                                      _power)
    k = 100_000
    spec = MechanismSpec(GGParams(2.0, 0.001), 1.0, 1e-9, k)
    cfg = _auto_config(spec, k, 2 ** 10)
    one = _discretize_directions(spec, cfg)[LossDirection.REMOVE]
    raw = fft.irfft(_power(one._spectrum(), k), n=one.probs.size)
    assert raw.min() < -1e-12
    with pytest.raises(ParameterError, match="non-negative"):
        DiscretePRV(probs=np.fft.fftshift(raw), mesh_h=one.mesh_h)
    assert compose([(one, k)]).probs.min() == 0.0
    assert account(spec, delta=1e-5, bins=2 ** 10).epsilon == \
        pytest.approx(1.0e6, rel=0.01)


# -- certificate ---------------------------------------------------------------

def test_error_bounds_basic_shape():
    cfg = AccountantConfig(30.0, 2 ** 15)
    small = error_bounds(cfg, 1, 0.0, 1e-6, 10 ** 6)
    assert 0.0 < small.eta <= 1.0 and small.tau > 0.0
    # More tail mass can only worsen the certificate.
    worse = error_bounds(cfg, 1, 1e-3, 1e-2, 10 ** 6)
    assert worse.eta >= small.eta


@pytest.mark.parametrize("samples_n", [DEFAULT_SAMPLES, 10 ** 12])
def test_account_certificate_is_error_bounds_bitwise(samples_n):
    # On README's spec and grid, account's (eta, tau) is error_bounds called
    # with the same sample count, the singles' tails and the composed grid's
    # mass past L - t, t at its default 10 L / sqrt(n).
    from ggprivacy.accountant import _discretize_directions, _mass_beyond
    spec = MechanismSpec(GGParams(1.0, 4.0), 1.0, None, 100)
    got = account(spec, delta=1e-5, samples_n=samples_n)
    cfg = got.config
    t = 10.0 * cfg.trunc_L / math.sqrt(samples_n)
    (direction, one), = _discretize_directions(spec, cfg).items()
    tail_sum = min(1.0, _mass_beyond(got.composed[direction], cfg.trunc_L - t)
                   + 100 * one.tail_upper)
    want = error_bounds(cfg, 100, one.tail_upper, tail_sum, samples_n)
    assert (got.eta.hex(), got.tau.hex()) == (want.eta.hex(), want.tau.hex())


# -- privacy curve -------------------------------------------------------------

def test_privacy_curve_json_round_trip():
    curve = PrivacyCurve(epsilon=np.asarray([0.0, 1.0, 2.0]),
                         delta=np.asarray([0.5, 0.2, 0.1]),
                         config={"trunc_L": 2.0}, mechanism={"beta": 2.0})
    raw = json.loads(curve.to_json())
    assert set(raw) == {"epsilon", "delta", "config", "mechanism"}
    back = PrivacyCurve.from_json(curve.to_json())
    npt.assert_array_equal(back.epsilon, curve.epsilon)
    npt.assert_array_equal(back.delta, curve.delta)
    assert (back.config, back.mechanism) == (curve.config, curve.mechanism)


def test_privacy_curve_validation():
    with pytest.raises(ParameterError):
        PrivacyCurve(epsilon=np.asarray([0.0, 0.0, 1.0]),
                     delta=np.asarray([0.5, 0.2, 0.1]), config={},
                     mechanism={})
    with pytest.raises(ParameterError):
        PrivacyCurve(epsilon=np.asarray([0.0, 1.0]),
                     delta=np.asarray([1.5, 0.2]), config={}, mechanism={})


# -- account() -----------------------------------------------------------------

def test_account_requires_exactly_one_target():
    with pytest.raises(ParameterError):
        account(GAUSS)
    with pytest.raises(ParameterError):
        account(GAUSS, epsilon=1.0, delta=1e-5)
    with pytest.raises(ParameterError):
        account(GAUSS, epsilon=-1.0)


def test_an_epsilon_the_window_caps_raises():
    # beta = 2, sigma = 4, k = 100: the exact epsilon is 34.80 at delta =
    # 1e-16, 42.63 at 1e-25 and 52.90 at 1e-40.  The default grid read
    # 46.905 at 1e-16 (FFT round-off) and its top cell, 48.676, below; a
    # ledger at 2^16 bins read 41.26 at 1e-40.  Every delta below the floor
    # now raises, naming it, before any probe.
    from ggprivacy.accountant import _DELTA_FLOOR
    assert _DELTA_FLOOR == 1e-11
    spec = MechanismSpec(GGParams(2.0, 4.0), 1.0, None, 100)
    ledger = CompositionLedger(spec, k_cap=100, bins=DEFAULT_BINS)
    coarse = CompositionLedger(spec, k_cap=100)
    reads = (lambda d: account(spec, delta=d).epsilon,
             lambda d: ledger.epsilon_at(100, d),
             lambda d: coarse.epsilon_at(100, d),
             lambda d: coarse.max_steps(20.0, d))
    for read in reads:
        for delta in (9.9e-12, 1e-12, 1e-16, 1e-25, 1e-40, 0.0, -1.0,
                      math.nan):
            with pytest.raises(RangeError, match="at least 1e-11"):
                read(delta)
    assert coarse.evaluations == []
    # The Baseline table's delta = 1e-14 cells, off by up to 0.97 in epsilon.
    for sigma, k in ((90.0, 1000), (20.0, 100), (2.0, 1000)):
        with pytest.raises(RangeError, match="at least 1e-11"):
            account(MechanismSpec(GGParams(2.0, sigma), 1.0, None, k),
                    delta=1e-14)
    # At the floor the grid answers within 1e-4 of the closed form.
    exact = gauss_epsilon(_DELTA_FLOOR, 4.0 / math.sqrt(2.0 * 100))
    for read in reads[:3]:
        assert read(_DELTA_FLOOR) == pytest.approx(exact, abs=1e-4)
    # Above the floor the window still caps: at 2^13 bins the window sized
    # for k_cap = 30000 caps epsilon(k_cap) at delta = 1e-5.
    capped = CompositionLedger(MechanismSpec(GGParams(1.0, 1.0), 1.0, 0.25),
                               k_cap=30000, bins=2 ** 13)
    with pytest.raises(RangeError, match="the window of L = 1225.7"):
        capped.epsilon_at(30000, 1e-5)


def test_entry_points_take_no_window():
    # Every entry point sizes its own window; a config passed where one was
    # once accepted is a TypeError, not a window and not a seed.
    from ggprivacy import calibrate
    cfg = AccountantConfig(30.0, bins=2 ** 12)
    with pytest.raises(TypeError):
        account(GAUSS, cfg, delta=1e-5)
    with pytest.raises(TypeError):
        calibrate.solve_sigma(2.0, calibrate.PrivacyTarget(2.0, 1e-5), cfg)
    with pytest.raises(TypeError):
        calibrate.equivalent_family([2.0], calibrate.PrivacyTarget(2.0, 1e-5),
                                    cfg)
    with pytest.raises(TypeError):
        CompositionLedger(GAUSS, cfg)


@pytest.mark.parametrize("knob", [dict(rng=1), dict(samples_n=10 ** 6)],
                         ids=["rng", "samples_n"])
def test_ledger_and_family_take_no_seed_or_sample_count(knob):
    # Neither draws nor reports a certificate, so a seed or a sample count
    # could change nothing; each is a TypeError, not a knob ignored.
    from ggprivacy import calibrate
    with pytest.raises(TypeError):
        CompositionLedger(GAUSS, **knob)
    with pytest.raises(TypeError):
        calibrate.equivalent_family([2.0], calibrate.PrivacyTarget(2.0, 1e-5),
                                    **knob)


@pytest.mark.parametrize("q", [None, 0.1, 0.5, 1.0])
@pytest.mark.parametrize("sigma", [0.5, 2.0, 4.0])
def test_bounded_loss_leaves_no_mass_outside_the_window(sigma, q):
    # At beta = 1 the loss is bounded, and the auto window holds its whole
    # range: the single-shot mass outside it, which the certificate charges,
    # is exactly 0.  So account charges each single the mass its binning
    # left outside, with no separate case for a bounded range.
    from ggprivacy.accountant import _auto_config, _discretize_directions
    for k in (1, 10, 100):
        spec = MechanismSpec(GGParams(1.0, sigma), 1.0, q, k)
        cfg = _auto_config(spec, k, 2 ** 12)
        for one in _discretize_directions(spec, cfg).values():
            assert one.tail_upper == 0.0


@pytest.mark.parametrize("points", [1, 0, 2.5, True])
def test_account_checks_curve_points_before_sampling(points, monkeypatch):
    from ggprivacy import accountant

    def no_work(*args):
        raise AssertionError("discretized before checking curve_points")

    for name in ("_loss_moments", "loss_masses", "sample_prv"):
        monkeypatch.setattr(accountant, name, no_work)
    with pytest.raises(ParameterError, match="curve_points"):
        account(GAUSS, delta=1e-5, curve_points=points)


def test_accounting_draws_nothing(monkeypatch):
    # account, the ledger and calibration discretize the exact loss CDF: no
    # noise is drawn, and the seed, an int, a numpy integer or None,
    # changes nothing.
    from ggprivacy import accountant, calibrate, ggdist

    def no_draws(*args):
        raise AssertionError("the accountant drew noise")

    monkeypatch.setattr(ggdist, "sample", no_draws)
    monkeypatch.setattr(accountant, "sample_prv", no_draws)
    small = dict(samples_n=30_000, bins=2 ** 12)
    spec = MechanismSpec(GGParams(1.5, 2.0), 1.0, 0.1, 5)
    a, b, c = (account(spec, delta=1e-5, rng=seed, **small)
               for seed in (1, np.int64(2), None))
    assert a.epsilon.hex() == b.epsilon.hex() == c.epsilon.hex()
    CompositionLedger(spec, k_cap=5, bins=2 ** 12).max_steps(1.0, 1e-5)
    calibrate.solve_sigma(2.0, calibrate.PrivacyTarget(2.0, 1e-5), tolerance=0.2,
                          **small)


@pytest.mark.parametrize("rng", [np.random.default_rng(3), 2.0, "7", True])
def test_account_and_ledger_take_only_an_int_seed(rng):
    with pytest.raises(ParameterError, match="rng"):
        account(GAUSS, delta=1e-5, rng=rng)
    # The ledger draws nothing, so it takes no seed at all.
    with pytest.raises(TypeError, match="rng"):
        CompositionLedger(GAUSS, rng=rng)


def test_account_gaussian_close_to_analytic():
    result = account(GAUSS, delta=1e-5, samples_n=100_000, bins=2 ** 15)
    assert result.epsilon == pytest.approx(gauss_epsilon(1e-5), abs=0.12)
    assert result.delta == 1e-5
    assert 0.0 < result.eta <= 1.0
    # The reported curve is a valid non-increasing trade-off.
    assert np.all(np.diff(result.curve.delta) <= 0.0)


def test_account_is_deterministic_by_content():
    a = account(GAUSS, delta=1e-5, samples_n=30_000, bins=2 ** 12)
    b = account(GAUSS, delta=1e-5, samples_n=30_000, bins=2 ** 12)
    assert a.epsilon == b.epsilon
    npt.assert_array_equal(a.curve.delta, b.curve.delta)


def test_account_epsilon_target_mode():
    eps_star = gauss_epsilon(1e-5)
    result = account(GAUSS, epsilon=eps_star, samples_n=100_000, bins=2 ** 15)
    assert result.epsilon == eps_star
    assert result.delta == pytest.approx(1e-5, abs=3e-5)


@pytest.mark.parametrize("q", [None, 0.1])
def test_account_depends_on_the_spec_only_through_its_loss_key(q):
    # GG(1.5, 2) at sensitivity 1 and GG(1.5, 0.5) at 0.25 share the loss
    # key (1.5, 0.5, q): one accounting, bit for bit, also on the ledger.
    small = dict(samples_n=30_000, bins=2 ** 12)
    specs = [MechanismSpec(GGParams(1.5, sigma), sens, q, 10)
             for sigma, sens in ((2.0, 1.0), (0.5, 0.25))]
    assert specs[0].loss_key == specs[1].loss_key == (1.5, 0.5, q)
    a, b = (account(spec, delta=1e-5, rng=3, **small) for spec in specs)
    assert a.epsilon.hex() == b.epsilon.hex()
    assert (a.eta, a.tau, a.config) == (b.eta, b.tau, b.config)
    ledgers = [CompositionLedger(spec, k_cap=10, bins=2 ** 12).composed(10)
               for spec in specs]
    for direction, prv in a.composed.items():
        for got in (b.composed[direction], *(led[direction] for led in ledgers)):
            assert got.probs.tobytes() == prv.probs.tobytes()
            assert got.offset.hex() == prv.offset.hex()


def test_account_at_rate_one_is_the_plain_account():
    small = dict(samples_n=30_000, bins=2 ** 12)
    plain, full = (account(MechanismSpec(GGParams(2.0, 2.0), 1.0, q, 5),
                           delta=1e-5, rng=1, **small) for q in (None, 1.0))
    assert full.epsilon.hex() == plain.epsilon.hex()
    assert full.config == plain.config


def test_account_subsampled_uses_both_directions():
    spec = MechanismSpec(GGParams(2.0, math.sqrt(2.0)), 1.0, 0.2)
    result = account(spec, delta=1e-5, samples_n=30_000, bins=2 ** 12)
    assert set(result.composed) == {LossDirection.REMOVE, LossDirection.ADD}
    assert result.epsilon == max(prv.epsilon_at(1e-5)
                                 for prv in result.composed.values())


# -- ledger ---------------------------------------------------------------------

@pytest.fixture(scope="module")
def ledger():
    spec = MechanismSpec(GGParams(2.0, 3.0 * math.sqrt(2.0)), 1.0)
    return CompositionLedger(spec, k_cap=32, bins=2 ** 12)


def test_ledger_epsilon_grows_with_steps(ledger):
    eps = [ledger.epsilon_at(k, 1e-5) for k in (1, 2, 4, 8, 16)]
    assert all(b > a for a, b in zip(eps, eps[1:]))


def test_ledger_max_steps_brackets_target(ledger):
    target = ledger.epsilon_at(8, 1e-5)
    assert ledger.max_steps(target, 1e-5) == 8
    assert ledger.max_steps(10 ** 6, 1e-5) == ledger.k_cap
    with pytest.raises(ParameterError):
        ledger.epsilon_at(33, 1e-5)


@pytest.mark.parametrize("spec,bins", [
    (MechanismSpec(GGParams(2.0, 3.0 * math.sqrt(2.0)), 1.0), 2 ** 12),
    (MechanismSpec(GGParams(2.0, 3.0 * math.sqrt(2.0)), 1.0), 2 ** 13),
    (MechanismSpec(GGParams(1.5, 1.0), 1.0, 0.05), 2 ** 13),
], ids=["4096", "8192", "beta1.5-q0.05-8192"])
def test_ledger_max_steps_matches_an_exhaustive_scan(spec, bins):
    ledger = CompositionLedger(spec, k_cap=32, bins=bins)
    eps = [ledger.epsilon_at(k, 1e-5) for k in range(1, 33)]
    assert all(b > a for a, b in zip(eps, eps[1:]))
    targets = eps + [0.5 * (a + b) for a, b in zip(eps, eps[1:])] + [
        eps[-1] + 1.0, 10 ** 6]
    for target in targets:
        scan = max(k for k in range(1, 33) if eps[k - 1] <= target)
        assert ledger.max_steps(target, 1e-5) == scan
    assert ledger.max_steps(eps[0], 1e-5) == 1
    assert ledger.max_steps(eps[-1], 1e-5) == ledger.k_cap
    with pytest.raises(BudgetExhaustedError, match="single step"):
        ledger.max_steps(math.nextafter(eps[0], 0.0), 1e-5)
    for k, got in ledger.evaluations:
        assert got == eps[k - 1]


def test_ledger_max_steps_confirms_on_its_own_grid(train_ledger):
    ledger = train_ledger
    before = len(ledger.evaluations)
    assert ledger.max_steps(8.0, 1e-5) == 110
    probes = ledger.evaluations[before:]
    assert [k for k, _ in probes[:2]] == [1, ledger.k_cap]
    assert len(probes) <= 7
    # Every probe is the ledger grid's own epsilon, and the last two are
    # its bracket of the budget.
    for k, eps in probes:
        assert eps == ledger.epsilon_at(k, 1e-5)
    (k_in, eps_in), (k_out, eps_out) = sorted(probes[-2:])
    assert (k_in, k_out) == (110, 111) and eps_in <= 8.0 < eps_out


def test_ledger_max_steps_counts_a_capped_probe_as_over_budget():
    # At 2^13 bins the window sized for k_cap = 30000 (L = 1225.7) caps
    # epsilon(k_cap) at delta = 1e-5.  max_steps reads that probe as the
    # lowest epsilon it can stand for, L - 1.5 h, over the budget; a budget
    # at or above that point cannot be decided and raises.
    spec = MechanismSpec(GGParams(1.0, 1.0), 1.0, 0.25)
    ledger = CompositionLedger(spec, k_cap=30000, bins=2 ** 13)
    with pytest.raises(RangeError):
        ledger.epsilon_at(30000, 1e-5)
    floor = (ledger.cfg.half_bins - 1) * ledger.cfg.mesh_h
    assert ledger.max_steps(1.0, 1e-5) == 3
    assert ledger.evaluations[1] == (30000, floor)
    with pytest.raises(RangeError):
        ledger.max_steps(floor, 1e-5)


@pytest.mark.parametrize("curve", [
    lambda k: math.sqrt(k), lambda k: float(k), lambda k: math.exp(k / 500.0),
    lambda k: 0.0 if k < 900 else 1.0 + k,     # epsilon = 0, then a jump
    lambda k: float(k > 3000) + 1e-3 * k,      # flat, then a jump
], ids=["sqrt", "linear", "exp", "zero-then-jump", "flat-then-jump"])
def test_last_within_brackets_any_increasing_curve(curve):
    from ggprivacy.accountant import _last_within
    hi = 4096
    for answer in (1, 2, 17, 900, 2048, 3999, hi - 1):
        target = curve(answer) if curve(answer + 1) > curve(answer) else None
        if target is None:
            continue
        seen = []

        def probe(k):
            seen.append(k)
            return curve(k)

        got = _last_within(probe, (1, curve(1)), (hi, curve(hi)), target)
        assert curve(got) <= target < curve(got + 1) and got == answer
        assert len(seen) == len(set(seen)) <= 4 * math.log2(hi)


@pytest.mark.parametrize("k_cap", [0, -3, 2.7, 4.0, "8", True, None])
def test_ledger_validates_k_cap(k_cap):
    with pytest.raises(ParameterError, match="k_cap"):
        CompositionLedger(GAUSS, k_cap=k_cap)


def test_ledger_refuses_a_nan_budget(ledger):
    # NaN compares false with every epsilon, so it passed the single-step
    # check and budgeted one step; it is refused before any probe.
    before = len(ledger.evaluations)
    with pytest.raises(ParameterError, match="^epsilon must be a number"):
        ledger.max_steps(float("nan"), 1e-5)
    assert len(ledger.evaluations) == before


def test_ledger_budget_exhausted():
    spec = MechanismSpec(GGParams(2.0, 0.5), 1.0)
    tiny = CompositionLedger(spec, k_cap=4, bins=2 ** 12)
    with pytest.raises(BudgetExhaustedError, match="single step"):
        tiny.max_steps(0.5, 1e-5)


def test_ledger_shares_account_discretization():
    # The ledger and account discretize and compose through one path, and a
    # ledger capped at k sizes its window for k, so at one size they produce
    # the same composed PRVs bit for bit.
    noise = GGParams(1.5, 2.0)
    k = 7
    ledger = CompositionLedger(MechanismSpec(noise, 1.0, 0.05, 1), k_cap=k,
                               bins=2 ** 12)
    direct = account(MechanismSpec(noise, 1.0, 0.05, k), rng=4, delta=1e-5,
                     samples_n=30_000, bins=2 ** 12).composed
    got = ledger.composed(k)
    assert set(got) == set(direct) == {LossDirection.REMOVE, LossDirection.ADD}
    for direction, prv in got.items():
        assert prv.probs.tobytes() == direct[direction].probs.tobytes()
        assert prv.offset.hex() == direct[direction].offset.hex()


# -- frozen random streams -----------------------------------------------------

# Results recorded on small grids.  The discretization is exact and
# deterministic; rel=1e-9 absorbs platform ulps (FFT, special functions) but
# not a change of the window, the grid or the loss CDF.  A change that moves
# them on purpose updates these values.
FROZEN_ACCOUNT = {  # (beta, q): (epsilon, eta, tau), sigma = 2, k = 5
    (1.0, None): (2.4983533421928246, 1.0, 91.1364471049145),
    (1.0, 0.1): (0.31039434597498605, 1.0, 7.33603273740948),
    (2.0, None): (7.51133507794367, 1.0, 187.26048133056597),
    (2.0, 0.1): (1.1515078651443458, 1.0, 17.149287127925014),
    (3.0, None): (14.32505619376571, 1.0, 328.1439722756965),
    (3.0, 0.1): (4.7621238962771635, 1.0, 107.70669580266839),
}


@pytest.mark.parametrize("beta,q", list(FROZEN_ACCOUNT))
def test_account_frozen_results(beta, q):
    spec = MechanismSpec(GGParams(beta, 2.0), 1.0, q, 5)
    got = account(spec, delta=1e-5, rng=1, samples_n=30_000, bins=2 ** 12)
    assert (got.epsilon, got.eta, got.tau) == pytest.approx(
        FROZEN_ACCOUNT[beta, q], rel=1e-9)


@pytest.mark.parametrize("beta,q", list(FROZEN_ACCOUNT))
def test_cell_masses_agree_with_cdf_differencing(beta, q):
    # On the frozen grids the quadrature masses and the differenced exact
    # CDF agree to 1e-15 per cell, where both resolve a cell at all.
    from ggprivacy.accountant import _auto_config, _discretize_directions
    from ggprivacy.prv import loss_cdf
    spec = MechanismSpec(GGParams(beta, 2.0), 1.0, q, 5)
    cfg = _auto_config(spec, 5, 2 ** 12)
    for direction, one in _discretize_directions(spec, cfg).items():
        ref = discretize_from_cdf(loss_cdf(spec, direction), cfg)
        npt.assert_allclose(one.probs, ref.probs, rtol=0.0, atol=1e-15)
        assert one.offset == ref.offset == 0.0


@pytest.mark.parametrize("offset", [0.0, 0.1, 0.25])
def test_mass_beyond_sums_the_masked_mass_bitwise(offset, rng):
    # The certificate's grid tail, from the grid's two end slices, is
    # bitwise the sum over the mask |support()| >= level, at levels on and
    # between support points.
    from ggprivacy.accountant import _mass_beyond, _sampling_t
    probs = rng.random(2187)
    one = DiscretePRV(probs=probs / probs.sum(), mesh_h=0.3, offset=offset)
    for level in (1e-9, 0.3, 17.0, 0.3 * 1000 + offset, 327.0, 328.0, 1e9):
        want = float(one.probs[np.abs(one.support()) >= level].sum())
        assert _mass_beyond(one, level).hex() == want.hex()
    spec = MechanismSpec(GGParams(3.0, 4.0), 1.0, None, 100)
    got = account(spec, delta=1e-5, bins=2 ** 12)
    cfg = got.config
    full = got.composed[LossDirection.REMOVE]
    level = cfg.trunc_L - _sampling_t(cfg, DEFAULT_SAMPLES)
    want = float(full.probs[np.abs(full.support()) >= level].sum())
    assert _mass_beyond(full, level).hex() == want.hex()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("q", [None, 1e-9, 0.5])
def test_a_loss_whose_variance_overflows_is_out_of_range(q):
    # At beta = 64 and Delta/sigma = 1000 the loss reaches about 1e192, so
    # its variance overflows: a domain error that names that scale, with
    # no overflow warning first.
    spec = MechanismSpec(GGParams(64.0, 1e-3), 1.0, q, 10)
    with pytest.raises(RangeError, match="reaches 1.07e\\+192"):
        account(spec, delta=1e-5, bins=2 ** 10)


def test_ledger_frozen_max_steps():
    ledger = CompositionLedger(MechanismSpec(GGParams(2.0, 3.0), 1.0, 0.25, 1),
                               k_cap=256, bins=2 ** 12)
    assert ledger.max_steps(4.0, 1e-5) == 47
    assert ledger.epsilon_at(47, 1e-5) == pytest.approx(3.9723778886625385,
                                                        rel=1e-9)


@pytest.mark.parametrize("beta,sigma,q,k,bins", [
    (2.0, 1.0, 0.01, 50, 2 ** 16),
    (3.0, 2.0, 0.1, 5, 2 ** 12),      # FROZEN_ACCOUNT's (3.0, 0.1) row
    (1.5, 0.05, 1e-4, 10, 2 ** 16),
])
def test_auto_window_keeps_rare_large_losses(beta, sigma, q, k, bins):
    # A rare inclusion with a large loss sits far outside a window sized by
    # moments alone; renormalizing it away read epsilon 1.741, 3.437 and 0.0
    # here.  The widened window agrees with one 16x wider at the same mesh.
    from ggprivacy.accountant import _discretize_directions
    spec = MechanismSpec(GGParams(beta, sigma), 1.0, q, k)
    auto = account(spec, delta=1e-5, bins=bins)
    wide = AccountantConfig(16.0 * auto.config.trunc_L, bins=16 * bins)
    wide_eps = max(compose([(one, k)]).epsilon_at(1e-5)
                   for one in _discretize_directions(spec, wide).values())
    assert auto.epsilon == pytest.approx(wide_eps, rel=2e-3)


@pytest.mark.parametrize("k", [10 ** 5, 10 ** 6])
def test_auto_window_tail_bound_at_large_k(k):
    # The mass above L is read as a tail, so it meets _WINDOW_TAIL at any
    # k.  At beta = 2 the REMOVE loss exceeds L exactly where the noise
    # exceeds (r**2 + s) / (2 r), s = log((e**L - 1 + q) / q), r =
    # Delta/sigma.
    from scipy import special
    from ggprivacy.accountant import _WINDOW_TAIL, _auto_config
    from ggprivacy.prv import loss_cdf
    spec = MechanismSpec(GGParams(2.0, 0.5), 1.0, 1e-6, k)
    r, q = 2.0, 1e-6

    def upper(L):
        s = L - math.log(q) + math.log1p(-(1.0 - q) * math.exp(-L))
        t = (r * r + s) / (2.0 * r)
        return 0.5 * ((1.0 - q) * special.erfc(t) + q * special.erfc(t - r))

    L = _auto_config(spec, k, 2 ** 12).trunc_L
    assert k * upper(L / 1.25) > _WINDOW_TAIL        # the window widened
    assert k * upper(L) <= _WINDOW_TAIL
    for direction in (LossDirection.REMOVE, LossDirection.ADD):
        assert k * loss_cdf(spec, direction)(-L) <= _WINDOW_TAIL


def _solved_reach(spec) -> float:
    """The largest ``|loss|`` that `prv.loss_masses` solves a crossing for,
    in either direction: ``a_cut``, or its REMOVE image under the mixture."""
    from ggprivacy import prv
    beta, ratio, q = spec.loss_key
    cut = prv._loss_cut(beta, 0.5 * ratio)
    if q is None:
        return cut
    lo, hi = prv._directed_loss(np.array([cut, -cut]), q, LossDirection.REMOVE)
    return max(-float(lo), float(hi))


@pytest.mark.parametrize("beta", [1.0, 1.01, 1.5, 2.0, 3.0, 8.0])
def test_auto_window_is_the_rule_without_shortcuts_bitwise(beta):
    # _auto_config shares Q's quadrature between the two directions and
    # skips the tail check where L covers the solved reach; neither may move
    # a window by one bit.  Past the reach the mass outside is exactly 0.
    import itertools
    from ggprivacy import prv
    from ggprivacy.accountant import _auto_config
    from oracles import auto_window, separate_loss_moments
    covered = widened = 0
    for sigma, q, k in itertools.product(
            (0.01, 0.03, 0.1, 0.3, 1.0, 3.0, 10.0, 50.0),
            (None, 1e-9, 1e-4, 0.01, 0.5), (1, 37, 10 ** 5)):
        spec = MechanismSpec(GGParams(beta, sigma), 1.0, q, k)
        for d in prv.directions_for(spec):
            assert [v.hex() for v in prv.loss_moments(spec, d)] == \
                [v.hex() for v in separate_loss_moments(spec, d)]
        start, L, steps = auto_window(spec, k)
        assert _auto_config(spec, k, 2 ** 10).trunc_L.hex() == L.hex()
        widened += steps > 0
        covered += start >= _solved_reach(spec)
        for window in (start, L):
            if window >= _solved_reach(spec):
                for pieces in prv.loss_masses(spec, 2.0 * window, 0).values():
                    assert pieces[0] == 0.0 and pieces[-1] == 0.0
    assert covered > 0 and widened > 0


@pytest.mark.parametrize("beta, sigma, q, k, widened", [
    (1.5, 0.3, 1e-4, 1, 22), (1.5, 0.3, 1e-3, 10, 9),
])
def test_a_window_that_widens_keeps_the_tail_loop(beta, sigma, q, k, widened,
                                                  monkeypatch):
    # A window short of the reach runs the tail check at every L it tries:
    # one loss_masses call per widening, one for the L it keeps, and one for
    # the grid.
    from ggprivacy import accountant
    from oracles import auto_window
    spec = MechanismSpec(GGParams(beta, sigma), 1.0, q, k)
    start, L, steps = auto_window(spec, k)
    assert steps == widened and start < _solved_reach(spec)
    calls = []
    real = accountant.loss_masses
    monkeypatch.setattr(accountant, "loss_masses",
                        lambda *a: calls.append(a) or real(*a))
    assert account(spec, delta=1e-5, bins=2 ** 12).config.trunc_L == L
    assert len(calls) == widened + 2


@pytest.mark.parametrize("beta, sigma, q, k", [
    (2.0, 1.0, None, 1), (3.0, 4.0, None, 100),
    (1.5, 0.4684041871018325, 0.1, 50),                 # calibrate's answer
    (1.0, 1.0, 0.05, 400),
])
def test_a_covered_window_discretizes_once(beta, sigma, q, k, monkeypatch):
    # A window that covers the loss's solved reach has nothing outside it:
    # account and the ledger call loss_masses once each, for the grid.
    from ggprivacy import accountant
    spec = MechanismSpec(GGParams(beta, sigma), 1.0, q, k)
    calls = []
    real = accountant.loss_masses
    monkeypatch.setattr(accountant, "loss_masses",
                        lambda *a: calls.append(a) or real(*a))
    cfg = account(spec, delta=1e-5, bins=2 ** 12).config
    assert cfg.trunc_L >= _solved_reach(spec)
    assert len(calls) == 1
    CompositionLedger(spec, k_cap=k, bins=2 ** 12)
    assert len(calls) == 2


def test_account_builds_its_curve_on_first_read(monkeypatch):
    # The solver and the ledger never read the 129-point curve, so account
    # does not build it; the first read builds the curve account once built,
    # bitwise, and later reads return it.
    spec = MechanismSpec(GGParams(1.5, 2.0), 1.0, 0.1, 10)
    sizes = []
    real = DiscretePRV.delta_at
    monkeypatch.setattr(DiscretePRV, "delta_at",
                        lambda self, e: sizes.append(np.size(e)) or real(self, e))
    result = account(spec, delta=1e-5, bins=2 ** 12)
    assert 129 not in sizes
    curve = result.curve
    assert sizes.count(129) == 2 and result.curve is curve
    eps = np.linspace(0.0, result.config.trunc_L, 129)
    delta = np.minimum.accumulate(np.maximum.reduce(
        [real(prv, eps) for prv in result.composed.values()]))
    assert curve.epsilon.tobytes() == eps.tobytes()
    assert curve.delta.tobytes() == delta.tobytes()
    assert curve.config == result.config.to_dict()
    assert curve.mechanism == spec.to_dict()


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
def test_adopted_masses_must_be_finite(bad):
    from ggprivacy import AccountingInconsistencyError
    with pytest.raises(AccountingInconsistencyError, match="finite"):
        DiscretePRV._adopt(np.array([0.5, bad, 0.5]), mesh_h=1.0)


def test_public_construction_copies_what_it_is_given():
    given = np.array([0.25, 0.5, 0.25 - 1e-13, -1e-13])[:3]
    prv = hand_prv(given)
    assert not np.shares_memory(prv.probs, given)
    assert given.flags.writeable and given[2] == 0.25 - 1e-13


@pytest.mark.parametrize("beta", [1.0, 2.0, 3.0])
def test_adopted_masses_match_public_construction_bitwise(beta, monkeypatch):
    # compose and _discretize_directions hand their own masses over without
    # a second check or copy; on README's grids the masses are bitwise those
    # that public construction gives.
    from ggprivacy import accountant
    spec = MechanismSpec(GGParams(beta, 4.0), 1.0, None, 100)
    adopted = account(spec, delta=1e-5)
    monkeypatch.setattr(DiscretePRV, "_adopt", classmethod(
        lambda cls, probs, **fields: cls(probs=probs, **fields)))
    public = account(spec, delta=1e-5)
    assert adopted.epsilon.hex() == public.epsilon.hex()
    for d, prv in adopted.composed.items():
        assert prv.probs.tobytes() == public.composed[d].probs.tobytes()
        assert not prv.probs.flags.writeable
    singles = accountant._discretize_directions(spec, adopted.config)
    monkeypatch.undo()
    for d, one in accountant._discretize_directions(
            spec, adopted.config).items():
        assert one.probs.tobytes() == singles[d].probs.tobytes()
        assert (one.tail_upper, one.acceptance, one.compositions) == \
            (singles[d].tail_upper, singles[d].acceptance, 1)


@pytest.mark.parametrize("q", [None, 0.1])
@pytest.mark.parametrize("beta", [1.0, 1.5, 2.0, 3.0])
def test_discretizing_solves_each_root_once(beta, q, monkeypatch):
    # Every direction's masses come from one root solve, on the upper half
    # of the grid's edges for a plain spec; beta = 1 and 2 need no root.
    from ggprivacy import prv
    from ggprivacy.accountant import _discretize_directions
    sizes = []
    solve = prv._half_gap_root

    def counted(beta, c, a):
        sizes.append(a.size)
        return solve(beta, c, a)

    monkeypatch.setattr(prv, "_half_gap_root", counted)
    cfg = AccountantConfig(12.0, bins=2 ** 12)
    singles = _discretize_directions(
        MechanismSpec(GGParams(beta, 2.0), 1.0, q, 1), cfg)
    assert len(singles) == (1 if q is None else 2)
    assert len(sizes) == (0 if beta in (1.0, 2.0) else 1)
    if q is None and sizes:
        assert sizes[0] <= cfg.half_bins + 1


_FAULTS_ACROSS_A_SECOND_ACCOUNT = """
import resource
from ggprivacy import GGParams, MechanismSpec, account
spec = MechanismSpec(GGParams(3.0, 4.0), 1.0, None, 100)
account(spec, delta=1e-5)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
account(spec, delta=1e-5)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                    reason="the allocator thresholds are glibc's")
def test_a_second_account_call_reuses_the_first_calls_pages():
    # Importing the package pins glibc's mmap and trim thresholds, so the
    # grid arrays a call frees stay in the heap for the next call.  Under
    # glibc's dynamic rule, the second call on README's beta = 3 spec at the
    # default grid faulted in 7 378 to 9 007 pages.  It must run in a fresh
    # process: any earlier free of a larger mmapped chunk raises glibc's
    # dynamic thresholds, and then the pages would stay without the pin.
    import resource
    src = str(Path(accountant.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run(
        [sys.executable, "-c", _FAULTS_ACROSS_A_SECOND_ACCOUNT], env=env,
        check=True, capture_output=True, text=True, timeout=120).stdout
    one_grid_array = accountant._grid_cells(DEFAULT_BINS) * 8
    assert int(out) < one_grid_array / resource.getpagesize()


class _FakeMallopt:
    def __init__(self, answer):
        self.answer, self.calls = answer, []

    def __call__(self, param, value):
        self.calls.append((param, value))
        return self.answer


def _fake_libc(monkeypatch, handle):
    def cdll(name):
        assert name is None
        if isinstance(handle, Exception):
            raise handle
        return handle
    monkeypatch.setattr(accountant.ctypes, "CDLL", cdll)


@pytest.mark.parametrize("handle", [OSError("no libc"), TypeError("None"),
                                    object()],
                         ids=["cdll-raises", "cdll-refuses-none",
                              "no-mallopt"])
def test_malloc_pin_returns_quietly_without_mallopt(handle, monkeypatch):
    _fake_libc(monkeypatch, handle)
    assert accountant._pin_malloc_thresholds() is None


@pytest.mark.parametrize("answer", [1, 0])
def test_malloc_pin_sets_the_trim_threshold_only_after_the_mmap_one(
        answer, monkeypatch):
    # Any successful mallopt turns glibc's dynamic rule off, so a trim
    # threshold set alone would leave every large array mmapped.
    mallopt = _FakeMallopt(answer)
    _fake_libc(monkeypatch, type("Libc", (), {"mallopt": mallopt})())
    accountant._pin_malloc_thresholds()
    mmap = (-3, 32 * 2 ** 20)
    assert mallopt.calls == ([mmap, (-1, 64 * 2 ** 20)] if answer else [mmap])
