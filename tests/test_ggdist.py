"""Distribution core: densities, quantiles, samplers, moment identities."""

from __future__ import annotations

import math

import numpy as np
import numpy.testing as npt
import pytest
from scipy import integrate, stats

from ggprivacy import GGParams, ParameterError, ggdist

# The invariant grid for normalization / round-trip / sampler-law checks.
GRID = [(beta, sigma) for beta in (1.0, 1.33, 1.5, 2.0, 2.5, 4.0)
        for sigma in (0.5, 1.0, 3.0)]

# Frozen from a 50-digit evaluation.
CDF_AT_1_BETA15_SIGMA2 = 0.74174932923867948
PDF_AT_1_BETA15_SIGMA2 = 0.19445919763015736
ABSMOM3_BETA15_SIGMA2 = 8.8888888888888889   # exactly 80/9
QUANTILE_BETA17_SIGMA3_U09 = 2.946007152466464


# -- parameter validation ----------------------------------------------------

@pytest.mark.parametrize("beta,sigma", [
    (0.99, 1.0), (64.5, 1.0), (2.0, 0.0), (2.0, -1.0), (2.0, 2e12),
    (math.nan, 1.0), (2.0, math.inf),
])
def test_invalid_params_rejected(beta, sigma):
    with pytest.raises(ParameterError):
        GGParams(beta, sigma)


def test_params_cast_to_float():
    p = GGParams(2, 1)
    assert isinstance(p.beta, float) and isinstance(p.sigma, float)


# -- pdf / cdf / quantile ----------------------------------------------------

@pytest.mark.parametrize("beta,sigma", GRID)
def test_pdf_normalizes(beta, sigma):
    p = GGParams(beta, sigma)
    # Split at the (possible) kink at zero so quad converges cleanly.
    left, _ = integrate.quad(lambda x: ggdist.pdf(p, x), -np.inf, 0.0)
    right, _ = integrate.quad(lambda x: ggdist.pdf(p, x), 0.0, np.inf)
    assert abs(left + right - 1.0) < 1e-8


def test_frozen_spot_values():
    p = GGParams(1.5, 2.0)
    npt.assert_allclose(ggdist.pdf(p, 1.0), PDF_AT_1_BETA15_SIGMA2, rtol=1e-13)
    npt.assert_allclose(ggdist.cdf(p, 1.0), CDF_AT_1_BETA15_SIGMA2, rtol=1e-13)
    npt.assert_allclose(ggdist.absolute_moment(p, 3.0), ABSMOM3_BETA15_SIGMA2,
                        rtol=1e-13)
    npt.assert_allclose(ggdist.quantile(GGParams(1.7, 3.0), 0.9),
                        QUANTILE_BETA17_SIGMA3_U09, rtol=1e-12)


def test_laplace_reduction_pointwise():
    sigma = 1.7
    p = GGParams(1.0, sigma)
    x = np.linspace(-8.0, 8.0, 41)
    npt.assert_allclose(ggdist.pdf(p, x), stats.laplace.pdf(x, scale=sigma),
                        rtol=1e-12)
    npt.assert_allclose(ggdist.cdf(p, x), stats.laplace.cdf(x, scale=sigma),
                        rtol=1e-12, atol=1e-300)
    npt.assert_allclose(ggdist.quantile(p, 0.75), sigma * math.log(2.0),
                        rtol=1e-12)


def test_normal_reduction_pointwise():
    sigma = 2.2
    p = GGParams(2.0, sigma)
    std = sigma / math.sqrt(2.0)
    x = np.linspace(-8.0, 8.0, 41)
    npt.assert_allclose(ggdist.pdf(p, x), stats.norm.pdf(x, scale=std),
                        rtol=1e-12)
    # At beta = 2 the cdf is one erfc, like scipy's normal cdf; the pdf
    # bound above is the exact-reduction claim.
    npt.assert_allclose(ggdist.cdf(p, x), stats.norm.cdf(x, scale=std),
                        rtol=1e-9, atol=1e-300)
    # GG(2, sqrt(2)) is exactly the standard normal.
    npt.assert_allclose(ggdist.cdf(GGParams(2.0, math.sqrt(2.0)), 1.0),
                        stats.norm.cdf(1.0), rtol=1e-13)


@pytest.mark.parametrize("beta,sigma", GRID)
def test_cdf_quantile_round_trip(beta, sigma):
    p = GGParams(beta, sigma)
    u = np.concatenate([
        np.geomspace(1e-6, 0.4, 12),
        [0.5],
        1.0 - np.geomspace(1e-6, 0.4, 12),
    ])
    back = ggdist.cdf(p, ggdist.quantile(p, u))
    npt.assert_allclose(back, u, rtol=1e-9, atol=1e-12)
    # Reverse direction, kept inside the u-range above so the cdf never
    # saturates to an exact 0 or 1.
    edge = ggdist.quantile(p, 1.0 - 1e-6)
    x = np.linspace(-edge, edge, 21)
    back_x = ggdist.quantile(p, ggdist.cdf(p, x))
    npt.assert_allclose(back_x, x, rtol=1e-9, atol=1e-9 * sigma)


@pytest.mark.parametrize("beta,sigma", GRID)
def test_quantile_keeps_relative_precision_in_both_tails(beta, sigma):
    # Levels down to 1e-300 and up to 1 - 1e-9: both functions work from
    # the tail nearer u, so the round trip holds relative to u (and to
    # 1 - u above 1/2) where a form through 1 - u would cancel.
    p = GGParams(beta, sigma)
    lower = np.geomspace(1e-300, 0.5, 61)
    upper = 1.0 - np.geomspace(1e-9, 0.5, 31)
    for u in (lower, upper):
        npt.assert_allclose(ggdist.cdf(p, ggdist.quantile(p, u)), u,
                            rtol=1e-11, atol=0.0)
    npt.assert_allclose(1.0 - ggdist.cdf(p, ggdist.quantile(p, upper)),
                        1.0 - upper, rtol=1e-6, atol=0.0)


@pytest.mark.parametrize("beta,x", [(1.0, -40.0), (1.0, -30.0), (1.5, -20.0),
                                    (2.0, -6.0), (3.0, -3.5)])
def test_cdf_left_tail_against_mpmath(beta, x):
    # F(x) = Q(1/beta, |x|**beta) / 2 below 0, with Q the regularized upper
    # incomplete gamma, evaluated at 30 digits.
    import mpmath
    with mpmath.workdps(30):
        want = float(mpmath.gammainc(1 / mpmath.mpf(beta),
                                     abs(mpmath.mpf(x)) ** beta,
                                     regularized=True) / 2)
    assert 0.0 < want < 1e-13
    got = ggdist.cdf(GGParams(beta, 1.0), x)
    assert got == pytest.approx(want, rel=1e-12, abs=0.0)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("params,x", [(GGParams(1.5, 1e-300), 1e10),
                                      (GGParams(1.0, 1e-300), 1e9),
                                      (GGParams(3.0, 0.5), 1e308),
                                      (GGParams(64.0, 1.0), 7e4),
                                      (GGParams(2.0, 1.0), 1.4e154)])
def test_pdf_and_cdf_saturate_far_out_without_overflow(params, x):
    # x / sigma, or its power beta, passes float range here; the values are
    # exact all the same: density 0 and a saturated tail.
    assert ggdist.pdf(params, x) == 0.0
    assert ggdist.pdf(params, -x) == 0.0
    assert ggdist.cdf(params, x) == 1.0
    assert ggdist.cdf(params, -x) == 0.0
    npt.assert_array_equal(ggdist.cdf(params, np.array([-x, 0.0, x])),
                           [0.0, 0.5, 1.0])


def test_quantile_domain():
    p = GGParams(2.0, 1.0)
    assert ggdist.quantile(p, 0.5) == 0.0
    for bad in (0.0, 1.0, -0.1, 1.1):
        with pytest.raises(ParameterError):
            ggdist.quantile(p, bad)


def test_cdf_is_monotone_and_bounded(rng):
    for beta, sigma in ((1.0, 0.5), (2.7, 2.0), (8.0, 1.0), (64.0, 1.0)):
        p = GGParams(beta, sigma)
        x = np.sort(rng.uniform(-6.0 * sigma, 6.0 * sigma, size=200))
        c = ggdist.cdf(p, x)
        assert np.all((c >= 0.0) & (c <= 1.0))
        assert np.all(np.diff(c) >= 0.0)


# -- sampler -----------------------------------------------------------------

def test_sample_variance_standard_normal(rng):
    z = ggdist.sample(GGParams(2.0, math.sqrt(2.0)), rng, 10 ** 6)
    assert abs(z.var() - 1.0) < 0.01
    assert abs(z.mean()) < 0.005


def test_sample_moment_identity(rng):
    # E|Z|^beta = sigma^beta / beta.
    beta, sigma = 1.5, 2.0
    z = ggdist.sample(GGParams(beta, sigma), rng, 10 ** 6)
    expected = sigma ** beta / beta
    assert abs(np.mean(np.abs(z) ** beta) / expected - 1.0) < 0.01
    npt.assert_allclose(ggdist.absolute_moment(GGParams(beta, sigma), beta),
                        expected, rtol=1e-12)


def test_sample_laplace_ks(rng):
    z = ggdist.sample(GGParams(1.0, 1.0), rng, 10 ** 6)
    stat = stats.kstest(z, stats.laplace(scale=1.0).cdf).statistic
    assert stat < 0.002


def test_sample_matches_inverse_cdf_law(rng):
    p = GGParams(2.5, 1.3)
    a = ggdist.sample(p, rng, 50_000)
    b = ggdist.sample_inverse_cdf(p, rng, 50_000)
    assert stats.ks_2samp(a, b).pvalue > 1e-3


def test_sample_at_beta_two_is_one_normal_block():
    p = GGParams(2.0, 3.0)
    got = ggdist.sample(p, np.random.default_rng(11), 100_000)
    want = np.random.default_rng(11).standard_normal(100_000) * (3.0 / math.sqrt(2.0))
    npt.assert_array_equal(got, want)
    stat = stats.kstest(got, stats.norm(scale=3.0 / math.sqrt(2.0)).cdf).statistic
    assert stat < 0.006


def test_sample_is_deterministic():
    p = GGParams(1.5, 2.0)
    a = ggdist.sample(p, np.random.default_rng(7), 64)
    b = ggdist.sample(p, np.random.default_rng(7), 64)
    npt.assert_array_equal(a, b)


def test_sample_count_validation(rng):
    with pytest.raises(ParameterError):
        ggdist.sample(GGParams(2.0, 1.0), rng, 0)


# -- moments and parameterization helpers ------------------------------------

def test_absolute_moment_known_values():
    npt.assert_allclose(ggdist.absolute_moment(GGParams(2.0, math.sqrt(2.0)), 2.0),
                        1.0, rtol=1e-12)
    npt.assert_allclose(ggdist.absolute_moment(GGParams(1.0, 1.0), 1.0),
                        1.0, rtol=1e-12)
    npt.assert_allclose(ggdist.absolute_moment(GGParams(3.0, 1.0), 3.0),
                        1.0 / 3.0, rtol=1e-12)
    assert ggdist.absolute_moment(GGParams(2.0, 1.0), 0.0) == pytest.approx(1.0)


def test_sigma_power_round_trip():
    p = GGParams(1.7, 2.9)
    s_pow = ggdist.sigma_power(p)
    npt.assert_allclose(s_pow, 2.9 ** 1.7, rtol=1e-13)
    back = ggdist.from_sigma_power(1.7, s_pow)
    npt.assert_allclose(back.sigma, 2.9, rtol=1e-13)


def test_scalar_in_scalar_out():
    p = GGParams(2.0, 1.0)
    assert isinstance(ggdist.pdf(p, 0.3), float)
    assert isinstance(ggdist.cdf(p, 0.3), float)
    assert isinstance(ggdist.quantile(p, 0.3), float)
    arr = ggdist.pdf(p, np.asarray([0.1, 0.2]))
    assert isinstance(arr, np.ndarray) and arr.shape == (2,)
