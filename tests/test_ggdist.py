"""Distribution core: densities, quantiles, samplers, moment identities."""

from __future__ import annotations

import math

import numpy as np
import numpy.testing as npt
import pytest
from scipy import integrate, stats

from ggprivacy import GGParams, ParameterError, ggdist
from oracles import gg_interval_mass, sample_inverse_cdf

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
@pytest.mark.parametrize("beta", [1.0, 1.05, 1.5, 2.0, 3.0, 8.0])
def test_masses_between_against_mpmath(beta):
    # Open cells, cells that straddle or near the kink at 0, short cells on
    # the Gauss-Legendre rule, wide cells, tail cells down past 1e-50 and
    # cells past _TAIL_ZERO: each mass within 1e-11 relative of mpmath's
    # (above float64's subnormals), and the masses of a partition of the
    # line sum to 1.
    x1 = 45.0 ** (1.0 / beta)
    x = np.concatenate([
        [-np.inf, -2e3, -ggdist._TAIL_ZERO], np.linspace(-1.5 * x1, -2.0, 7),
        -np.geomspace(1.0, 1e-6, 9), [0.0], np.geomspace(1e-7, 0.3, 6),
        0.3 + np.linspace(0.0, 0.02, 21)[1:], np.linspace(0.5, 2.5, 9),
        np.linspace(2.6, 3.0 * x1, 6), [ggdist._TAIL_ZERO, 1e4, np.inf]])
    assert np.all(np.diff(x) >= 0.0)
    got = ggdist._masses_between(x, beta)
    want = np.array([float(gg_interval_mass(a, b, beta))
                     for a, b in zip(x[:-1], x[1:])])
    npt.assert_allclose(got, want, rtol=1e-11, atol=1e-300)
    assert 0.0 < got[got > 0.0].min() < 1e-50
    assert math.fsum(got) == pytest.approx(1.0, abs=1e-15)


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
    b = sample_inverse_cdf(p, rng, 50_000)
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


# First draws of GG(2, 3) from default_rng(2024): the beta = 2 stream is one
# standard-normal block times sigma / sqrt(2), and must not move.
BETA2_FIRST_DRAWS_HEX = [
    "0x1.175d4eb4e4c1ap+1", "0x1.bdd433a8a8916p+1", "0x1.375e1bcd13693p+1",
    "-0x1.083f184c98143p+1", "-0x1.7a2f84fb9848ap+1", "0x1.23eea15ebd619p-3"]


def test_sample_at_beta_two_is_pinned():
    got = ggdist.sample(GGParams(2.0, 3.0), np.random.default_rng(2024), 6)
    assert [v.hex() for v in got] == BETA2_FIRST_DRAWS_HEX


@pytest.mark.parametrize("beta", [1.0, 1.5, 3.0])
def test_sample_draws_the_gamma_block_then_one_bit_per_sign(beta):
    # The documented draw order, bitwise: Gamma(1/beta) block, then
    # rng.bytes(ceil(n / 8)) unpacked most significant bit first, a set bit
    # making the variate negative.
    p, n = GGParams(beta, 1.7), 1001
    got = ggdist.sample(p, np.random.default_rng(8), n)
    ref = np.random.default_rng(8)
    g = ref.standard_gamma(1.0 / beta, size=n)
    bits = np.unpackbits(np.frombuffer(ref.bytes(126), dtype=np.uint8))[:n]
    magnitude = p.sigma * g ** (1.0 / beta)
    want = np.where(bits == 1, -magnitude, magnitude)
    npt.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize("count", [1, 9, 385, 600_000])
@pytest.mark.parametrize("beta", [1.0, 1.5, 2.0, 3.0])
def test_sample_into_out_is_the_allocating_draw(beta, count):
    p = GGParams(beta, 1.7)
    rng = np.random.default_rng(12)
    ref = np.random.default_rng(12)
    buf = np.empty(count)
    got = ggdist.sample(p, rng, count, out=buf)
    want = ggdist.sample(p, ref, count)
    assert got is buf
    npt.assert_array_equal(buf.view(np.uint64), want.view(np.uint64))
    assert rng.bit_generator.state == ref.bit_generator.state


@pytest.mark.parametrize("beta", [1.0, 2.0, 3.0])
def test_sample_rejects_a_bad_out_before_drawing(beta, rng):
    state = rng.bit_generator.state
    frozen = np.empty(9)
    frozen.flags.writeable = False
    for bad in (np.empty(10), np.empty(8), np.empty(9, dtype=np.float32),
                np.empty(18)[::2], np.empty((9, 1)), frozen, [0.0] * 9):
        with pytest.raises(ParameterError, match="out must be"):
            ggdist.sample(GGParams(beta, 1.0), rng, 9, out=bad)
    assert rng.bit_generator.state == state


def test_laplace_gamma_block_is_numpys_exponential():
    # sample() draws Gamma(1, 1) as standard_exponential; numpy computes the
    # two from the same ziggurat, so the stream is the gamma block's.
    a = np.random.default_rng(4).standard_gamma(1.0, size=100_001)
    b = np.random.default_rng(4).standard_exponential(100_001)
    npt.assert_array_equal(a.view(np.uint64), b.view(np.uint64))


@pytest.mark.parametrize("beta", [1.0, 1.5, 3.0, 4.0])
def test_sample_ks_against_cdf(beta, rng):
    p = GGParams(beta, 1.3)
    z = ggdist.sample(p, rng, 200_000)
    assert stats.kstest(z, lambda x: ggdist.cdf(p, x)).pvalue > 1e-3


@pytest.mark.parametrize("beta", [1.0, 1.5, 3.0])
def test_sample_sign_is_balanced_and_independent_of_magnitude(beta, rng):
    n = 400_000
    z = ggdist.sample(GGParams(beta, 2.0), rng, n)
    negative = z < 0.0
    # A fair sign: its count is Binomial(n, 1/2), sd sqrt(n) / 2.
    assert abs(int(negative.sum()) - n / 2) < 4.0 * math.sqrt(n) / 2.0
    assert stats.ks_2samp(np.abs(z[negative]),
                          np.abs(z[~negative])).pvalue > 1e-3


@pytest.mark.parametrize("count", [1, 7, 9, 385])
@pytest.mark.parametrize("beta", [1.0, 2.0, 2.5])
def test_sample_returns_exactly_count_finite_values(beta, count, rng):
    z = ggdist.sample(GGParams(beta, 1.0), rng, count)
    assert z.shape == (count,) and z.dtype == np.float64
    assert np.all(np.isfinite(z))


# -- moments and parameterization helpers ------------------------------------

def test_absolute_moment_known_values():
    npt.assert_allclose(ggdist.absolute_moment(GGParams(2.0, math.sqrt(2.0)), 2.0),
                        1.0, rtol=1e-12)
    npt.assert_allclose(ggdist.absolute_moment(GGParams(1.0, 1.0), 1.0),
                        1.0, rtol=1e-12)
    npt.assert_allclose(ggdist.absolute_moment(GGParams(3.0, 1.0), 3.0),
                        1.0 / 3.0, rtol=1e-12)
    assert ggdist.absolute_moment(GGParams(2.0, 1.0), 0.0) == pytest.approx(1.0)


def test_scalar_in_scalar_out():
    p = GGParams(2.0, 1.0)
    assert isinstance(ggdist.pdf(p, 0.3), float)
    assert isinstance(ggdist.cdf(p, 0.3), float)
    assert isinstance(ggdist.quantile(p, 0.3), float)
    arr = ggdist.pdf(p, np.asarray([0.1, 0.2]))
    assert isinstance(arr, np.ndarray) and arr.shape == (2,)


def test_legendre_nodes_are_computed_once_on_first_use():
    # _quadrature's nodes are leggauss's, bitwise, computed once per node
    # count and read-only (tests/test_package.py checks that import computes
    # none).
    points, weights = ggdist._legendre(16)
    ref_points, ref_weights = np.polynomial.legendre.leggauss(16)
    npt.assert_array_equal(points.view(np.int64), ref_points.view(np.int64))
    npt.assert_array_equal(weights.view(np.int64), ref_weights.view(np.int64))
    assert ggdist._legendre(16)[0] is points
    assert not points.flags.writeable and not weights.flags.writeable
