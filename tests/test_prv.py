"""Privacy-loss variables: point losses, samplers, reference CDFs."""

from __future__ import annotations

import math
from itertools import product

import numpy as np
import numpy.testing as npt
import pytest
from scipy import integrate, stats

from ggprivacy import (
    GGParams,
    InputError,
    LossDirection,
    MechanismSpec,
    ParameterError,
    derive_rng,
    ggdist,
    kernels,
)
from ggprivacy.prv import (
    directions_for,
    gaussian_prv_cdf,
    laplace_prv_cdf,
    loss_cdf,
    loss_cdfs_on_grid,
    loss_function,
    loss_moments,
    loss_range,
    multidim_prv_sample,
    sample_prv,
    subsampled_loss_function,
)

GAUSS = MechanismSpec(GGParams(2.0, math.sqrt(2.0)), 1.0)          # loss ~ N(1/2, 1)
GAUSS_Q = MechanismSpec(GGParams(2.0, math.sqrt(2.0)), 1.0, 0.01)
LAP = MechanismSpec(GGParams(1.0, 1.0), 1.0)

# log(0.99 + 0.01 * exp(-1/2)), frozen from a 50-digit evaluation.
MIX_AT_ELL_HALF = -0.0039424546744665835


# -- spec validation ----------------------------------------------------------

@pytest.mark.parametrize("kwargs", [
    dict(sensitivity=0.0),
    dict(sensitivity=-1.0),
    dict(sample_rate=0.0),
    dict(sample_rate=1.5),
    dict(compositions=0),
])
def test_spec_validation(kwargs):
    base = dict(noise=GGParams(2.0, 1.0), sensitivity=1.0)
    base.update(kwargs)
    with pytest.raises(ParameterError):
        MechanismSpec(**base)


def test_spec_to_dict_round_trip_fields():
    d = GAUSS_Q.to_dict()
    assert d["beta"] == 2.0 and d["sample_rate"] == 0.01


def test_spec_loss_key():
    assert GAUSS_Q.loss_key == (2.0, 1.0 / math.sqrt(2.0), 0.01)
    assert MechanismSpec(GGParams(3.0, 4.0), 2.0, None, 9).loss_key \
        == (3.0, 0.5, None)
    # Poisson sampling at rate 1 is the plain mechanism.
    assert MechanismSpec(GGParams(3.0, 4.0), 2.0, 1.0).loss_key \
        == (3.0, 0.5, None)


# -- point losses -------------------------------------------------------------

def test_loss_function_exact_points():
    # (|u - 1/sqrt(2)|^2 - |u|^2) at u = t / sqrt(2); 1/sqrt(2) squares to
    # 0.4999999999999999, so the endpoints are exact only to one ulp.
    assert loss_function(GAUSS, 0.0) == pytest.approx(0.5, rel=1e-15)
    assert loss_function(GAUSS, 0.5) == 0.0
    assert loss_function(GAUSS, 1.0) == pytest.approx(-0.5, rel=1e-15)


def test_loss_function_matches_direct_formula(rng):
    spec = MechanismSpec(GGParams(1.7, 2.3), 1.4)
    t = rng.uniform(-20.0, 20.0, size=512)
    expected = (np.abs(t - 1.4) ** 1.7 - np.abs(t) ** 1.7) / 2.3 ** 1.7
    npt.assert_allclose(loss_function(spec, t), expected, rtol=1e-12)


def test_loss_function_rejects_subsampled_spec():
    with pytest.raises(ParameterError):
        loss_function(GAUSS_Q, 0.0)
    with pytest.raises(ParameterError):
        subsampled_loss_function(GAUSS, 0.0)
    with pytest.raises(InputError):
        loss_function(GAUSS, math.inf)


def test_subsampled_loss_frozen_value():
    got = subsampled_loss_function(GAUSS_Q, 0.0, LossDirection.REMOVE)
    npt.assert_allclose(got, MIX_AT_ELL_HALF, rtol=1e-13)
    add = subsampled_loss_function(GAUSS_Q, 0.0, LossDirection.ADD)
    assert add == -got


def test_subsampled_loss_q1_reduces_to_plain():
    spec = MechanismSpec(GGParams(2.0, math.sqrt(2.0)), 1.0, 1.0)
    t = np.linspace(-3.0, 3.0, 13)
    npt.assert_array_equal(subsampled_loss_function(spec, t, LossDirection.REMOVE),
                           -loss_function(GAUSS, t))


def test_base_loss_range_laplace():
    t = np.linspace(-50.0, 50.0, 10001)
    vals = loss_function(LAP, t)
    assert vals.max() <= 1.0 + 1e-12 and vals.min() >= -1.0 - 1e-12
    for direction in LossDirection:
        assert loss_range(LAP, direction) == (-1.0, 1.0)


@pytest.mark.parametrize("q", [0.3, 0.01])
@pytest.mark.parametrize("direction", list(LossDirection))
def test_subsampled_loss_range_matches_dense_extremes(q, direction):
    # At beta = 1 the base loss is flat beyond [0, Delta], so a dense grid
    # over a wider interval attains both ends of the range.
    spec = MechanismSpec(GGParams(1.0, 2.0), 1.5, q)
    vals = subsampled_loss_function(spec, np.linspace(-4.0, 5.5, 20001),
                                    direction)
    lo, hi = loss_range(spec, direction)
    npt.assert_allclose([lo, hi], [vals.min(), vals.max()], rtol=1e-14)


@pytest.mark.parametrize("beta", [1.5, 2.0, 3.0])
@pytest.mark.parametrize("q", [None, 1.0, 0.3])
def test_loss_range_unbounded_above_beta_one(beta, q):
    spec = MechanismSpec(GGParams(beta, 2.0), 1.0, q)
    for direction in LossDirection:
        lo, hi = loss_range(spec, direction)
        if q is None or q == 1.0:
            assert (lo, hi) == (-math.inf, math.inf)
        elif direction is LossDirection.REMOVE:
            # log(M/Q) >= log(1 - q) and is unbounded above
            assert lo == pytest.approx(math.log1p(-q), rel=1e-15)
            assert hi == math.inf
        else:
            assert lo == -math.inf
            assert hi == pytest.approx(-math.log1p(-q), rel=1e-15)


# -- sampled losses -----------------------------------------------------------

def test_sample_prv_validation(rng):
    with pytest.raises(ParameterError):
        sample_prv(GAUSS, "remove", rng, 10)
    with pytest.raises(ParameterError):
        sample_prv(GAUSS, LossDirection.REMOVE, rng, 0)


def test_plain_directions_bitwise_equal():
    a = sample_prv(GAUSS, LossDirection.REMOVE, derive_rng(5, "x"), 1000)
    b = sample_prv(GAUSS, LossDirection.ADD, derive_rng(5, "x"), 1000)
    npt.assert_array_equal(a, b)


def test_q1_bitwise_equals_plain():
    spec_q1 = MechanismSpec(GGParams(1.5, 2.0), 1.0, 1.0)
    spec = MechanismSpec(GGParams(1.5, 2.0), 1.0)
    a = sample_prv(spec_q1, LossDirection.REMOVE, derive_rng(9, "y"), 1000)
    b = sample_prv(spec, LossDirection.REMOVE, derive_rng(9, "y"), 1000)
    npt.assert_array_equal(a, b)


@pytest.mark.parametrize("q", [None, 0.3])
@pytest.mark.parametrize("direction", list(LossDirection))
def test_sample_prv_depends_only_on_the_loss_key(q, direction):
    # GG(1.5, 3) at sensitivity 1.5 and GG(1.5, 0.6) at 0.3: ratio 1/2.
    a = sample_prv(MechanismSpec(GGParams(1.5, 3.0), 1.5, q), direction,
                   derive_rng(6, "k"), 1000)
    b = sample_prv(MechanismSpec(GGParams(1.5, 0.6), 0.3, q), direction,
                   derive_rng(6, "k"), 1000)
    npt.assert_array_equal(a, b)


def test_reflection_identity(rng):
    # -ell(mu - z) = ell(z): exact in real arithmetic; in floats the test
    # itself rounds mu - z once before the loss, so allow a few ulp.
    spec = MechanismSpec(GGParams(1.8, 1.9), 1.3)
    z = ggdist.sample(spec.noise, rng, 4096)
    npt.assert_allclose(-loss_function(spec, spec.sensitivity - z),
                        loss_function(spec, z), rtol=1e-12, atol=1e-12)


def test_plain_gaussian_loss_law(rng):
    y = sample_prv(GAUSS, LossDirection.REMOVE, rng, 200_000)
    assert abs(y.mean() - 0.5) < 0.015
    assert abs(y.var() - 1.0) < 0.02
    stat = stats.kstest(y, lambda x: gaussian_prv_cdf(x, 1.0, 1.0)).statistic
    assert stat < 0.004


def test_subsampled_remove_replicates_by_hand():
    # Noise block in units of sigma first, then one uniform block for the
    # inclusion draws; the loss is evaluated at ratio = Delta/sigma.
    spec = GAUSS_Q
    n = 2000
    beta, ratio, q = spec.loss_key
    got = sample_prv(spec, LossDirection.REMOVE, derive_rng(3, "h"), n)
    r = derive_rng(3, "h")
    z = ggdist.sample(GGParams(beta, 1.0), r, n)
    keep = r.random(n) < q
    u = np.where(keep, ratio - z, z)
    ell = kernels.gg_loss(u, ratio, beta, 1.0)
    expected = kernels.mixture_log_ratio(ell, q)
    npt.assert_array_equal(got, expected)


def test_subsampled_add_replicates_by_hand():
    spec = GAUSS_Q
    n = 2000
    beta, ratio, q = spec.loss_key
    got = sample_prv(spec, LossDirection.ADD, derive_rng(4, "h"), n)
    r = derive_rng(4, "h")
    z = ggdist.sample(GGParams(beta, 1.0), r, n)
    ell = kernels.gg_loss(z, ratio, beta, 1.0)
    expected = -kernels.mixture_log_ratio(ell, q)
    npt.assert_array_equal(got, expected)


def test_directions_for():
    assert directions_for(GAUSS) == (LossDirection.REMOVE,)
    assert directions_for(GAUSS_Q) == (LossDirection.REMOVE, LossDirection.ADD)
    q1 = MechanismSpec(GGParams(2.0, 1.0), 1.0, 1.0)
    assert directions_for(q1) == (LossDirection.REMOVE,)


# -- multidimensional losses ---------------------------------------------------

def _sign_pattern_atom_mass(mu) -> float:
    """Exact P(loss == max) for beta=1: enumerate the 2^d sign patterns of Z.

    The per-coordinate term (|z - mu_i| - |z|) peaks at mu_i exactly when
    z <= 0, so the atom keeps the patterns whose active coordinates are all
    negative.
    """
    d = len(mu)
    hits = sum(1 for pattern in product((-1, 1), repeat=d)
               if all(s < 0 for s, m in zip(pattern, mu) if m > 0))
    return hits / 2 ** d


def test_multidim_validation(rng):
    with pytest.raises(ParameterError):
        multidim_prv_sample(2.5, 1.0, [1.0, 0.0], 1.0, rng, 10)
    with pytest.raises(ParameterError):
        multidim_prv_sample(2.0, 1.0, np.ones(65) / 65.0 ** 0.5, 1.0, rng, 10)
    with pytest.raises(ParameterError):
        multidim_prv_sample(2.0, 1.0, [0.5, 0.5], 1.0, rng, 10)  # l2 norm != 1


def test_multidim_one_hot_matches_one_dim(rng):
    beta, sigma, d = 1.5, 1.0, 8
    mu = np.zeros(d)
    mu[0] = 1.0
    multi = multidim_prv_sample(beta, sigma, mu, 1.0, rng, 20_000)
    single = sample_prv(MechanismSpec(GGParams(beta, sigma), 1.0),
                        LossDirection.REMOVE, rng, 20_000)
    assert stats.ks_2samp(multi, single).statistic < 0.02


def test_multidim_split_mu_atom_mass(rng):
    # beta=1, d=2, mu=(1/2, 1/2): the top atom halves to 1/4, versus 1/2 for
    # a one-hot direction -- the counterexample to dimension independence
    # below beta extremes.
    sigma = 1.0
    n = 40_000
    y = multidim_prv_sample(1.0, sigma, [0.5, 0.5], 1.0, rng, n)
    edge = 1.0 / sigma
    frac_split = np.mean(np.abs(y - edge) < 1e-9)
    assert abs(frac_split - _sign_pattern_atom_mass([0.5, 0.5])) < 0.02
    y1 = multidim_prv_sample(1.0, sigma, [1.0, 0.0], 1.0, rng, n)
    frac_hot = np.mean(np.abs(y1 - edge) < 1e-9)
    assert abs(frac_hot - _sign_pattern_atom_mass([1.0, 0.0])) < 0.02
    assert _sign_pattern_atom_mass([0.5, 0.5]) == 0.25
    assert _sign_pattern_atom_mass([1.0, 0.0]) == 0.5


# -- closed-form reference CDFs -------------------------------------------------

def test_gaussian_prv_cdf_values():
    # eta = 1/2 at unit noise/sensitivity; the CDF is Phi((x - 1/2) / 1).
    npt.assert_allclose(gaussian_prv_cdf(0.5, 1.0, 1.0), 0.5, rtol=1e-13)
    npt.assert_allclose(gaussian_prv_cdf(1.5, 1.0, 1.0),
                        stats.norm.cdf(1.0), rtol=1e-13)
    with pytest.raises(ParameterError):
        gaussian_prv_cdf(0.0, -1.0, 1.0)


def test_laplace_prv_cdf_shape():
    b, delta = 1.0, 1.0
    edge = delta / b
    assert laplace_prv_cdf(-edge - 1e-9, b, delta) == 0.0
    npt.assert_allclose(laplace_prv_cdf(-edge, b, delta),
                        0.5 * math.exp(-edge), rtol=1e-12)
    npt.assert_allclose(laplace_prv_cdf(edge - 1e-12, b, delta), 0.5, rtol=1e-9)
    assert laplace_prv_cdf(edge, b, delta) == 1.0


def test_laplace_prv_cdf_matches_sampled_law(rng):
    y = sample_prv(LAP, LossDirection.REMOVE, rng, 200_000)
    grid = np.linspace(-1.2, 1.2, 241)
    empirical = np.searchsorted(np.sort(y), grid, side="right") / y.size
    assert np.max(np.abs(empirical - laplace_prv_cdf(grid, 1.0, 1.0))) < 0.005
    # Endpoint atoms: 1/2 at +1 and exp(-1)/2 at -1 (counted in a window;
    # beta=1 losses land within rounding of the edge, not exactly on it).
    assert abs(np.mean(np.abs(y - 1.0) < 1e-9) - 0.5) < 0.01
    assert abs(np.mean(np.abs(y + 1.0) < 1e-9) - 0.5 * math.exp(-1.0)) < 0.01


# -- exact single-shot loss CDF and moments ------------------------------------

def test_loss_cdf_closed_forms():
    # beta = 2 is the Gaussian PRV and beta = 1 the Laplace PRV, atoms and all.
    y = np.concatenate([np.linspace(-6.0, 6.0, 241), [-1.0, 1.0]])
    npt.assert_allclose(loss_cdf(GAUSS, LossDirection.REMOVE)(y),
                        gaussian_prv_cdf(y, 1.0, 1.0), rtol=1e-12, atol=1e-300)
    for direction in LossDirection:
        npt.assert_allclose(loss_cdf(LAP, direction)(y),
                            laplace_prv_cdf(y, 1.0, 1.0), rtol=1e-12)
    # A scalar loss gives a float, as the reference CDFs do.
    got = loss_cdf(GAUSS, LossDirection.REMOVE)(0.5)
    assert isinstance(got, float) and got == pytest.approx(0.5, rel=1e-12)


@pytest.mark.parametrize("beta", [1.01, 1.5, 3.0, 8.0])
def test_loss_cdf_inverts_the_loss(beta):
    # ell is non-increasing in t, so P(ell(T) <= ell(t)) = P(T >= t), for t
    # on both sides of the kinks 0 and Delta and far into both tails.
    spec = MechanismSpec(GGParams(beta, 0.8), 0.3)
    t = np.concatenate([np.linspace(-3.0, 3.0, 601), [-1e-9, 1e-9, 0.3]])
    got = loss_cdf(spec, LossDirection.REMOVE)(loss_function(spec, t))
    npt.assert_allclose(got, 1.0 - ggdist.cdf(spec.noise, t), rtol=1e-9,
                        atol=1e-13)


@pytest.mark.parametrize("q", [None, 0.1])
@pytest.mark.parametrize("beta", [1.0, 1.5, 3.0])
def test_loss_cdf_matches_sampled_law(beta, q, rng):
    spec = MechanismSpec(GGParams(beta, 2.0), 1.0, q)
    for direction in directions_for(spec):
        # Between the extremes: at beta = 1 the atoms at the ends of the
        # range are drawn only to within rounding.
        y = np.sort(sample_prv(spec, direction, rng, 200_000))
        grid = np.linspace(y[0], y[-1], 403)[1:-1]
        empirical = np.searchsorted(y, grid, side="right") / y.size
        cdf = loss_cdf(spec, direction)(grid)
        assert np.all(np.diff(cdf) >= 0.0)
        assert np.max(np.abs(empirical - cdf)) < 0.005


@pytest.mark.parametrize("beta", [1.0, 2.0, 3.0])
def test_subsampled_loss_cdf_support(beta):
    # REMOVE losses lie at or above log(1 - q), ADD losses at or below
    # -log(1 - q); the CDF is exactly 0 and 1 there and tends to the other
    # limit far out.
    q = 0.3
    spec = MechanismSpec(GGParams(beta, 1.0), 1.0, q)
    edge = math.log1p(-q)
    remove = loss_cdf(spec, LossDirection.REMOVE)
    add = loss_cdf(spec, LossDirection.ADD)
    npt.assert_array_equal(remove(np.array([-50.0, edge])), [0.0, 0.0])
    npt.assert_array_equal(add(np.array([-edge, 50.0])), [1.0, 1.0])
    assert remove(np.array([200.0]))[0] == pytest.approx(1.0, abs=1e-12)
    assert add(np.array([-200.0]))[0] == pytest.approx(0.0, abs=1e-12)


def test_loss_cdf_depends_only_on_the_loss_key():
    y = np.linspace(-3.0, 3.0, 61)
    for direction in LossDirection:
        a = loss_cdf(MechanismSpec(GGParams(1.5, 3.0), 1.5, 0.3), direction)(y)
        b = loss_cdf(MechanismSpec(GGParams(1.5, 0.6), 0.3, 0.3), direction)(y)
        npt.assert_array_equal(a, b)
    with pytest.raises(ParameterError):
        loss_cdf(GAUSS, "remove")


def _symmetric_grids(beta: float,
                     ratio: float) -> list[tuple[np.ndarray, bool]]:
    """``(edges, saturates)`` pairs of grids symmetric about 0: a uniform
    accountant grid over the bulk of the loss, and two log-spaced grids (of
    even and of odd length, the odd one with 0 at its centre) that reach
    past the loss at the root ``w = 2 (c + x0)``, so that both ends of every
    CDF have saturated."""
    from ggprivacy.ggdist import _saturation
    far = (2.0 * (ratio + _saturation(beta)[0])) ** beta + 50.0
    m = 600
    uniform = (np.arange(-m, m + 2, dtype=np.float64) - 0.5) * 8.0 / (m + 0.5)
    upper = np.geomspace(1e-4, far, 1500)
    return [(uniform, False),
            (np.concatenate([-upper[::-1], upper]), True),
            (np.concatenate([-upper[::-1], [0.0], upper]), True)]


@pytest.mark.parametrize("ratio", [0.05, 1.0, 20.0])
@pytest.mark.parametrize("q", [None, 1e-3, 0.1, 0.9, 1.0])
@pytest.mark.parametrize("beta", [1.0, 1.01, 1.5, 2.0, 3.0, 8.0])
def test_loss_cdfs_on_grid_bitwise_equal_pointwise(beta, q, ratio):
    # The shared, mirrored root solve and the skipped saturated tails change
    # no bit of any direction's CDF.
    spec = MechanismSpec(GGParams(beta, 1.0), ratio, q)
    for edges, saturates in _symmetric_grids(beta, ratio):
        got = loss_cdfs_on_grid(spec, edges)
        assert list(got) == list(directions_for(spec))
        for direction, cdf in got.items():
            pointwise = loss_cdf(spec, direction)(edges)
            npt.assert_array_equal(cdf.view(np.int64),
                                   pointwise.view(np.int64))
            if saturates:    # at beta = 1, the atoms that bound the loss
                assert (cdf[0], cdf[-1]) == (0.0, 1.0)


def test_loss_cdfs_on_grid_needs_a_symmetric_grid():
    with pytest.raises(InputError):
        loss_cdfs_on_grid(GAUSS, np.array([-1.0, 0.5, 1.0]))
    with pytest.raises(InputError):
        loss_cdfs_on_grid(GAUSS, np.zeros((2, 2)))


@pytest.mark.parametrize("beta", [1.0, 1.01, 1.5, 2.0, 3.0, 8.0])
def test_upper_tail_saturation_thresholds(beta):
    # At beta != 2 the grid evaluator skips every tail past these
    # thresholds, taking the saturated value; a scipy whose tails stopped
    # saturating there fails here instead of moving a CDF.
    from ggprivacy.ggdist import _TAIL_ONE, _TAIL_ZERO, _saturation, _upper_tail
    x0, x1 = _saturation(beta)
    beyond = np.array([1.0, 1.0 + 1e-9, 1.5, 10.0, np.inf])
    npt.assert_array_equal(_upper_tail(x0 * beyond, beta), 0.0)
    npt.assert_array_equal(_upper_tail(-x1 * beyond, beta), 1.0)
    npt.assert_array_equal(_upper_tail(-x0 * beyond, beta), 1.0)
    # The margin that makes a point a few ulp short of a threshold safe.
    assert _upper_tail(np.array([(0.95 * _TAIL_ZERO) ** (1.0 / beta)]),
                       beta)[0] == 0.0
    assert _upper_tail(np.array([-(0.9 * _TAIL_ONE) ** (1.0 / beta)]),
                       beta)[0] == 1.0
    # Inside the thresholds the tail is still resolved.
    assert 0.0 < _upper_tail(np.array([0.8 * x1]), beta)[0] < 1.0


def test_loss_moments_gaussian_closed_form():
    # The Gaussian PRV at noise std sigma / sqrt(2) is N(r**2, 2 r**2) with
    # r = Delta / sigma.
    for sigma in (0.2, 1.0, 8.0):
        r = 1.0 / sigma
        mean, var = loss_moments(MechanismSpec(GGParams(2.0, sigma), 1.0),
                                 LossDirection.REMOVE)
        assert mean == pytest.approx(r * r, rel=1e-10)
        assert var == pytest.approx(2.0 * r * r, rel=1e-10)


@pytest.mark.parametrize("beta,sigma,q", [
    (1.0, 2.0, None), (1.5, 0.5, None), (3.0, 4.0, None), (1.5, 2.0, 0.1),
    (2.5, 1.0, 0.3), (1.0, 1.0, 0.05),
])
def test_loss_moments_match_adaptive_quadrature(beta, sigma, q):
    spec = MechanismSpec(GGParams(beta, sigma), 1.0, q)
    ratio = 1.0 / sigma
    unit = GGParams(beta, 1.0)
    for direction in directions_for(spec):
        shifts = ((1.0, 0.0),) if q is None or direction is LossDirection.ADD \
            else ((1.0 - q, 0.0), (q, ratio))

        def loss(u):
            t = sigma * u
            if q is None:
                return loss_function(spec, t)
            return subsampled_loss_function(spec, t, direction)

        def moment(power):
            return sum(w * integrate.quad(
                lambda u: loss(u) ** power * ggdist.pdf(unit, u, shift),
                -60.0, 60.0,
                points=(0.0, ratio), limit=400, epsabs=0.0,
                epsrel=1e-11)[0] for w, shift in shifts)

        # The fixed panels converge algebraically at the kinks; a window
        # sized from these moments needs far fewer digits than this.
        mean, var = loss_moments(spec, direction)
        assert mean == pytest.approx(moment(1), rel=1e-7)
        assert var == pytest.approx(moment(2) - moment(1) ** 2, rel=1e-7)
