"""Privacy-loss variables: point losses, samplers, reference CDFs."""

from __future__ import annotations

import math
from itertools import product

import numpy as np
import numpy.testing as npt
import pytest
from scipy import stats

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
    loss_function,
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


# -- point losses -------------------------------------------------------------

def test_loss_function_exact_points():
    # (|t - 1|^2 - |t|^2) / sqrt(2)^2; the denominator rounds to
    # 2.0000000000000004, so the endpoints are exact only to one ulp.
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
    # Noise block first, then one uniform block for the inclusion draws.
    spec = GAUSS_Q
    n, q = 2000, spec.sample_rate
    got = sample_prv(spec, LossDirection.REMOVE, derive_rng(3, "h"), n)
    r = derive_rng(3, "h")
    z = ggdist.sample(spec.noise, r, n)
    keep = r.random(n) < q
    t = np.where(keep, spec.sensitivity - z, z)
    ell = loss_function(MechanismSpec(spec.noise, spec.sensitivity), t)
    expected = kernels.mixture_log_ratio(ell, q)
    npt.assert_array_equal(got, expected)


def test_subsampled_add_replicates_by_hand():
    spec = GAUSS_Q
    n, q = 2000, spec.sample_rate
    got = sample_prv(spec, LossDirection.ADD, derive_rng(4, "h"), n)
    r = derive_rng(4, "h")
    z = ggdist.sample(spec.noise, r, n)
    ell = loss_function(MechanismSpec(spec.noise, spec.sensitivity), z)
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
