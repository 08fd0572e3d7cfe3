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
    laplace_prv_cdf,
    loss_cdf,
    loss_function,
    loss_masses,
    loss_moments,
    multidim_prv_sample,
    sample_prv,
    subsampled_loss_function,
)
from oracles import gaussian_prv_cdf, loss_cdfs_on_grid, loss_piece_masses

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
    # The exact law holds all its mass in [-1, 1], with an atom at each end.
    for direction in LossDirection:
        cdf = loss_cdf(LAP, direction)
        assert cdf(math.nextafter(-1.0, -math.inf)) == 0.0 < cdf(-1.0)
        assert cdf(math.nextafter(1.0, -math.inf)) < 1.0 == cdf(1.0)


@pytest.mark.parametrize("q", [0.3, 0.01])
@pytest.mark.parametrize("direction", list(LossDirection))
def test_subsampled_loss_range_matches_dense_extremes(q, direction):
    # At beta = 1 the base loss is flat beyond [0, Delta], so a dense grid
    # over a wider interval attains both ends of the range; the exact CDF
    # holds all its mass between them, with an atom at each.
    spec = MechanismSpec(GGParams(1.0, 2.0), 1.5, q)
    vals = subsampled_loss_function(spec, np.linspace(-4.0, 5.5, 20001),
                                    direction)
    lo, hi = vals.min(), vals.max()
    cdf = loss_cdf(spec, direction)
    slack = 1e-14 * max(abs(lo), abs(hi))
    assert cdf(lo - slack) == 0.0 < cdf(lo + slack)
    assert cdf(hi - slack) < 1.0 == cdf(hi + slack)


@pytest.mark.parametrize("beta", [1.5, 2.0, 3.0])
@pytest.mark.parametrize("q", [None, 1.0, 0.3])
def test_loss_range_unbounded_above_beta_one(beta, q):
    # At beta = 1 the loss would lie in [-1/2, 1/2] (Delta/sigma = 1/2);
    # above it the exact law has mass beyond +-1 on each unbounded side.
    spec = MechanismSpec(GGParams(beta, 2.0), 1.0, q)
    for direction in LossDirection:
        cdf = loss_cdf(spec, direction)
        if q is None or q == 1.0:
            assert 0.0 < cdf(-1.0) and cdf(1.0) < 1.0
        elif direction is LossDirection.REMOVE:
            # log(M/Q) >= log(1 - q) and is unbounded above
            floor = math.log1p(-q)
            assert cdf(floor) == 0.0 < cdf(floor + 0.1)
            assert cdf(1.0) < 1.0
        else:
            ceiling = -math.log1p(-q)
            assert 0.0 < cdf(-1.0)
            assert cdf(ceiling - 0.1) < 1.0 == cdf(ceiling)


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
    past the loss at the root ``w = 2 (c + x0)``, ``x0 = _TAIL_ZERO**(1 /
    beta)``, so that both ends of every CDF have saturated."""
    from ggprivacy.ggdist import _TAIL_ZERO
    far = (2.0 * (ratio + _TAIL_ZERO ** (1.0 / beta))) ** beta + 50.0
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
    # The shared, mirrored root solve and the roots skipped past the cut
    # change no bit of any direction's CDF.
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
    # The loss laws take every tail past the cut, at |x| >= x1, as exactly 0
    # or 1; a scipy whose tails stopped saturating at -x1 fails here instead
    # of moving a result.
    from ggprivacy.ggdist import _TAIL_ONE, _TAIL_ZERO, _upper_tail
    x0, x1 = _TAIL_ZERO ** (1.0 / beta), _TAIL_ONE ** (1.0 / beta)
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


def _full_precision_tails(spec: MechanismSpec, direction: LossDirection,
                          y: np.ndarray) -> list[tuple[float, np.ndarray]]:
    """``(weight, x)`` pairs with ``loss_cdf(spec, direction)(y)`` equal to
    the sum of ``weight * P(Z >= x)`` when every root is solved and every
    tail is taken at full precision (`ggdist._upper_tail`)."""
    from ggprivacy import prv
    beta, ratio, q = spec.loss_key

    def crossing(theta, upper):
        w = None if beta in (1.0, 2.0) else \
            prv._half_gap_root(beta, 0.5 * ratio, np.abs(theta))
        return prv._crossing(beta, ratio, theta, upper, w=w)

    if q is None:
        return [(1.0, crossing(y, False))]
    if direction is LossDirection.ADD:
        return [(1.0, crossing(-prv._unmix(-y, q), False))]
    z = crossing(-prv._unmix(y, q), True)
    return [(1.0 - q, -z), (q, ratio - z)]


def _full_precision_cdf(spec: MechanismSpec, direction: LossDirection,
                        y: np.ndarray) -> np.ndarray:
    from ggprivacy.ggdist import _upper_tail
    beta = spec.loss_key[0]
    parts = [weight * _upper_tail(x, beta)
             for weight, x in _full_precision_tails(spec, direction, y)]
    return parts[0] if len(parts) == 1 else parts[0] + parts[1]


@pytest.mark.parametrize("ratio", [0.25, 1.0])
@pytest.mark.parametrize("q", [None, 0.1])
@pytest.mark.parametrize("beta", [1.0, 1.5, 3.0, 4.0])
def test_loss_cdf_tails_round_down_only_past_saturation(beta, q, ratio):
    # Against every root solved: the loss CDFs agree bitwise wherever their
    # root is solved, below the cut, and past it lie below by at most
    # P(Z >= x1) <= 1.5e-20.  A lower CDF moves mass to higher loss, a
    # pessimistic rounding.  At beta = 1 no root is solved and nothing moves.
    from ggprivacy import prv
    from ggprivacy.ggdist import _TAIL_ONE, _upper_tail
    moved = _upper_tail(np.array([_TAIL_ONE ** (1.0 / beta)]), beta)[0]
    assert 0.0 < moved <= 1.5e-20
    spec = MechanismSpec(GGParams(beta, 1.0), ratio, q)
    bitten = 0
    for edges, _ in _symmetric_grids(beta, ratio):
        got = loss_cdfs_on_grid(spec, edges)
        crossings = prv._edge_crossings(spec, edges)
        for direction, cdf in got.items():
            want = _full_precision_cdf(spec, direction, edges)
            solved = np.isfinite(crossings[direction])
            npt.assert_array_equal(cdf[solved].view(np.int64),
                                   want[solved].view(np.int64))
            gap = want - cdf
            assert np.all(gap >= 0.0) and np.all(gap <= moved)
            bitten += np.count_nonzero(gap)
    # The grids reach where the rule rounds down.
    assert (bitten > 0) == (beta > 1.0)


@pytest.mark.parametrize("beta,ratio,q,k", [
    (1.0, 0.25, None, 100), (3.0, 0.25, None, 100),     # the account workload
    (1.5, 0.4684041871018325, 0.1, 50),                 # calibrate's answer
    (1.0, 1.0, 0.05, 400), (1.2, 1.0, None, 20), (1.5, 20.0, 1e-4, 10),
    (3.0, 1.0, 0.1, 1), (4.0, 1.0, None, 10 ** 5), (8.0, 0.5, 0.01, 1000),
])
def test_auto_window_is_the_full_precision_window(beta, ratio, q, k,
                                                  monkeypatch):
    # The window loop reads the masses below -L and above L as tails at
    # their noise crossings, which resolve them down to 1.5e-20: far below
    # _WINDOW_TAIL / k for any k under about 6e7.  So every window is the
    # one that full-precision tails give.
    from ggprivacy import accountant
    from ggprivacy.ggdist import _upper_tail
    spec = MechanismSpec(GGParams(beta, 1.0), ratio, q, k)
    L = accountant._auto_config(spec, k, 2 ** 12).trunc_L

    def full_precision(spec, h, m):
        # The pieces below, inside and above [-h/2, h/2] (m = 0).
        assert m == 0
        edge = np.array([0.5 * h])
        pieces = {}
        for d in directions_for(spec):
            below = _full_precision_cdf(spec, d, -edge)[0]
            above = sum(weight * _upper_tail(-x, beta)[0] for weight, x
                        in _full_precision_tails(spec, d, edge))
            pieces[d] = np.array([below, 1.0 - below - above, above])
        return pieces

    monkeypatch.setattr(accountant, "loss_masses", full_precision)
    assert accountant._auto_config(spec, k, 2 ** 12).trunc_L == L


@pytest.mark.parametrize("q", [None, 0.1])
@pytest.mark.parametrize("beta", [1.01, 1.5, 3.0, 4.0, 8.0])
def test_roots_are_solved_only_below_the_cut(beta, q, monkeypatch):
    # A root w >= x1 + c feeds only saturated tails, so it is not solved:
    # _half_gap_root sees only |theta| below the cut at w = x1 + c, and the
    # grids hold entries above it.
    from ggprivacy import prv
    from ggprivacy.ggdist import _TAIL_ONE
    ratio = 1.0
    c = 0.5 * ratio
    w_c = _TAIL_ONE ** (1.0 / beta) + c
    cut = (w_c + c) ** beta - (w_c - c) ** beta
    seen = []
    solve = prv._half_gap_root

    def counted(beta, c, a):
        seen.append(a.copy())
        return solve(beta, c, a)

    monkeypatch.setattr(prv, "_half_gap_root", counted)
    spec = MechanismSpec(GGParams(beta, 1.0), ratio, q)
    above = 0
    for edges, _ in _symmetric_grids(beta, ratio):
        theta = edges if q is None else -prv._unmix(edges, q)
        above += np.count_nonzero(np.abs(theta) >= cut * (1.0 + 1e-6))
        seen.clear()
        loss_cdfs_on_grid(spec, edges)
        for direction in directions_for(spec):
            loss_cdf(spec, direction)(edges)
        assert len(seen) == 1 + len(directions_for(spec))
        for a in seen:
            assert a.size == 0 or a.max() < cut * (1.0 + 1e-6)
    assert above > 0


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("beta", [1.0, 1.5])
def test_loss_cut_where_the_ratio_swamps_x1(beta):
    # At Delta/sigma = 1e200, x1 + Delta/sigma rounds to Delta/sigma, and
    # the cut takes its limit (Delta/sigma)**beta without a warning; at
    # beta = 1 account reads the loss's bound as before.
    from ggprivacy import account, prv
    ratio = 1e200
    assert prv._loss_cut(beta, 0.5 * ratio) == pytest.approx(
        ratio ** beta * (1.0 + prv._CUT_MARGIN), rel=1e-15)
    if beta == 1.0:
        spec = MechanismSpec(GGParams(1.0, 1e-200), 1.0, None, 3)
        assert account(spec, delta=1e-5, bins=2 ** 8).epsilon == \
            pytest.approx(3.0 * ratio, rel=0.01)


def _oracle_pieces(spec: MechanismSpec, direction: LossDirection, h: float,
                   m: int, mass: np.ndarray) -> list[int]:
    """The pieces of `loss_masses` that the oracle test checks: the two open
    end pieces and the four smallest, the three largest (the atoms at beta
    = 1), the ones that hold the image of a density kink, the one with the
    widest noise crossing interval, and eight spread over the rest."""
    from ggprivacy import prv
    beta, ratio, q = spec.loss_key
    live = np.flatnonzero(mass > 0.0)
    pieces = {int(live[0]), int(live[-1])}
    pieces |= set(np.argsort(np.where(mass > 0.0, mass, np.inf))[:4].tolist())
    pieces |= set(np.argsort(mass)[-3:].tolist())
    pieces |= set(np.linspace(live[0], live[-1], 8).astype(int).tolist())
    # The loss at the kinks u = 0 and u = Delta/sigma.
    kinks = prv._base_loss(spec, np.array([0.0, ratio]))
    if q is not None:
        kinks = prv._directed_loss(kinks, q, direction)
    pieces |= {int(math.ceil(y / h - 0.5)) + m + 1 for y in kinks
               if abs(y) < (m + 0.5) * h}
    # The widest noise interval between two solved edges.
    y = (np.arange(-m, m + 2, dtype=np.float64) - 0.5) * h
    z = prv._edge_crossings(spec, y)[direction]
    with np.errstate(invalid="ignore"):     # inf - inf past the solved edges
        width = np.abs(np.diff(z))
    width[~np.isfinite(width)] = 0.0
    pieces.add(int(np.argmax(width)) + 1)
    return sorted(pieces)


@pytest.mark.parametrize("q", [None, 0.1])
@pytest.mark.parametrize("beta", [1.0, 1.05, 1.5, 2.0, 3.0])
def test_loss_masses_match_a_multiprecision_oracle(beta, q):
    # Each checked piece's mass within 1e-10 relative of mpmath's, from the
    # atoms and the kink to the tails: at beta = 3 the smallest checked
    # cells hold below 1e-30, and at beta = 1.05 the widest spans several
    # noise units.
    from ggprivacy import accountant
    spec = MechanismSpec(GGParams(beta, 1.0), 1.0, q, 10)
    cfg = accountant._auto_config(spec, 10, 2 ** 12)
    h, m = cfg.mesh_h, cfg.half_bins
    smallest = 1.0
    for direction, mass in loss_masses(spec, h, m).items():
        pieces = _oracle_pieces(spec, direction, h, m, mass)
        want = np.array(loss_piece_masses(spec, direction, h, m, pieces))
        npt.assert_allclose(mass[pieces], want, rtol=1e-10, atol=0.0)
        smallest = min(smallest, want[want > 0.0].min())
    if beta == 3.0:
        assert smallest < 1e-30


@pytest.mark.parametrize("q,direction", [(None, LossDirection.REMOVE),
                                         (0.1, LossDirection.ADD)])
@pytest.mark.parametrize("beta", [1.5, 3.0, 8.0])
def test_loss_masses_and_loss_cdf_share_one_tail_rule(beta, q, direction):
    # The first piece with mass holds the whole tail below its upper edge,
    # so it is the CDF there, resolved to full precision by both: 1.3e-23,
    # 7.7e-44 and 1.1e-311 for the plain specs.
    from ggprivacy import accountant
    spec = MechanismSpec(GGParams(beta, 1.0), 1.0, q, 10)
    cfg = accountant._auto_config(spec, 10, 2 ** 12)
    h, m = cfg.mesh_h, cfg.half_bins
    mass = loss_masses(spec, h, m)[direction]
    t = int(np.flatnonzero(mass > 0.0)[0])
    edge = (t - m - 0.5) * h
    assert 0.0 < mass[t] < 1e-20
    assert loss_cdf(spec, direction)(edge) == pytest.approx(mass[t],
                                                            rel=1e-13)


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
