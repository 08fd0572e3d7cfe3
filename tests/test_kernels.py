"""Hot kernels: direct formulas, frozen values, stability and exact binning."""

from __future__ import annotations

import math

import numpy as np
import numpy.testing as npt
import pytest

from ggprivacy import kernels

# log(1 - q + q * exp(-ell)), frozen from a 50-digit evaluation.
MIXTURE_ORACLE = [
    (0.5, 0.01, -0.0039424546744665835),
    (-40.0, 0.01, 35.394829814011909),
    (40.0, 0.3, -0.35667494393873236),
    (-34.0, 1e-06, 20.184489443749633),   # just past the branch switch
    (-32.9, 1e-06, 19.084489447184585),   # just before it
    (0.0, 0.37, 0.0),
]


def _loss_inputs(rng):
    t = rng.uniform(-30.0, 30.0, size=4096)
    mu = 1.75
    beta = 1.6
    sigma_beta = 2.3 ** beta
    return t, mu, beta, sigma_beta


def test_backend_flag_is_consistent():
    assert kernels.BACKEND == "numpy"
    assert list(kernels.IMPLEMENTATIONS) == ["numpy"]
    for name, fn in kernels.IMPLEMENTATIONS["numpy"].items():
        assert getattr(kernels, name) is fn
    assert set(kernels.IMPLEMENTATIONS["numpy"]) == {
        "gg_loss", "mixture_log_ratio", "bin_counts", "signed_power_scale",
        "lbeta_norms"}


def test_gg_loss_matches_direct_formula(rng):
    t, mu, beta, sigma_beta = _loss_inputs(rng)
    expected = (np.abs(t - mu) ** beta - np.abs(t) ** beta) / sigma_beta
    npt.assert_allclose(kernels.gg_loss(t, mu, beta, sigma_beta), expected,
                        rtol=1e-12)


@pytest.mark.parametrize("ell,q,expected", MIXTURE_ORACLE)
def test_mixture_log_ratio_frozen_values(ell, q, expected):
    got = kernels.mixture_log_ratio(np.asarray([ell], dtype=np.float64), q)[0]
    npt.assert_allclose(got, expected, rtol=1e-13, atol=1e-15)


def test_mixture_log_ratio_branch_is_continuous():
    # The two evaluation branches must agree where they hand over.
    eps = 1e-9
    lo = kernels.mixture_log_ratio(np.asarray([-33.0 - eps]), 0.01)[0]
    hi = kernels.mixture_log_ratio(np.asarray([-33.0 + eps]), 0.01)[0]
    assert abs(lo - hi) < 1e-8


def test_bin_counts_hand_case():
    h, m = 0.5, 3
    y = np.asarray([0.0, 0.24, 0.26, -0.24, -0.26, 1.75, -1.75])
    # floor(y/h + 0.5): 0, 0, 1, 0, -1, then both half-width endpoints,
    # which round outward and are clamped into the edge bins.
    counts = kernels.bin_counts(y, h, m)
    assert counts.sum() == y.size
    expected = np.zeros(2 * m + 1, dtype=np.int64)
    expected[m + 0] += 3
    expected[m + 1] += 1
    expected[m - 1] += 1
    expected[2 * m] += 1
    expected[0] += 1
    npt.assert_array_equal(counts, expected)


def test_bin_counts_backend_exact(rng):
    h, m = 0.037, 211
    y = rng.uniform(-(m + 0.5) * h, (m + 0.5) * h, size=20000)
    reference = np.zeros(2 * m + 1, dtype=np.int64)
    for v in y:  # scalar loop: the semantics the vectorized kernel must keep
        reference[min(max(math.floor(v / h + 0.5), -m), m) + m] += 1
    assert reference.sum() == y.size
    npt.assert_array_equal(kernels.bin_counts(y, h, m), reference)


def test_signed_power_scale(rng):
    # sigma * g**inv_beta with the sign bit set where the bit is 1, bitwise,
    # in place; a zero gamma keeps its sign bit.
    sigma = 2.5
    for count in (7, 2048, 131075):
        for inv_beta in (1.0, 1.0 / 1.4):
            g = rng.standard_gamma(inv_beta, size=count)
            g[:2] = 0.0
            bits = rng.integers(0, 2, size=count).astype(np.uint8)
            bits[:2] = (0, 1)
            magnitude = sigma * g ** inv_beta
            expected = np.where(bits == 1, -magnitude, magnitude)
            out = kernels.signed_power_scale(g, bits, sigma, inv_beta)
            assert out is g
            npt.assert_array_equal(out.view(np.uint64),
                                   expected.view(np.uint64))
            assert np.signbit(out[:2]).tolist() == [False, True]


def test_lbeta_norms_values_and_parity(rng):
    rows = rng.normal(size=(257, 13))
    for beta in (1.0, 1.5, 2.0, 4.0):
        expected = (np.abs(rows) ** beta).sum(axis=1) ** (1.0 / beta)
        npt.assert_allclose(kernels.lbeta_norms(rows, beta), expected,
                            rtol=1e-11, err_msg=f"beta={beta}")
    npt.assert_allclose(kernels.lbeta_norms(rows, 2.0),
                        np.linalg.norm(rows, axis=1), rtol=1e-11)

