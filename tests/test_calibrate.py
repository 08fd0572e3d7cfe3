"""Noise calibration: sigma solver, equivalent families, tail weights."""

from __future__ import annotations

import math
import re

import numpy as np
import pytest
from scipy import optimize, special, stats

from ggprivacy import (
    AccountantConfig,
    AccountingInconsistencyError,
    GGParams,
    ParameterError,
    SolverError,
    account,
    ggdist,
)
from ggprivacy.calibrate import (
    FamilyPoint,
    FamilyResult,
    PrivacyTarget,
    _check_monotone,
    equivalent_family,
    family_from_csv,
    family_to_csv,
    solve_sigma,
    tail_weight,
    tail_weights_to_csv,
)
from ggprivacy.prv import MechanismSpec

# Unit-scale solver settings: a small grid keeps each probe cheap; the
# deep-tail regime is exercised on larger grids in the acceptance suite.
FAST = dict(samples_n=50_000, bins=2 ** 13)
TARGET = dict(epsilon=2.0, delta=1e-3)
TOL = 0.2


def analytic_gauss_sigma(epsilon: float, delta: float) -> float:
    """Noise scale (in this package's parameterization) for one Gaussian
    release: GG(2, sigma) has std sigma/sqrt(2)."""
    def delta_of(s):
        a, b = 1.0 / (2.0 * s), epsilon * s
        return stats.norm.cdf(a - b) - math.exp(epsilon) * stats.norm.cdf(-a - b)
    s = optimize.brentq(lambda s: delta_of(s) - delta, 1e-3, 100.0, xtol=1e-10)
    return s * math.sqrt(2.0)


# -- targets -------------------------------------------------------------------

@pytest.mark.parametrize("kwargs", [
    dict(epsilon=0.0, delta=1e-5),
    dict(epsilon=1.0, delta=0.0),
    dict(epsilon=1.0, delta=1.0),
    dict(epsilon=1.0, delta=1e-5, compositions=0),
    dict(epsilon=1.0, delta=1e-5, sample_rate=0.0),
])
def test_target_validation(kwargs):
    with pytest.raises(ParameterError):
        PrivacyTarget(**kwargs)


# -- solver ---------------------------------------------------------------------

def test_solve_sigma_meets_target_and_reaccounts():
    target = PrivacyTarget(**TARGET)
    solved = solve_sigma(2.0, target, tolerance=TOL, **FAST)
    assert abs(solved.epsilon - target.epsilon) <= TOL / 2
    # Each probe is a deterministic accountant run, so a fresh one lands on
    # the identical epsilon.
    spec = MechanismSpec(GGParams(2.0, solved.sigma), 1.0)
    again = account(spec, delta=target.delta, **FAST)
    assert again.epsilon == solved.epsilon
    # And the scale is near the closed-form Gaussian calibration.
    assert solved.sigma == pytest.approx(
        analytic_gauss_sigma(target.epsilon, target.delta), rel=0.15)
    assert solved.bracket[0] <= solved.sigma <= solved.bracket[1] * (1 + 1e-12)
    assert solved.probes == len(solved.evaluations)


def test_solve_sigma_scales_with_sensitivity():
    target = PrivacyTarget(**TARGET)
    one = solve_sigma(2.0, target, tolerance=TOL, **FAST)
    two = solve_sigma(2.0, target, tolerance=TOL, sensitivity=2.0, **FAST)
    # Doubling sigma and the sensitivity keeps every probe's loss key.
    assert two.sigma == 2.0 * one.sigma
    assert two.epsilon == one.epsilon


def test_solve_sigma_scales_with_a_sensitivity_off_the_binary_grid():
    # At sensitivity 0.7 a probe's Delta/sigma can differ from the unit run's
    # by an ulp.  The accountant is a continuous function of that ratio, so
    # the solve takes the same path and lands on 0.7 times the unit sigma.
    target = PrivacyTarget(**TARGET)
    one = solve_sigma(2.0, target, tolerance=TOL, **FAST)
    scaled = solve_sigma(2.0, target, tolerance=TOL, sensitivity=0.7, **FAST)
    assert scaled.sigma == pytest.approx(0.7 * one.sigma, rel=1e-9)
    assert scaled.epsilon == pytest.approx(one.epsilon, rel=1e-9)
    assert scaled.probes == one.probes


def test_calibration_takes_only_an_int_seed():
    gen = np.random.default_rng(0)
    with pytest.raises(ParameterError, match="rng"):
        solve_sigma(2.0, PrivacyTarget(**TARGET), rng=gen, **FAST)
    with pytest.raises(ParameterError, match="rng"):
        equivalent_family([1.0, 2.0], PrivacyTarget(**TARGET), rng=gen, **FAST)


def test_solve_sigma_gap_at_target_is_reported(monkeypatch):
    # A jump in epsilon(sigma) straddling the target: bisection shrinks the
    # bracket to float resolution without ever landing inside the window,
    # and the final check refuses to return a sigma it cannot certify.
    from types import SimpleNamespace

    from ggprivacy import calibrate

    calls = []

    def fake_account(spec, cfg=None, **kwargs):
        calls.append(spec.noise.sigma)
        eps = 2.5 if spec.noise.sigma < 2.0 else 1.5
        return SimpleNamespace(epsilon=eps)

    monkeypatch.setattr(calibrate, "account", fake_account)
    with pytest.raises(SolverError, match="did not land within") as exc:
        solve_sigma(2.0, PrivacyTarget(2.0, 1e-5), tolerance=0.05)
    # The message counts the probes that actually ran and names the stop.
    assert f"after {len(calls)} probes" in str(exc.value)
    assert len(calls) < 200
    assert "float resolution" in str(exc.value)


def test_solve_sigma_names_the_grid_when_epsilon_jumps_over_the_target():
    # At beta = 1 the loss's atoms move across cell edges as sigma moves, so
    # on a coarse grid epsilon(sigma) jumps past the target between adjacent
    # floats.  The message gives epsilon on both sides and names bins.
    with pytest.raises(SolverError, match="float resolution") as exc:
        solve_sigma(1.0, PrivacyTarget(4.0, 1e-5, 200, 0.05),
                    tolerance=0.01, bins=4096)
    text = str(exc.value)
    found = re.search(r"closest was (\S+) at sigma = (\S+), .* epsilon = "
                      r"(\S+) at the adjacent sigma = (\S+):", text)
    below, sigma_max, above, sigma_min = map(float, found.groups())
    assert below < 4.0 - 0.005 and above > 4.0 + 0.005
    assert sigma_min == np.nextafter(sigma_max, 0.0)
    assert "jumps by more than the tolerance between adjacent sigma" in text
    assert "more bins" in text


COARSE_CELLS = AccountantConfig(1.0, 2 ** 12).bins


def biased_account(calls, bias):
    """A stand-in for `account` with epsilon = 2 / sigma on every grid of
    more than 2^12 cells, and ``bias`` more on coarser ones."""
    from types import SimpleNamespace

    def fake_account(spec, cfg=None, *, bins, **kwargs):
        cells = (cfg or AccountantConfig(1.0, bins)).bins
        calls.append((spec.noise.beta, spec.noise.sigma, cfg, bins))
        eps = 2.0 / spec.noise.sigma
        return SimpleNamespace(
            epsilon=eps + bias if cells <= COARSE_CELLS else eps)
    return fake_account


@pytest.mark.parametrize("cfg", [None, AccountantConfig(20.0, 2 ** 16)],
                         ids=["bins", "cfg"])
def test_solve_sigma_caller_grid_decides_when_the_coarse_grid_is_biased(
        monkeypatch, cfg):
    # The coarse root lands 0.3 below the band on the caller's grid; the
    # caller's grid brackets the target itself and lands in the band.
    from ggprivacy import calibrate

    calls = []
    monkeypatch.setattr(calibrate, "account", biased_account(calls, 0.3))
    got = solve_sigma(2.0, PrivacyTarget(2.0, 1e-5), cfg, tolerance=0.05,
                      bins=2 ** 16)
    assert 2.0 - 0.025 <= got.epsilon <= 2.0
    assert got.epsilon == 2.0 / got.sigma  # a caller-grid value
    caller = (cfg or AccountantConfig(1.0, 2 ** 16)).bins
    cells = [c for _, _, c in got.evaluations]
    assert cells[0] == COARSE_CELLS and cells[-1] == caller
    assert set(cells) == {COARSE_CELLS, caller}
    assert got.probes == len(calls) == len(got.evaluations)
    first = next(eps for _, eps, c in got.evaluations if c == caller)
    assert first < 2.0 - 0.025  # the coarse root missed the band
    if cfg is not None:  # the coarse grid keeps the caller's window
        coarse_cfgs = {c for _, _, c, _ in calls if c is not cfg}
        assert {(c.trunc_L, c.bins) for c in coarse_cfgs} == {
            (20.0, COARSE_CELLS)}


@pytest.mark.parametrize("grid", [dict(bins=2 ** 11), dict(bins=2 ** 12),
                                  dict(cfg=AccountantConfig(15.0, 4096))],
                         ids=["bins-2048", "bins-4096", "cfg-4096"])
def test_solve_sigma_on_a_coarse_caller_grid_probes_only_that_grid(grid):
    cfg = grid.get("cfg")
    cells = (cfg or AccountantConfig(1.0, grid.get("bins", 2 ** 12))).bins
    got = solve_sigma(2.0, PrivacyTarget(2.0, 1e-5), tolerance=0.1, **grid)
    assert {c for _, _, c in got.evaluations} == {cells}
    assert 2.0 - 0.05 <= got.epsilon <= 2.0
    again = account(MechanismSpec(GGParams(2.0, got.sigma), 1.0), cfg,
                    delta=1e-5, bins=grid.get("bins", 2 ** 12))
    assert again.epsilon == got.epsilon


def test_solve_sigma_hands_off_when_the_coarse_grid_jumps_over_its_band():
    # The case above that 4096 bins cannot solve: on the coarse grid epsilon
    # jumps over the band, and the caller's 2^16-cell grid lands.
    target = PrivacyTarget(4.0, 1e-5, 200, 0.05)
    got = solve_sigma(1.0, target, tolerance=0.05, bins=2 ** 16)
    assert 4.0 - 0.025 <= got.epsilon <= 4.0
    coarse = [eps for _, eps, c in got.evaluations if c == COARSE_CELLS]
    assert coarse and not any(4.0 - 0.025 <= eps <= 4.0 for eps in coarse)
    # The coarse stage stops once its bracket around the jump is under 1e-3
    # relative, not at float resolution (61 coarse probes).
    assert len(coarse) <= 15 and got.probes == len(coarse) + 2
    again = account(MechanismSpec(GGParams(1.0, got.sigma), 1.0, 0.05, 200),
                    delta=1e-5, bins=2 ** 16)
    assert again.epsilon == got.epsilon


def test_equivalent_family_starts_each_shape_from_the_last_sigma(monkeypatch):
    from ggprivacy import calibrate

    calls = []
    monkeypatch.setattr(calibrate, "account", biased_account(calls, 0.0))
    fam = equivalent_family([1.0, 2.0, 3.0], PrivacyTarget(2.0, 1e-5),
                            tolerance=0.05, bins=2 ** 16)
    firsts = [next(sigma for b, sigma, _, _ in calls if b == beta)
              for beta in (1.0, 2.0, 3.0)]
    assert firsts == [1.0] + [p.sigma for p in fam.points[:-1]]


def test_solve_sigma_validation():
    with pytest.raises(ParameterError):
        solve_sigma(2.0, PrivacyTarget(2.0, 1e-5), tolerance=0.0, **FAST)
    # The bracket starts at sigma = sensitivity, so that is checked first.
    for sensitivity in (0.0, -1.0, math.inf, "1"):
        with pytest.raises(ParameterError, match="sensitivity"):
            solve_sigma(2.0, PrivacyTarget(2.0, 1e-5),
                        sensitivity=sensitivity, **FAST)


def test_monotone_guard_trips_on_real_rise():
    with pytest.raises(AccountingInconsistencyError):
        _check_monotone({1.0: 2.0, 2.5: 2.2}, slack=0.1)
    # Probes closer than the minimum ratio are never compared.
    _check_monotone({1.0: 2.0, 1.02: 2.2}, slack=0.1)
    _check_monotone({1.0: 2.0, 2.5: 1.0}, slack=0.1)


# -- families -------------------------------------------------------------------

@pytest.fixture(scope="module")
def small_family():
    target = PrivacyTarget(**TARGET)
    return equivalent_family([2.0, 1.0, 1.5], target, tolerance=TOL, **FAST)


def test_equivalent_family_sorted_and_on_target(small_family):
    betas = [p.beta for p in small_family.points]
    assert betas == sorted(betas) == [1.0, 1.5, 2.0]
    for p in small_family.points:
        assert abs(p.epsilon - TARGET["epsilon"]) <= TOL / 2
    assert isinstance(small_family.sigma_monotone, bool)


def test_family_csv_round_trip(small_family):
    text = family_to_csv(small_family)
    lines = text.strip().splitlines()
    assert lines[0] == "beta,sigma"
    assert len(lines) == 1 + len(small_family.points)
    back = family_from_csv(text)
    assert [p.beta for p in back] == [p.beta for p in small_family.points]
    # Written with 12 significant digits, so parse-back is approximate.
    assert [p.sigma for p in back] == pytest.approx(
        [p.sigma for p in small_family.points], rel=1e-10)


@pytest.mark.parametrize("text,problem", [
    ("beta,sigma\nabc,1\n", "row 2: beta 'abc'"),
    ("beta,sigma\n1,2\n2, x\n", "row 3: sigma 'x'"),
    ("beta,sigma\n", "no data rows"),
], ids=["bad-beta", "bad-sigma", "header-only"])
def test_family_from_csv_rejects_bad_cells_and_no_rows(text, problem):
    with pytest.raises(ParameterError, match=problem):
        family_from_csv(text)


def test_equivalent_family_rejects_empty():
    with pytest.raises(ParameterError):
        equivalent_family([], PrivacyTarget(2.0, 1e-5), **FAST)


# -- tail weights -----------------------------------------------------------------

def synthetic_family(betas, sigmas) -> FamilyResult:
    points = [FamilyPoint(beta=b, sigma=s, epsilon=2.0)
              for b, s in zip(betas, sigmas)]
    return FamilyResult(points=points, target=PrivacyTarget(2.0, 1e-5),
                        sigma_monotone=True)


def test_tail_weight_gaussian_closed_form():
    fam = synthetic_family([1.0, 2.0], [1.3, 2.1])
    result = tail_weight(fam, [1.0, 2.0, 4.0])
    for p in result.points:
        if p.beta == 2.0:
            assert p.weight == pytest.approx(
                float(special.erfc(p.tau / p.sigma)), rel=1e-10)
        expected = 2.0 * (1.0 - ggdist.cdf(GGParams(p.beta, p.sigma), p.tau))
        assert p.weight == pytest.approx(expected, rel=1e-12)
    assert len(result.points) == 6


def test_tail_weight_keeps_precision_in_the_far_tail():
    fam = synthetic_family([1.0, 2.0], [1.0, 1.0])
    result = tail_weight(fam, [4.0, 6.0, 7.0, 9.0])
    for p in result.points:
        want = special.erfc(p.tau) if p.beta == 2.0 else math.exp(-p.tau)
        # abs=0: pytest.approx would otherwise pass anything below 1e-12.
        assert p.weight == pytest.approx(float(want), rel=1e-12, abs=0.0)
    assert len(result.points) == 8


def test_tail_weight_smoothing_column():
    betas = [1.0, 1.5, 2.0, 2.5, 3.0]
    fam = synthetic_family(betas, [1.0, 1.2, 1.4, 1.6, 1.8])
    smooth = tail_weight(fam, [1.0], smooth=True)
    assert all(p.weight_smoothed is not None for p in smooth.points)
    rough = tail_weight(fam, [1.0], smooth=False)
    assert all(p.weight_smoothed is None for p in rough.points)
    text = tail_weights_to_csv(smooth)
    header = text.strip().splitlines()[0]
    assert header == "beta,tau,weight,weight_smoothed"
    assert tail_weights_to_csv(rough).splitlines()[0] == "beta,tau,weight"


def test_tail_weight_validates_cutoffs():
    fam = synthetic_family([2.0], [1.0])
    with pytest.raises(ParameterError):
        tail_weight(fam, [])
    with pytest.raises(ParameterError):
        tail_weight(fam, [-1.0])


def test_solve_sigma_frozen_result():
    # Recorded on a small grid; see FROZEN_ACCOUNT in test_accountant.py.
    # The seed is accepted and has no effect.
    got = solve_sigma(2.0, PrivacyTarget(2.0, 1e-5), rng=1, tolerance=0.2,
                      samples_n=30_000, bins=2 ** 12)
    assert got.sigma == pytest.approx(2.8907727890556107, rel=1e-9)
    assert got.epsilon == pytest.approx(1.945175283820278, rel=1e-9)
    assert got.probes == 4
