"""End-to-end acceptance gates, one test per numbered release criterion.

Each test pins its tolerances inline and drives the public API the way a
user would; conftest prints one PASS/FAIL line per criterion at the end of
the run.  The accountant is deterministic and every Monte-Carlo step seeds
deterministically (content-derived generators), so the whole module is
bitwise reproducible run to run.
"""

from __future__ import annotations

import math
import time

import mpmath
import numpy as np
import numpy.testing as npt
import pytest
from scipy import integrate, optimize, special, stats

from conftest import record_note
from ggprivacy import (
    AccountantConfig,
    DiscretePRV,
    GGParams,
    LossDirection,
    MechanismSpec,
    PrivacyTarget,
    account,
    compose,
    derive_rng,
    discretize_from_cdf,
    error_bounds,
    ggdist,
)
from ggprivacy.calibrate import equivalent_family, solve_sigma, tail_weight
from ggprivacy.mechanisms import (
    LogisticModel,
    TrainConfig,
    make_blobs,
    train_noisy_sgd,
)
from ggprivacy.prv import multidim_prv_sample, sample_prv
from ggprivacy.simulate import (
    SimConfig,
    auc_over_runner_up,
    exact_two_class_utility,
    hardmax_utility,
    make_histograms,
)
from oracles import convolve_direct, gaussian_prv_cdf

SEED = 61803398

# Solver runs share these accountant settings: a 2^16-bin grid keeps each
# probe well under a second; samples_n sizes only account's certificate.
ACCT = dict(samples_n=2_000_000, bins=2 ** 16)


def gauss_delta(eps: float, s: float = 1.0, sens: float = 1.0) -> float:
    """Closed-form delta(eps) of the Gaussian mechanism with noise std s."""
    a = sens / (2.0 * s)
    b = eps * s / sens
    return float(stats.norm.cdf(a - b) - math.exp(eps) * stats.norm.cdf(-a - b))


def gauss_epsilon(delta: float, s: float = 1.0, sens: float = 1.0) -> float:
    return float(optimize.brentq(lambda e: gauss_delta(e, s, sens) - delta,
                                 0.0, 60.0, xtol=1e-12))


def test_criterion_01_gaussian_single_shot():
    """Default-config accounting of GG(2, sqrt(2)) at delta = 1e-5 lands
    within +-0.05 of the analytic Gaussian curve (noise std 1), in < 60 s."""
    start = time.perf_counter()
    result = account(MechanismSpec(GGParams(2.0, math.sqrt(2.0)), 1.0),
                     delta=1e-5)
    elapsed = time.perf_counter() - start
    want = gauss_epsilon(1e-5)
    diff = abs(result.epsilon - want)
    record_note(1, f"eps {result.epsilon:.4f} vs analytic {want:.4f}, "
                   f"diff {diff:.4f}, {elapsed:.1f}s")
    assert diff <= 0.05
    assert elapsed < 60.0


def test_criterion_02_gaussian_composed():
    """k=100 accounting of GG(2, sqrt(2)) within +-0.1 of the composed
    Gaussian PRV CDF discretized on the same grid; that composed grid is
    the discretized N(50, 10^2) within total variation 1e-3.  The auto
    window is L = 50 + 12 * 10 = 170, on the default 2^19 bins."""
    spec = MechanismSpec(GGParams(2.0, math.sqrt(2.0)), 1.0, None, 100)
    result = account(spec, delta=1e-5)
    cfg = result.config
    assert (cfg.trunc_L, cfg.bins) == (170.0, 3 ** 12)
    one = discretize_from_cdf(lambda e: gaussian_prv_cdf(e, 1.0, 1.0), cfg)
    composed = compose([(one, 100)])
    eps_ref = composed.epsilon_at(1e-5)
    diff = abs(result.epsilon - eps_ref)

    # 100 iid copies of N(1/2, 1) sum to N(50, 100).
    ref = discretize_from_cdf(lambda e: special.ndtr((e - 50.0) / 10.0), cfg)
    tv = 0.5 * float(np.abs(composed.probs - ref.probs).sum())
    record_note(2, f"eps diff {diff:.4f}, TV vs normal {tv:.1e}")
    assert diff <= 0.1
    assert tv <= 1e-3


def test_criterion_03_laplace_pure_dp():
    """GG(1, 1) is pure 1-DP: the estimated delta just past eps = 1 must be
    <= 1e-3 (the true value is exactly 0)."""
    result = account(MechanismSpec(GGParams(1.0, 1.0), 1.0), epsilon=1.01,
                     samples_n=200_000, bins=2 ** 14)
    record_note(3, f"delta(1.01) = {result.delta:.2e}")
    assert result.delta <= 1e-3


def test_criterion_04_fft_matches_direct():
    """FFT self-composition with wraparound padding equals iterated direct
    quadratic convolution within 1e-8 total variation on 20 random grids."""
    rng = np.random.default_rng(4441)
    worst = 0.0
    for trial in range(20):
        m = int(rng.integers(1, 32))            # grids of 3..63 bins
        probs = rng.random(2 * m + 1)
        probs /= probs.sum()
        prv = DiscretePRV(probs=probs, mesh_h=float(rng.uniform(0.05, 0.5)))
        k = int(rng.integers(2, 6))
        fft = compose([(prv, k)])
        direct = prv
        for _ in range(k - 1):
            direct = convolve_direct(direct, prv)
        tv = 0.5 * float(np.abs(fft.probs - direct.probs).sum())
        worst = max(worst, tv)
        assert fft.offset == pytest.approx(direct.offset, rel=1e-12)
    record_note(4, f"worst TV {worst:.1e} over 20 random grids")
    assert worst <= 1e-8


# Certificate oracle rows: (trunc_L, bins, samples_n, k, hoeffding_s,
# sampling_t, tail_single, tail_sum, eta, tau).  The eta/tau columns were
# evaluated independently at 50-digit precision and frozen, on the grid each
# bins request builds (its count rounded up to a fast FFT length).
CERTIFICATE_CASES = [
    (30.0, 2 ** 15, 1_000_000, 1, None, None, 0.0, 1e-6,
     0.8561454904736387, 17.558769099515906),
    (170.0, 2 ** 19, 5_000_000, 100, None, None, 1e-8, 1e-4,
     1.0, 20960.716926195757),
    (5.0, 2 ** 10, 10_000, 3, None, None, 0.01, 0.05,
     1.0, 18.834056973635196),
    (12.0, 2 ** 14, 500_000_000, 10, 0.05, 0.005, 0.0, 0.0,
     0.1819926826003394, 1.8159048738044123),
    (60.0, 2 ** 18, 100_000_000_000, 50, 0.004, 0.002, 1e-10, 3e-5,
     0.46133710967973135, 13.335719200164853),
]


def certificate_mp(cfg: AccountantConfig, k: int, tail_single: float,
                   tail_sum: float, samples_n: int, hoeffding_s: float | None,
                   sampling_t: float | None) -> tuple[float, float]:
    """The certificate algebra redone in 50-digit arithmetic."""
    with mpmath.workdps(50):
        L, h = mpmath.mpf(cfg.trunc_L), mpmath.mpf(cfg.mesh_h)
        n = mpmath.mpf(samples_n)
        s = (mpmath.mpf(hoeffding_s) if hoeffding_s is not None
             else 10 * h * mpmath.sqrt(k))
        t = (mpmath.mpf(sampling_t) if sampling_t is not None
             else 10 * L / mpmath.sqrt(n))
        root = mpmath.sqrt(L / (n * h))
        eta = (2 * k * mpmath.mpf(tail_single)
               + 4 * mpmath.exp(-2 * s * s / (k * h * h))
               + 4 * k * mpmath.exp(-n * t * t / (2 * L * L))
               + 8 * k * mpmath.exp(-n * t * t / 2)
               + mpmath.mpf(tail_sum)
               + 2 * k * (t + root))
        tau = s + k * (t + 2 * L * (t / 2 + root)) + 2 * k * (t / 2 + root)
        return float(min(eta, mpmath.mpf(1))), float(tau)


def test_criterion_05_error_bound_oracle():
    """error_bounds reproduces the frozen multiprecision (eta, tau) values
    to 1e-12 relative on five parameter tuples, and a live 50-digit
    recomputation agrees to the same tolerance."""
    for (L, bins, n, k, s_in, t_in, t_single, t_sum,
         eta_frozen, tau_frozen) in CERTIFICATE_CASES:
        cfg = AccountantConfig(L, bins)
        got = error_bounds(cfg, k, t_single, t_sum, n, s_in, t_in)
        eta_mp, tau_mp = certificate_mp(cfg, k, t_single, t_sum, n, s_in, t_in)
        assert got.eta == pytest.approx(eta_frozen, rel=1e-12)
        assert got.tau == pytest.approx(tau_frozen, rel=1e-12)
        assert got.eta == pytest.approx(eta_mp, rel=1e-12)
        assert got.tau == pytest.approx(tau_mp, rel=1e-12)
    record_note(5, "5 tuples, frozen + live 50-digit recompute, rel 1e-12")


def top_atom_mass(mu) -> float:
    """P(single-shot l1 loss hits its maximum ||mu||_1 / sigma^1), by sign
    enumeration: coordinate i contributes its maximal |mu_i| exactly when
    the noise lands on the far side of 0 from mu_i, an independent
    probability-1/2 event per active coordinate (the noise is symmetric)."""
    return 0.5 ** int(np.count_nonzero(np.asarray(mu)))


def test_criterion_06_dimension_independence():
    """For beta in {1, 1.5, 2} and one-hot shift vectors, d-dimensional loss
    samples match the scalar law (KS < 0.01 at 1e5 vs 1e5 draws) for
    d in {2, 8, 32}; splitting the shift across coordinates breaks the
    equivalence, pinned by the top-atom masses 0.25 vs 0.5 (+-0.02)."""
    n = 100_000
    worst = 0.0
    for beta in (1.0, 1.5, 2.0):
        spec = MechanismSpec(GGParams(beta, 1.0), 1.0)
        one = sample_prv(spec, LossDirection.REMOVE,
                         derive_rng(SEED, "c6-1d", beta), n)
        for d in (2, 8, 32):
            mu = np.zeros(d)
            mu[0] = 1.0
            multi = multidim_prv_sample(beta, 1.0, mu, 1.0,
                                        derive_rng(SEED, "c6-multi", beta, d),
                                        n)
            worst = max(worst, float(stats.ks_2samp(one, multi).statistic))
    assert worst < 0.01

    split = multidim_prv_sample(1.0, 1.0, np.array([0.5, 0.5]), 1.0,
                                derive_rng(SEED, "c6-split"), n)
    hot = multidim_prv_sample(1.0, 1.0, np.array([1.0, 0.0]), 1.0,
                              derive_rng(SEED, "c6-hot"), n)
    mass_split = float(np.mean(np.abs(split - 1.0) < 1e-9))
    mass_hot = float(np.mean(np.abs(hot - 1.0) < 1e-9))
    assert mass_split == pytest.approx(top_atom_mass([0.5, 0.5]), abs=0.02)
    assert mass_hot == pytest.approx(top_atom_mass([1.0, 0.0]), abs=0.02)
    record_note(6, f"worst KS {worst:.4f}; split-shift atoms "
                   f"{mass_split:.3f}/{mass_hot:.3f}")


def test_criterion_07_sigma_solver_round_trip():
    """Twelve (beta, eps, delta, k) tuples spanning beta in [1, 4]:
    re-accounting every solved sigma lands within the solver tolerance 0.05
    of its target epsilon.  Sigma monotonicity across the k=1 beta grid is
    reported, not asserted."""
    tol = 0.05
    worst = 0.0
    fam = equivalent_family([1.0, 1.5, 2.0, 2.5, 3.0, 4.0],
                            PrivacyTarget(2.0, 1e-5), tolerance=tol,
                            bins=ACCT["bins"])
    for p in fam.points:
        redone = account(MechanismSpec(GGParams(p.beta, p.sigma), 1.0),
                         delta=1e-5, **ACCT)
        assert redone.epsilon == p.epsilon   # same derived seed, same value
        worst = max(worst, abs(redone.epsilon - 2.0))

    extra = [  # (beta, epsilon, delta, compositions)
        (1.2, 1.0, 1e-6, 20),
        (1.8, 4.0, 1e-5, 50),
        (2.0, 8.0, 1e-5, 100),
        (2.5, 0.5, 1e-4, 5),
        (3.5, 2.0, 1e-6, 10),
        (4.0, 6.0, 1e-4, 200),
    ]
    for beta, eps, delta, k in extra:
        solved = solve_sigma(beta, PrivacyTarget(eps, delta, compositions=k),
                             tolerance=tol, **ACCT)
        redone = account(MechanismSpec(GGParams(beta, solved.sigma), 1.0,
                                       None, k), delta=delta, **ACCT)
        assert redone.epsilon == solved.epsilon
        worst = max(worst, abs(redone.epsilon - eps))
    record_note(7, f"sigma monotone in beta at k=1: {fam.sigma_monotone}; "
                   f"worst |eps - target| {worst:.4f}")
    assert worst <= tol


def test_criterion_08_tail_weights():
    """Across the equivalent-privacy family at (1.5, 1e-5): the beta=2 tail
    weights equal erfc(tau/sigma) to 1e-10 relative, and beta=1 has the
    smallest tail weight at every cutoff tau in {1, 2, 4}."""
    target = PrivacyTarget(1.5, 1e-5)
    fam = equivalent_family([1.0, 1.5, 2.0, 2.5, 3.0], target,
                            tolerance=0.05, bins=ACCT["bins"])
    cutoffs = (1.0, 2.0, 4.0)
    tw = tail_weight(fam, cutoffs)
    for tau in cutoffs:
        rows = [p for p in tw.points if p.tau == tau]
        gauss = next(p for p in rows if p.beta == 2.0)
        assert gauss.weight == pytest.approx(math.erfc(tau / gauss.sigma),
                                             rel=1e-10)
        assert min(rows, key=lambda p: p.weight).beta == 1.0
    record_note(8, "beta=1 minimizes the tail weight at tau in {1, 2, 4}")


def test_criterion_09_hardmax_simulation():
    """Noisy-argmax study.  Two classes: Monte-Carlo utility curves are
    monotone in the gap ratio within 2 MC standard errors and match the
    exact quadrature oracle within 4 errors for beta in {1, 2}.  Twenty-five
    classes: with per-query noise sized so that 16 argmax queries together
    meet (2, 1e-5), beta=2 has at least the AUC of beta=1.  A single query
    alone favours beta=1 -- its equivalent sigma is ~3x smaller in std and
    the tail crossover sits far beyond any observable gap -- but under a
    shared multi-query budget the beta=1 scale grows ~k against ~sqrt(k)
    for beta=2, which is the regime where the lighter tail pays off."""
    start = time.perf_counter()
    single = {beta: solve_sigma(beta, PrivacyTarget(2.0, 1e-5),
                                tolerance=0.05, **ACCT).sigma
              for beta in (1.0, 2.0)}

    cfg2 = SimConfig()                # 2 classes, V = 1000, 20 gap ratios
    hists2 = make_histograms(cfg2, derive_rng(SEED, "c9", "hist2"))
    votes = cfg2.total_votes
    for beta, sigma in single.items():
        noise = GGParams(beta, sigma)
        pts = sorted(hardmax_utility(hists2, noise, cfg2.trials,
                                     derive_rng(SEED, "c9", "mc2", beta)),
                     key=lambda p: p.runner_up)
        for a, b in zip(pts, pts[1:]):
            assert b.value >= a.value - 2.0 * math.hypot(a.stderr, b.stderr)
        exact = []
        for p in pts:
            gap = 2 * round(votes / (2.0 - p.runner_up)) - votes
            exact.append(exact_two_class_utility(float(gap), noise))
            assert p.value == pytest.approx(exact[-1],
                                            abs=4.0 * max(p.stderr, 1e-3))
        assert np.all(np.diff(exact) >= -1e-12)   # oracle curve is monotone

    shared = {beta: solve_sigma(beta,
                                PrivacyTarget(2.0, 1e-5, compositions=16),
                                tolerance=0.05, **ACCT).sigma
              for beta in (1.0, 2.0)}
    cfg25 = SimConfig(num_classes=25, histograms_per_r=200, trials=40)
    hists25 = make_histograms(cfg25, derive_rng(SEED, "c9", "hist25"))
    aucs = {beta: auc_over_runner_up(
                hardmax_utility(hists25, GGParams(beta, sigma), cfg25.trials,
                                derive_rng(SEED, "c9", "mc25", beta)))
            for beta, sigma in shared.items()}
    elapsed = time.perf_counter() - start
    record_note(9, f"25-class AUC: beta=2 {aucs[2.0]:.4f} vs beta=1 "
                   f"{aucs[1.0]:.4f} (16-query budget); {elapsed:.0f}s")
    assert aucs[2.0] >= aucs[1.0]
    assert elapsed < 1200.0


def test_criterion_10_noisy_sgd_smoke():
    """Synthetic blobs, logistic model, beta in {1, 2} at target (8, 1e-5):
    test accuracy within 7 points of the identically-configured non-private
    run, the reported epsilon never exceeds 8, and the whole thing takes
    under two minutes."""
    start = time.perf_counter()
    X, y = make_blobs(2500, 5, 3.0, derive_rng(SEED, "c10-data"))
    Xtr, ytr, Xte, yte = X[:2000], y[:2000], X[2000:], y[2000:]
    model = LogisticModel(5)

    base_cfg = TrainConfig(clip_norm=1e9, noise=GGParams(2.0, 1e-9),
                           batch_size=100, epochs=3, target_epsilon=None)
    base = train_noisy_sgd(model, (Xtr, ytr), base_cfg,
                           derive_rng(SEED, "c10-base"),
                           test_data=(Xte, yte))
    base_acc = base.history[-1]["test_acc"]

    gaps = {}
    for beta, sigma in ((1.0, 1.0), (2.0, 0.9)):
        cfg = TrainConfig(clip_norm=1.0, noise=GGParams(beta, sigma),
                          batch_size=100, epochs=3,
                          target_epsilon=8.0, target_delta=1e-5)
        result = train_noisy_sgd(model, (Xtr, ytr), cfg,
                                 derive_rng(SEED, f"c10-{beta}"),
                                 test_data=(Xte, yte))
        assert result.epsilon is not None and result.epsilon <= 8.0
        gaps[beta] = abs(base_acc - result.history[-1]["test_acc"])
        assert gaps[beta] <= 0.07
        if beta == 2.0:
            # sigma = 0.9 prices a step so that the budget runs out a few
            # steps before the planned 60: the halt path is exercised.
            assert result.halted and result.steps < base.steps
    elapsed = time.perf_counter() - start
    record_note(10, f"baseline {base_acc:.3f}; acc gaps beta=1 "
                    f"{gaps[1.0]:.3f}, beta=2 {gaps[2.0]:.3f}; {elapsed:.0f}s")
    assert elapsed < 120.0


def test_criterion_11_distribution_core():
    """Across beta in {1, 1.33, 1.5, 2, 2.5, 4} x sigma in {0.5, 1, 3}:
    density normalizes to 1e-8, CDF/quantile round-trip to 1e-9 relative,
    the sampler passes a two-sample KS test against quantile-transformed
    uniforms at significance 1e-3 (1e5 vs 1e5 draws), and the beta = 1 / 2
    densities reduce pointwise (1e-12) to Laplace / Normal."""
    u = np.array([1e-6, 1e-4, 1e-2, 0.1, 0.3, 0.5, 0.7, 0.9,
                  0.99, 1.0 - 1e-4, 1.0 - 1e-6])
    worst_p = 1.0
    for beta in (1.0, 1.33, 1.5, 2.0, 2.5, 4.0):
        for sigma in (0.5, 1.0, 3.0):
            params = GGParams(beta, sigma)
            span = 40.0 * sigma
            mass, _ = integrate.quad(lambda x: ggdist.pdf(params, x),
                                     -span, span, limit=200)
            assert mass == pytest.approx(1.0, abs=1e-8)
            npt.assert_allclose(ggdist.cdf(params, ggdist.quantile(params, u)),
                                u, rtol=1e-9)
            draws = ggdist.sample(params,
                                  derive_rng(SEED, "c11", beta, sigma),
                                  100_000)
            ref = ggdist.quantile(
                params, derive_rng(SEED, "c11u", beta, sigma).random(100_000))
            pvalue = float(stats.ks_2samp(draws, ref).pvalue)
            worst_p = min(worst_p, pvalue)
            assert pvalue > 1e-3
    x = np.linspace(-9.0, 9.0, 801)
    for sigma in (0.5, 1.0, 3.0):
        npt.assert_allclose(ggdist.pdf(GGParams(1.0, sigma), x),
                            stats.laplace.pdf(x, scale=sigma), atol=1e-12)
        npt.assert_allclose(ggdist.pdf(GGParams(2.0, sigma), x),
                            stats.norm.pdf(x, scale=sigma / math.sqrt(2.0)),
                            atol=1e-12)
    record_note(11, f"18 grid points; worst sampler KS p-value {worst_p:.3f}")
