"""The four pinned benchmark workloads.

A workload is built from its seed and exposes ``ops``: a list of
``(label, call)`` pairs, each call one top-level public-API call that
returns a plain result record.  The runner calls them in order (one pass),
as a closed loop with no extra threads.  ``check`` compares the records of
one pass against independent references; it runs outside the timed region.

Every call looks the public functions up on their modules at call time
(``accountant.account``, not a name imported once), so the traced run's
wrappers see each call.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import optimize, stats

from ggprivacy import accountant, calibrate, mechanisms, prv, simulate
from ggprivacy.ggdist import GGParams
from ggprivacy.prv import MechanismSpec

DELTA = 1e-5
# The solver and ledger settings of the acceptance suite.
ACCT = dict(samples_n=2_000_000, bins=2 ** 16)


def fingerprint(value):
    """A bitwise-exact, comparable image of a result record."""
    if isinstance(value, float):
        return float(value).hex()
    if isinstance(value, np.ndarray):
        return (value.dtype.str, value.shape, value.tobytes())
    if isinstance(value, dict):
        return tuple((repr(k), fingerprint(v))
                     for k, v in sorted(value.items(), key=repr))
    if isinstance(value, (list, tuple)):
        return tuple(fingerprint(v) for v in value)
    return value


def gauss_epsilon(delta: float, std: float) -> float:
    """Closed-form epsilon(delta) of the Gaussian mechanism, sensitivity 1."""
    a, b = 0.5 / std, std

    def excess(eps):
        return (stats.norm.cdf(a - eps * b)
                - math.exp(eps) * stats.norm.cdf(-a - eps * b) - delta)

    return float(optimize.brentq(excess, 0.0, 200.0, xtol=1e-12))


class Check:
    """Collects named pass/fail output checks and the largest epsilon error."""

    def __init__(self):
        self.results: list[tuple[str, bool, str]] = []
        self.eps_abs_err = 0.0

    def add(self, name: str, ok: bool, detail: str = "") -> None:
        self.results.append((name, bool(ok), detail))

    def eps(self, name: str, got: float, want: float, tol: float) -> None:
        err = abs(got - want)
        self.eps_abs_err = max(self.eps_abs_err, err)
        self.add(name, err <= tol, f"{got:.6f} vs {want:.6f} (tol {tol:g})")


class AccountWorkload:
    """README quick-start path: `account` at the package defaults."""

    name = "account"
    BETAS = (1.0, 2.0, 3.0)
    SIGMA, K = 4.0, 100
    README_EPS = 12.23  # README quick start, beta = 1

    def __init__(self, seed: int):
        self.seed = seed
        self.ops = [(f"beta={b:g}", self._op(b)) for b in self.BETAS]

    def _op(self, beta):
        spec = MechanismSpec(GGParams(beta, self.SIGMA), 1.0, None, self.K)

        def call():
            r = accountant.account(spec, delta=DELTA, rng=self.seed)
            return {"epsilon": r.epsilon, "eta": r.eta, "tau": r.tau,
                    "config": r.config}
        return call

    def check(self, records) -> Check:
        c = Check()
        by_beta = dict(zip(self.BETAS, records))
        # GG(2, sigma) is a normal with std sigma / sqrt(2); k compositions
        # of it equal one release with std / sqrt(k).
        std = self.SIGMA / math.sqrt(2.0) / math.sqrt(self.K)
        c.eps("beta=2 vs closed-form Gaussian", by_beta[2.0]["epsilon"],
              gauss_epsilon(DELTA, std), 0.1)
        cfg = by_beta[1.0]["config"]
        one = accountant.discretize_from_cdf(
            lambda x: prv.laplace_prv_cdf(x, self.SIGMA, 1.0), cfg)
        ref = accountant.compose([(one, self.K)]).epsilon_at(DELTA)
        c.eps("beta=1 vs Laplace CDF composition", by_beta[1.0]["epsilon"],
              ref, 0.1)
        got = by_beta[1.0]["epsilon"]
        c.add("beta=1 matches README epsilon", abs(got - self.README_EPS) <= 0.05,
              f"{got:.4f} vs {self.README_EPS}")
        return c


class CalibrateWorkload:
    """Two `solve_sigma` calls at the acceptance suite's accountant size.

    The targets and tolerance are set so that every probe's epsilon sits
    several Monte-Carlo standard deviations away from the solver's decision
    thresholds: the probe sequence, and so the work done, is then the same
    for every seed.  The subsampled target uses q = 0.1, not 0.01: at 0.01
    the epsilon of one probe in a few hundred seeds lands ten standard
    deviations off, which changes the probe count.
    """

    name = "calibrate"
    TOLERANCE = 0.2
    TARGETS = ((2.0, calibrate.PrivacyTarget(1.88, DELTA)),
               (1.5, calibrate.PrivacyTarget(1.79, DELTA, compositions=50,
                                             sample_rate=0.1)))

    def __init__(self, seed: int):
        self.seed = seed
        self.ops = [(f"beta={b:g}", self._op(b, t)) for b, t in self.TARGETS]

    def _op(self, beta, target):
        def call():
            s = calibrate.solve_sigma(beta, target, rng=self.seed,
                                      tolerance=self.TOLERANCE, **ACCT)
            return {"sigma": s.sigma, "epsilon": s.epsilon, "probes": s.probes,
                    "evaluations": s.evaluations}
        return call

    def check(self, records) -> Check:
        c = Check()
        for (beta, target), rec in zip(self.TARGETS, records):
            spec = MechanismSpec(GGParams(beta, rec["sigma"]), 1.0,
                                 target.sample_rate, target.compositions)
            redone = accountant.account(spec, delta=target.delta,
                                        rng=self.seed, **ACCT).epsilon
            c.add(f"beta={beta:g} re-accounts bitwise",
                  redone.hex() == rec["epsilon"].hex(),
                  f"{redone!r} vs {rec['epsilon']!r}")
            c.eps(f"beta={beta:g} lands on target", rec["epsilon"],
                  target.epsilon, self.TOLERANCE / 2)
        return c


class TrainWorkload:
    """Noisy SGD with an MLP under a privacy halt, beta in {1, 2}."""

    name = "train"
    N, DIM, SEPARATION = 4000, 10, 3.0
    # beta = 2 at sigma = 1 prices a step so the (8, 1e-5) budget ends the
    # run after 110 of the 400 planned steps.
    NOISES = (GGParams(1.0, 1.0), GGParams(2.0, 1.0))
    EPSILON = 8.0

    def __init__(self, seed: int):
        self.seed = seed
        self.data = mechanisms.make_blobs(
            self.N, self.DIM, self.SEPARATION,
            accountant.derive_rng(seed, "train-data"))
        self.ops = [(f"beta={p.beta:g}", self._op(p)) for p in self.NOISES]

    def _op(self, noise):
        cfg = mechanisms.TrainConfig(
            clip_norm=1.0, noise=noise, batch_size=200, epochs=20,
            learning_rate=0.5, target_epsilon=self.EPSILON,
            target_delta=DELTA, ledger_samples=400_000,
            ledger_bins=2 ** 16)

        def call():
            model = mechanisms.MLPModel(self.DIM)
            rng = accountant.derive_rng(self.seed, "train", noise.beta)
            r = mechanisms.train_noisy_sgd(model, self.data, cfg, rng)
            return {"steps": r.steps, "halted": r.halted, "epsilon": r.epsilon,
                    "params": r.params,
                    "history": [(h["epsilon"], h["train_acc"])
                                for h in r.history],
                    "work": r.steps}
        return call

    def check(self, records) -> Check:
        c = Check()
        for noise, rec in zip(self.NOISES, records):
            eps = rec["epsilon"]
            c.add(f"beta={noise.beta:g} epsilon within budget",
                  eps is not None and eps <= self.EPSILON, f"{eps!r}")
        c.add("beta=2 halts on its budget", records[1]["halted"],
              f"{records[1]['steps']} steps")
        return c


class ArgmaxWorkload:
    """Noisy-argmax utility sweeps at two pinned noises (no calibration)."""

    name = "argmax"
    NOISES = (GGParams(1.0, 8.0), GGParams(2.0, 10.0))
    MANY = simulate.SimConfig(num_classes=25, histograms_per_r=200, trials=120)
    TWO = simulate.SimConfig()

    def __init__(self, seed: int):
        self.seed = seed
        self.ops = [(f"beta={p.beta:g}", self._op(p)) for p in self.NOISES]

    def _op(self, noise):
        def call():
            out = {"work": 0}
            for cfg in (self.MANY, self.TWO):
                tag = (noise.beta, cfg.num_classes)
                hists = simulate.make_histograms(
                    cfg, accountant.derive_rng(self.seed, "argmax-hist", *tag))
                pts = simulate.hardmax_utility(
                    hists, noise, cfg.trials,
                    accountant.derive_rng(self.seed, "argmax-mc", *tag))
                out[cfg.num_classes] = [(p.runner_up, p.value, p.stderr)
                                        for p in pts]
                out["work"] += cfg.trials * len(hists)
            votes = self.TWO.total_votes
            out["exact"] = [simulate.exact_two_class_utility(
                float(2 * round(votes / (2.0 - r)) - votes), noise)
                for r, _, _ in out[2]]
            return out
        return call

    def check(self, records) -> Check:
        c = Check()
        for noise, rec in zip(self.NOISES, records):
            worst = max(abs(v - e) / max(se, 1e-3)
                        for (_, v, se), e in zip(rec[2], rec["exact"]))
            c.add(f"beta={noise.beta:g} 2-class utility vs quadrature",
                  worst <= 4.0, f"worst {worst:.2f} standard errors")
        return c


WORKLOADS = {w.name: w for w in (AccountWorkload, CalibrateWorkload,
                                 TrainWorkload, ArgmaxWorkload)}
