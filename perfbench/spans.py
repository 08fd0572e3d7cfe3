"""In-memory span tracer for the traced benchmark run.

`Tracer.install` replaces ggprivacy's public functions, at the names their
callers look up, with timing wrappers; `Tracer.restore` puts the originals
back.  Each span is a list ``[name, start, end, parent, pass_id, attrs]``
kept in memory until the run ends; ``attrs`` holds the counts measured at
the same boundary (draws, elements, bytes, grid cells, ...).  The wrappers
pass arguments and results through untouched, so a traced pass must
reproduce an untraced one bitwise.

`layer_metrics` turns the spans of the traced passes into the per-layer
metrics listed in `LAYER_METRICS` (per-pass averages).
"""

from __future__ import annotations

import functools
import statistics
import time

import numpy as np

KERNELS = ("gg_loss", "signed_power_scale", "bin_counts", "mixture_log_ratio",
           "lbeta_norms")

# (name, unit, better) for every per-layer metric the traced run reports.
LAYER_METRICS = [
    ("ggdist.sample.self_s", "s", "lower"),
    ("ggdist.sample.draws", "count", "lower"),
    *[(f"kernels.{k}.{field}", unit, "lower") for k in KERNELS
      for field, unit in (("s", "s"), ("elems", "count"),
                          ("bytes_computed", "B"))],
    ("prv.sample_prv.self_s", "s", "lower"),
    ("prv.sample_prv.draws", "count", "lower"),
    ("accountant.pilot_s", "s", "lower"),
    ("accountant.account.self_s", "s", "lower"),
    ("accountant.discretize.self_s", "s", "lower"),
    ("accountant.acceptance", "ratio", "higher"),
    ("accountant.compose.s", "s", "lower"),
    ("accountant.compose.calls", "count", "lower"),
    ("accountant.grid_cells", "count", "lower"),
    ("accountant.query.s", "s", "lower"),
    ("accountant.query.calls", "count", "lower"),
    ("accountant.ledger.init_s", "s", "lower"),
    ("accountant.ledger.composed.calls", "count", "lower"),
    ("accountant.cert_vacuous", "count", "lower"),
    ("calibrate.probes", "count", "lower"),
    ("calibrate.probe_s", "s", "lower"),
    ("calibrate.solve.self_s", "s", "lower"),
    ("mechanisms.per_example_grads.s", "s", "lower"),
    ("mechanisms.clip_rows.s", "s", "lower"),
    ("mechanisms.noise.s", "s", "lower"),
    ("mechanisms.steps", "count", "higher"),
    ("simulate.make_histograms.s", "s", "lower"),
    ("simulate.hardmax_utility.self_s", "s", "lower"),
    ("simulate.exact_two_class.s", "s", "lower"),
    ("steps_per_s", "1/s", "higher"),
    ("trials_per_s", "1/s", "higher"),
    ("eps_abs_err", "eps", "lower"),
    ("fail_frac", "ratio", "lower"),
    ("trace.coverage", "ratio", "higher"),
    ("trace.overhead_s", "s", "lower"),
]

_ACCOUNT_SPANS = ("accountant.account", "calibrate.account")
_PILOT_PARENTS = _ACCOUNT_SPANS + ("CompositionLedger.__init__",)
_QUERY_SPANS = ("DiscretePRV.epsilon_at", "DiscretePRV.delta_at")


def _draws(args, kwargs, out):
    return {"draws": int(out.size)}


def _kernel_work(args, kwargs, out):
    arrays = [a for a in (*args, *kwargs.values()) if isinstance(a, np.ndarray)]
    return {"elems": int(arrays[0].size),
            "bytes": int(sum(a.nbytes for a in arrays) + out.nbytes)}


def _acceptance(args, kwargs, out):
    return {"acceptance": float(out.acceptance)}


def _cells(args, kwargs, out):
    return {"cells": int(out.probs.size)}


def _vacuous(args, kwargs, out):
    return {"vacuous": bool(out.eta >= 1.0 or out.tau >= out.epsilon)}


class Tracer:
    """Records spans while installed; one instance per traced run."""

    def __init__(self):
        self.spans: list[list] = []
        self.pass_id: int | None = None
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def wrap(self, name, fn, attrs=None):
        """``fn`` recording one span per call."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.pass_id,
                   None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if attrs is not None:
                rec[5] = attrs(args, kwargs, out)
            return out

        return traced

    def _patch(self, owner, attr, name, attrs=None):
        original = owner.__dict__[attr]
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, attrs))

    def install(self):
        from ggprivacy import (accountant, calibrate, ggdist, kernels,
                               mechanisms, simulate)
        self._patch(ggdist, "sample", "ggdist.sample", _draws)
        for k in KERNELS:
            self._patch(kernels, k, f"kernels.{k}", _kernel_work)
        self._patch(accountant, "account", "accountant.account", _vacuous)
        self._patch(accountant, "sample_prv", "prv.sample_prv", _draws)
        self._patch(accountant, "discretize_from_samples",
                    "accountant.discretize", _acceptance)
        self._patch(accountant, "compose", "accountant.compose", _cells)
        for method in ("epsilon_at", "delta_at"):
            self._patch(accountant.DiscretePRV, method, f"DiscretePRV.{method}")
        for method in ("__init__", "composed", "epsilon_at", "max_steps"):
            self._patch(accountant.CompositionLedger, method,
                        f"CompositionLedger.{method}")
        self._patch(calibrate, "account", "calibrate.account", _vacuous)
        self._patch(calibrate, "solve_sigma", "calibrate.solve_sigma")
        self._patch(mechanisms, "clip_rows", "mechanisms.clip_rows")
        self._patch(mechanisms, "train_noisy_sgd", "mechanisms.train_noisy_sgd")
        for model in (mechanisms.MLPModel, mechanisms.LogisticModel):
            self._patch(model, "per_example_grads",
                        "mechanisms.per_example_grads")
        for fn in ("make_histograms", "hardmax_utility",
                   "exact_two_class_utility"):
            self._patch(simulate, fn, f"simulate.{fn}")

    def restore(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()


def layer_metrics(spans: list[list], pass_ids: list[int],
                  wall_s: float) -> dict[str, float]:
    """Per-pass averages of the traced per-layer metrics over ``pass_ids``.

    ``wall_s`` is the summed wall time of those passes; ``trace.coverage``
    is the share of it that the spans cover (their summed self times).

    Self time is a span's duration minus the durations of its direct
    children; a ``.s`` metric is the time covered by spans of that name that
    are not nested in a span of the same name.
    """
    names = [s[0] for s in spans]
    dur = np.array([s[2] - s[1] for s in spans])
    parent = np.array([s[3] for s in spans], dtype=np.int64)
    child = np.zeros(len(spans))
    has_parent = parent >= 0
    np.add.at(child, parent[has_parent], dur[has_parent])
    self_t = dur - child
    wanted = set(pass_ids)
    live = [i for i, s in enumerate(spans) if s[4] in wanted]

    def parent_name(i):
        return names[parent[i]] if parent[i] >= 0 else None

    def pick(name_set, where=lambda i: True):
        return [i for i in live if names[i] in name_set and where(i)]

    def covered(name_set):
        return float(sum(dur[i] for i in pick(
            name_set, lambda i: parent_name(i) not in name_set)))

    def selfsum(name):
        return float(sum(self_t[i] for i in pick({name})))

    def attr_sum(name, key, where=lambda i: True):
        return float(sum(spans[i][5][key] for i in pick({name}, where)))

    out: dict[str, float] = {
        "ggdist.sample.self_s": selfsum("ggdist.sample"),
        "ggdist.sample.draws": attr_sum("ggdist.sample", "draws"),
    }
    for k in KERNELS:
        name = f"kernels.{k}"
        out[f"{name}.s"] = covered({name})
        out[f"{name}.elems"] = attr_sum(name, "elems")
        out[f"{name}.bytes_computed"] = attr_sum(name, "bytes")
    out["prv.sample_prv.self_s"] = selfsum("prv.sample_prv")
    out["prv.sample_prv.draws"] = attr_sum("prv.sample_prv", "draws")
    out["accountant.pilot_s"] = float(sum(dur[i] for i in pick(
        {"prv.sample_prv"}, lambda i: parent_name(i) in _PILOT_PARENTS)))
    out["accountant.account.self_s"] = selfsum("accountant.account")
    out["accountant.discretize.self_s"] = selfsum("accountant.discretize")
    drawn = accepted = 0.0
    for i in pick({"accountant.discretize"}):
        n = sum(spans[j][5]["draws"] for j in live
                if parent[j] == i and names[j] == "prv.sample_prv")
        drawn += n
        accepted += n * spans[i][5]["acceptance"]
    out["accountant.acceptance"] = accepted / drawn if drawn else 0.0
    composes = pick({"accountant.compose"})
    out["accountant.compose.s"] = covered({"accountant.compose"})
    out["accountant.compose.calls"] = float(len(composes))
    out["accountant.grid_cells"] = float(statistics.mean(
        spans[i][5]["cells"] for i in composes)) if composes else 0.0
    out["accountant.query.s"] = covered(set(_QUERY_SPANS))
    out["accountant.query.calls"] = float(len(pick(set(_QUERY_SPANS))))
    out["accountant.ledger.init_s"] = covered({"CompositionLedger.__init__"})
    out["accountant.ledger.composed.calls"] = float(len(pick(
        {"CompositionLedger.composed"})))
    out["accountant.cert_vacuous"] = float(sum(
        spans[i][5]["vacuous"] for i in pick(set(_ACCOUNT_SPANS))))
    probes = pick({"calibrate.account"})
    out["calibrate.probes"] = float(len(probes))
    out["calibrate.probe_s"] = float(statistics.median(
        dur[i] for i in probes)) if probes else 0.0
    out["calibrate.solve.self_s"] = selfsum("calibrate.solve_sigma")
    out["mechanisms.per_example_grads.s"] = covered(
        {"mechanisms.per_example_grads"})
    out["mechanisms.clip_rows.s"] = covered({"mechanisms.clip_rows"})
    noise = pick({"ggdist.sample"},
                 lambda i: parent_name(i) == "mechanisms.train_noisy_sgd")
    out["mechanisms.noise.s"] = float(sum(dur[i] for i in noise))
    out["mechanisms.steps"] = float(len(noise))
    out["simulate.make_histograms.s"] = covered({"simulate.make_histograms"})
    out["simulate.hardmax_utility.self_s"] = selfsum("simulate.hardmax_utility")
    out["simulate.exact_two_class.s"] = covered(
        {"simulate.exact_two_class_utility"})
    out["trace.coverage"] = float(sum(dur[i] for i in live if parent[i] < 0)) \
        / wall_s

    per_pass = max(1, len(wanted))
    averaged = {"accountant.acceptance", "accountant.grid_cells",
                "calibrate.probe_s", "trace.coverage"}
    return {k: (v if k in averaged else v / per_pass) for k, v in out.items()}
