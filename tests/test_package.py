"""The package's public namespace and its package-wide contracts."""

from __future__ import annotations

import dataclasses
import functools
import importlib
import importlib.util
import inspect
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy

import ggprivacy
from ggprivacy import (AccountantConfig, CompositionLedger, DiscretePRV,
                       GGParams, LogisticModel, LossDirection, MechanismSpec,
                       ParameterError, PrivacyTarget, SimConfig, TrainConfig,
                       account, compose, gg_mechanism, lbeta_clip,
                       multidim_prv_sample, sample, sample_prv, sgg_mechanism,
                       solve_sigma, train_noisy_sgd)

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"
# A name in single backquotes, as docstrings and comments cite one.
_CITED = re.compile(r"(?<!`)`([A-Za-z_][\w.]*)`(?!`)")


def test_all_lists_resolvable_public_api_only():
    submodules = {m.name for m in pkgutil.iter_modules(ggprivacy.__path__)}
    assert len(ggprivacy.__all__) == len(set(ggprivacy.__all__))
    for name in ggprivacy.__all__:
        assert getattr(ggprivacy, name) is not None
    assert "annotations" not in ggprivacy.__all__
    assert not submodules & set(ggprivacy.__all__)


def test_import_leaves_out_scipy_modules_off_the_accountant_path():
    # scipy.stats, scipy.integrate and scipy.signal each serve one call off
    # the accountant's path and take most of a fresh import's time; the
    # sigma solver finds its roots without scipy.optimize.
    src = str(Path(ggprivacy.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = ("import sys, ggprivacy; print(' '.join(m for m in "
            "('scipy.stats', 'scipy.integrate', 'scipy.signal', "
            "'scipy.optimize') "
            "if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120).stdout
    assert out.split() == []


def test_import_computes_no_quadrature_nodes():
    # The Gauss-Legendre nodes are computed on first use, so a fresh import,
    # which every benchmark set-up pays, does no quadrature work.
    src = str(Path(ggprivacy.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = ("import ggprivacy; "
            "print(ggprivacy.ggdist._legendre.cache_info().currsize)")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120).stdout
    assert out.split() == ["0"]


def _citable() -> tuple[dict[str, list], set[str]]:
    """The objects each head of a cited name may stand for (the package's
    modules and their module-level names, ``np`` and ``scipy``), and the
    members of the package's classes, which a docstring may cite bare."""
    heads = {"ggprivacy": [ggprivacy], "np": [np], "scipy": [scipy]}
    members: set[str] = set()
    for info in pkgutil.iter_modules(ggprivacy.__path__):
        module = importlib.import_module(f"ggprivacy.{info.name}")
        heads.setdefault(info.name, []).append(module)
        for name, obj in vars(module).items():
            heads.setdefault(name, []).append(obj)
            if inspect.isclass(obj) and obj.__module__.startswith("ggprivacy"):
                members |= set(vars(obj))
                if dataclasses.is_dataclass(obj):
                    members |= {f.name for f in dataclasses.fields(obj)}
    return heads, members


def _attribute(obj, part: str) -> list:
    """``obj.part`` as a one-element list, or ``[]`` when it does not
    exist; a dataclass's fields and a package's submodules count."""
    if inspect.isclass(obj) and dataclasses.is_dataclass(obj) \
            and part in {f.name for f in dataclasses.fields(obj)}:
        return [part]
    if hasattr(obj, part):
        return [getattr(obj, part)]
    if inspect.ismodule(obj):
        try:
            return [importlib.import_module(f"{obj.__name__}.{part}")]
        except ImportError:
            return []
    return []


def test_every_name_cited_in_the_package_resolves():
    # A docstring or comment that cites a removed helper, or a local, in
    # single backquotes fails here; locals take double backquotes.
    heads, members = _citable()
    unresolved = []
    for path in sorted(Path(ggprivacy.__file__).resolve().parent.glob("*.py")):
        for lineno, line in enumerate(path.read_text().splitlines(), 1):
            for name in _CITED.findall(line):
                head, *rest = name.split(".")
                objs = list(heads.get(head, []))
                if not rest and head in members:
                    continue
                for part in rest:
                    objs = [a for obj in objs for a in _attribute(obj, part)]
                if not objs:
                    unresolved.append(f"{path.name}:{lineno}: {name}")
    assert unresolved == []


def test_readme_quick_start_prints_what_it_says(capsys):
    # The first block of the README's quick start runs as written; its
    # printed epsilon rounds to the annotated value, and eta and tau match
    # the figures in the text below it.
    quick = README.read_text(encoding="utf-8").split("## Quick start", 1)[1]
    block = quick.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, "README.md quick start", "exec"), {})
    epsilon, (eta, tau) = (
        line.split() for line in capsys.readouterr().out.splitlines())
    want = re.search(r"-> ([0-9.]+)", block).group(1)
    decimals = len(want.split(".")[1])
    assert f"{float(epsilon[0]):.{decimals}f}" == want
    assert f"`η = {float(eta)}`" in quick
    assert f"`τ ≈ {round(float(tau))}`" in quick


def test_every_readme_python_block_runs(capsys):
    # The quick start, calibration and training examples run as written,
    # each in a fresh namespace.
    text = README.read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```", text, re.S | re.M)
    assert len(blocks) == 3
    for number, block in enumerate(blocks, start=1):
        exec(compile(block, f"README.md python block {number}", "exec"), {})
        assert capsys.readouterr().out


GAUSS = MechanismSpec(GGParams(2.0, 1.0), 1.0)


@functools.cache
def _ledger() -> CompositionLedger:
    return CompositionLedger(GAUSS, k_cap=4, bins=2 ** 12)


def _train(**knobs):
    rng = np.random.default_rng(0)
    X = rng.normal(size=(20, 2))
    return train_noisy_sgd(LogisticModel(dim=2), (X, (X[:, 0] > 0) * 1),
                           TrainConfig(**knobs), rng)


def _rng():
    return np.random.default_rng(0)


def _prv(**knobs) -> DiscretePRV:
    return DiscretePRV(np.array([0.25, 0.5, 0.25]), 1.0, **knobs)


COUNTS = {  # (call with the count v, the name the error must give)
    "sample": (lambda v: sample(GGParams(1.5, 1.0), _rng(), v), "count"),
    "sample_prv": (
        lambda v: sample_prv(GAUSS, LossDirection.REMOVE, _rng(), v), "count"),
    "multidim_prv_sample": (
        lambda v: multidim_prv_sample(2.0, 1.0, [1.0, 0.0], 1.0, _rng(), v),
        "count"),
    "MechanismSpec": (lambda v: MechanismSpec(GGParams(2.0, 1.0), 1.0, None, v),
                      "compositions"),
    "PrivacyTarget": (lambda v: PrivacyTarget(1.0, 1e-5, v), "compositions"),
    "account": (lambda v: account(GAUSS, delta=1e-5, curve_points=v),
                "curve_points"),
    "CompositionLedger": (lambda v: CompositionLedger(GAUSS, k_cap=v),
                          "k_cap"),
    "ledger.composed": (lambda v: _ledger().composed(v), "k"),
    "ledger.epsilon_at": (lambda v: _ledger().epsilon_at(v, 1e-5), "k"),
    "SimConfig.num_classes": (lambda v: SimConfig(num_classes=v),
                              "num_classes"),
    "SimConfig.total_votes": (lambda v: SimConfig(total_votes=v),
                              "total_votes"),
    "train.batch_size": (lambda v: _train(batch_size=v), "batch_size"),
    "train.epochs": (lambda v: _train(batch_size=5, epochs=v), "epochs"),
    "compose": (lambda v: compose([(_prv(), v)]), "multiplicity"),
    "DiscretePRV": (lambda v: _prv(compositions=v), "compositions"),
}


@pytest.mark.parametrize("value", [True, 2.5, 3.0, np.float64(3.0), "3"],
                         ids=["bool", "fraction", "float", "numpy-float",
                              "text"])
@pytest.mark.parametrize("call,name", list(COUNTS.values()), ids=list(COUNTS))
def test_every_count_takes_only_an_integer(call, name, value):
    # One rule for every count: an int or a numpy integer, never a bool, a
    # float, even a whole one, or text.  Each is refused with a
    # ParameterError that names the count.
    with pytest.raises(ParameterError, match=rf"^{name} must be an integer"):
        call(value)
    call(np.int64(3))


_TARGET = PrivacyTarget(2.0, 1e-5)
REALS = {  # (call with the number v, the name the error must give, a valid v)
    "MechanismSpec.sensitivity": (
        lambda v: MechanismSpec(GGParams(2.0, 1.0), v), "sensitivity", 1.0),
    "MechanismSpec.sample_rate": (
        lambda v: MechanismSpec(GGParams(2.0, 1.0), 1.0, v), "sample_rate",
        1.0),
    "PrivacyTarget.epsilon": (lambda v: PrivacyTarget(v, 1e-5), "epsilon",
                              1.0),
    "PrivacyTarget.delta": (lambda v: PrivacyTarget(1.0, v), "delta", 1e-5),
    "PrivacyTarget.sample_rate": (
        lambda v: PrivacyTarget(1.0, 1e-5, 1, v), "sample_rate", 0.5),
    "GGParams.beta": (lambda v: GGParams(v, 1.0), "beta", 2.0),
    "GGParams.sigma": (lambda v: GGParams(2.0, v), "sigma", 1.0),
    "account.epsilon": (lambda v: account(GAUSS, epsilon=v, bins=2 ** 12),
                        "epsilon", 1.0),
    "account.delta": (lambda v: account(GAUSS, delta=v, bins=2 ** 12),
                      "delta", 1e-5),
    "solve_sigma.sensitivity": (
        lambda v: solve_sigma(2.0, _TARGET, sensitivity=v, tolerance=0.2,
                              bins=2 ** 12), "sensitivity", 1.0),
    "solve_sigma.tolerance": (
        lambda v: solve_sigma(2.0, _TARGET, tolerance=v, bins=2 ** 12),
        "tolerance", 0.2),
    "gg_mechanism": (
        lambda v: gg_mechanism([0.0], v, GGParams(2.0, 1.0), _rng()),
        "sensitivity", 1.0),
    "sgg_mechanism": (
        lambda v: sgg_mechanism(np.ones(4), np.sum, 1.0, GGParams(2.0, 1.0),
                                v, _rng()), "sample_rate", 0.5),
    "lbeta_clip": (lambda v: lbeta_clip([3.0, 4.0], 2.0, v), "clip_norm",
                   1.0),
    "lbeta_clip.beta": (lambda v: lbeta_clip([3.0, 4.0], v, 1.0), "beta",
                        2.0),
    "train.clip_norm": (lambda v: _train(batch_size=5, clip_norm=v),
                        "clip_norm", 1.0),
    "train.learning_rate": (lambda v: _train(batch_size=5, learning_rate=v),
                            "learning_rate", 0.5),
    "train.target_epsilon": (
        lambda v: _train(batch_size=5, target_epsilon=v), "target_epsilon",
        8.0),
    "train.target_delta": (
        lambda v: _train(batch_size=5, target_epsilon=8.0, target_delta=v),
        "target_delta", 1e-5),
    "AccountantConfig.trunc_L": (lambda v: AccountantConfig(v, 2 ** 10),
                                 "trunc_L", 1.0),
    "DiscretePRV.mesh_h": (
        lambda v: DiscretePRV(np.array([0.25, 0.5, 0.25]), v), "mesh_h", 1.0),
    "DiscretePRV.offset": (lambda v: _prv(offset=v), "offset", 1.0),
    "DiscretePRV.epsilon_at": (lambda v: _prv().epsilon_at(v), "delta", 0.5),
    "DiscretePRV.delta_at": (lambda v: _prv().delta_at(v), "epsilon", 1.0),
    "DiscretePRV.delta_at.array": (lambda v: _prv().delta_at([v, v]),
                                   "epsilon", 1.0),
    "ledger.epsilon_at": (lambda v: _ledger().epsilon_at(2, v), "delta",
                          1e-5),
    "ledger.max_steps.epsilon": (lambda v: _ledger().max_steps(v, 1e-5),
                                 "epsilon", 50.0),
    "ledger.max_steps.delta": (lambda v: _ledger().max_steps(50.0, v),
                               "delta", 1e-5),
}


@pytest.mark.parametrize("value", [True, np.True_, "1", 1j],
                         ids=["bool", "numpy-bool", "text", "complex"])
@pytest.mark.parametrize("call,name,valid", list(REALS.values()),
                         ids=list(REALS))
def test_every_real_takes_only_a_real_number(call, name, valid, value):
    # One rule for every real-valued parameter: an int, a float or a numpy
    # integer or float, never a bool or text.  Each is refused with a
    # ParameterError that names the parameter; a field keeps a float.
    with pytest.raises(ParameterError, match=rf"^{name} must be a real number"):
        call(value)
    for number in (np.float64(valid), int(valid)):
        if number != valid:
            continue  # a valid value that is not a whole number
        got = call(number)
        if dataclasses.is_dataclass(got) and name in vars(got):
            assert type(getattr(got, name)) is float


def test_benchmark_tracer_finds_every_name_it_wraps():
    # perfbench/spans.py patches functions and methods by name, reading each
    # from its owner's __dict__; a name dropped from the package would crash
    # every traced benchmark run.
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    tracer = spans.Tracer()
    tracer.install()
    try:
        patched = list(tracer._patches)
        assert patched
        assert all(getattr(owner, attr) is not original
                   for owner, attr, original in patched)
    finally:
        tracer.restore()
    assert all(owner.__dict__[attr] is original
               for owner, attr, original in patched)


@functools.cache
def _workloads():
    path = ROOT / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads


@pytest.mark.parametrize("name", ["account", "calibrate", "train", "argmax"])
def test_every_benchmark_workload_runs_one_pass_and_its_check(name):
    # One pass of each perfbench workload, as the runner makes it, and the
    # workload's own output check: a name or a parameter the benchmark still
    # passes fails here when it goes, not only in CI's benchmark smoke run.
    workload = _workloads().WORKLOADS[name](1)
    records = [call() for _, call in workload.ops]
    results = workload.check(records).results
    assert results and all(ok for _, ok, _ in results), results
