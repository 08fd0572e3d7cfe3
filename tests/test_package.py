"""The package's public namespace."""

from __future__ import annotations

import importlib.util
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import ggprivacy


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


def test_readme_quick_start_prints_what_it_says(capsys):
    # The first block of the README's quick start runs as written; its
    # printed epsilon rounds to the annotated value, and tau and
    # epsilon_conservative round to the figures in the text below it.
    readme = Path(__file__).resolve().parents[1] / "README.md"
    quick = readme.read_text(encoding="utf-8").split("## Quick start", 1)[1]
    block = quick.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, "README.md quick start", "exec"), {})
    epsilon, (_, tau), conservative = (
        line.split() for line in capsys.readouterr().out.splitlines())
    want = re.search(r"-> ([0-9.]+)", block).group(1)
    decimals = len(want.split(".")[1])
    assert f"{float(epsilon[0]):.{decimals}f}" == want
    assert f"`τ ≈ {round(float(tau))}`" in quick
    assert f"`ε_conservative ≈ {round(float(conservative[0]))}`" in quick


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
