"""Benchmark harness for ggprivacy: pinned workloads through the public API.

Run from the repository root:

    python3 perfbench/run.py --workload account --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15

One run measures set-up in fresh processes, then runs passes of the workload
back to back (a closed loop in this process) until ``--seconds`` have
elapsed, then checks the outputs outside the timed region.  Each pass has
its own seed derived from ``--seed``.  With ``--trace 0`` it reports the
end-to-end metrics.  With ``--trace 1`` it runs a warm-up pass, then
alternates traced and untraced passes, reports the per-layer metrics from
the traced ones (see spans.py), and replays the first traced pass untraced:
the two must match bitwise.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
holds the full record (environment, timing distributions, checks).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import envinfo

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_RUNS = 3
# Touches every kernel once, so numba (where present) compiles them all.
SETUP_CODE = """
from ggprivacy import GGParams, MechanismSpec, account, clip_rows
account(MechanismSpec(GGParams(2.0, 4.0), 1.0, 0.5, 2), delta=1e-5, rng=0,
        samples_n=10_000, bins=2 ** 10)
clip_rows([[1.0, 2.0]], 2.0, 1.0)
"""
END_TO_END = [("setup_s", "s"), ("wall_s", "s"), ("op_s", "s"),
              ("peak_rss_mb", "MB")]
THROUGHPUT = {"train": "steps_per_s", "argmax": "trials_per_s"}


def tail_summary(samples: list[float]) -> dict:
    """Median plus the highest percentile with at least ten samples beyond
    it (None when there are too few samples for one)."""
    n = len(samples)
    out = {"n": n, "median": statistics.median(samples) if samples else None,
           "percentile": None, "percentile_value": None, "samples": samples}
    if n >= 11:
        pct = 100.0 * (n - 10) / n
        ordered = sorted(samples)
        out["percentile"] = round(pct, 2)
        out["percentile_value"] = ordered[n - 11]
    return out


def measure_setup() -> list[float]:
    """Wall seconds of fresh processes that import ggprivacy and run one tiny
    `account` (first FFT, JIT compilation where numba is present)."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(SETUP_RUNS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, cwd=ROOT,
                       check=True, timeout=120, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
    return times


def run_pass(workload, tracer, pass_id: int) -> dict:
    """Call every op once; stop at the first op that raises."""
    result = {"traced": tracer is not None, "op_s": [], "records": [],
              "error": None}
    if tracer is not None:
        tracer.pass_id = pass_id
        tracer.install()
    try:
        start = time.perf_counter()
        for label, call in workload.ops:
            op_start = time.perf_counter()
            try:
                record = (tracer.wrap("op", call) if tracer else call)()
            except Exception:
                result["error"] = f"{label}: {traceback.format_exc()}"
                break
            result["op_s"].append(time.perf_counter() - op_start)
            result["records"].append(record)
        result["wall_s"] = time.perf_counter() - start
    finally:
        if tracer is not None:
            tracer.restore()
    return result


def pass_seed(seed: int, index: int) -> int:
    """Seed of pass ``index`` of a run.  Every pass gets inputs of its own,
    so a cache that outlives a call cannot turn later passes into lookups."""
    import numpy as np
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> tuple:
    import spans
    from workloads import WORKLOADS, fingerprint

    exec(SETUP_CODE, {})                         # warm this process up too
    setup = measure_setup()
    tracer = spans.Tracer() if trace else None

    # A traced run starts with an untimed warm-up pass, so that neither side
    # of the traced-minus-untraced overhead pays for first-call costs; then
    # it alternates traced and untraced passes, at least one of each.
    warmup = 1 if trace else 0
    passes = []
    start = time.perf_counter()
    while True:
        index = len(passes)
        traced = trace and index >= warmup and (index - warmup) % 2 == 0
        workload = WORKLOADS[name](pass_seed(seed, index))
        passes.append(run_pass(workload, tracer if traced else None, index))
        passes[-1].update(warmup=index < warmup, workload=workload)
        if passes[-1]["error"]:
            break
        if time.perf_counter() - start >= seconds \
                and index + 1 >= warmup + (2 if trace else 1):
            break

    checks = []
    eps_abs_err = record_outputs = None
    first = passes[warmup] if len(passes) > warmup else None
    if not passes[-1]["error"]:
        record_outputs = [{k: v for k, v in r.items()
                           if isinstance(v, (bool, int, float))}
                          for r in first["records"]]
        verdict = first["workload"].check(first["records"])
        checks = verdict.results
        eps_abs_err = verdict.eps_abs_err
    if trace and not passes[-1]["error"]:
        # Replay the first timed pass, which was traced, untraced and untimed
        # from a new workload built from the same seed: one check that a seed
        # replays bitwise and that the wrappers are transparent.
        replay = run_pass(WORKLOADS[name](first["workload"].seed), None, -1)
        passes.append(dict(replay, warmup=True))
        same = not replay["error"] and \
            fingerprint(replay["records"]) == fingerprint(first["records"])
        checks.append(("traced pass replays untraced bitwise", same,
                       f"seed {first['workload'].seed}"))
    attempted = sum(len(p["op_s"]) + bool(p["error"]) for p in passes)
    failed = sum(bool(p["error"]) for p in passes)

    complete = [p for p in passes if not p["error"] and not p["warmup"]]
    untraced = [p for p in complete if not p["traced"]]
    traced_passes = [p for p in complete if p["traced"]]
    record = {"workload": name, "seed": seed, "seconds": seconds,
              "trace": int(trace), "passes": len(passes),
              "errors": [p["error"] for p in passes if p["error"]],
              "setup_s": tail_summary(setup),
              "outputs": record_outputs}
    if untraced:
        record["wall_s"] = tail_summary([p["wall_s"] for p in untraced])
        record["op_s"] = tail_summary([t for p in untraced for t in p["op_s"]])
    metrics = {}
    if untraced and not trace:
        # Mean over op kinds of each kind's median, so the value does not
        # jump with the number of passes that fit in the run.
        per_kind = zip(*(p["op_s"] for p in untraced))
        metrics = {
            "setup_s": statistics.median(setup),
            "wall_s": record["wall_s"]["median"],
            "op_s": statistics.mean(statistics.median(k) for k in per_kind),
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    if untraced and traced_passes:
        traced_wall = statistics.median(p["wall_s"] for p in traced_passes)
        layer = spans.layer_metrics(
            tracer.spans, [i for i, p in enumerate(passes)
                           if p["traced"] and not p["error"]],
            sum(p["wall_s"] for p in traced_passes))
        layer["trace.overhead_s"] = traced_wall - record["wall_s"]["median"]
        for wl_name, key in THROUGHPUT.items():
            layer[key] = 0.0
            if wl_name == name:
                work = sum(r["work"] for p in untraced for r in p["records"])
                layer[key] = work / sum(sum(p["op_s"]) for p in untraced)
        layer["eps_abs_err"] = eps_abs_err
        checks.append(("traced self time covers >= 90% of wall",
                       layer["trace.coverage"] >= 0.9,
                       f"{layer['trace.coverage']:.4f}"))
        record["traced_wall_s"] = tail_summary(
            [p["wall_s"] for p in traced_passes])
        metrics = layer
    attempted += len(checks)
    failed += sum(not ok for _, ok, _ in checks)
    if trace and metrics:
        metrics["fail_frac"] = failed / attempted
    record["checks"] = [{"name": n, "ok": ok, "detail": d}
                        for n, ok, d in checks]
    env = envinfo.record(ROOT)
    if trace:
        env["kernel_backends"] = envinfo.kernel_backends()
    record["env"] = env

    units = dict(END_TO_END) if not trace else \
        {n: u for n, u, _ in spans.LAYER_METRICS}
    result = {"correct": bool(complete) and failed == 0,
              "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": float(metrics[k]), "unit": units[k]}
                          for k in units if k in metrics}}
    return record, result


def run_all(args) -> int:
    """Every workload, untraced then traced, each in its own process."""
    from workloads import WORKLOADS

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, __file__, "--workload", name,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(trace)]
                + (["--out", args.out] if args.out else []),
                capture_output=True, text=True, timeout=900)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                sys.stderr.write(proc.stderr)
                return proc.returncode or 1
            res = json.loads(lines[-1])
            combined["correct"] &= res["correct"]
            combined["attempted"] += res["attempted"]
            combined["failed"] += res["failed"]
            for metric, value in res["metrics"].items():
                combined["metrics"][f"{name}.{metric}"] = value
                print(f"{name:<10} {metric:<36} {value['value']:>14.6g} "
                      f"{value['unit']}")
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    from_names = ("account", "calibrate", "train", "argmax", "all")
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=from_names)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="append the full record and the "
                                      "result as JSON lines to this file")
    args = parser.parse_args(argv)

    if not (SRC / "ggprivacy" / "__init__.py").is_file():
        print(f"perfbench: no ggprivacy sources at {SRC}", file=sys.stderr)
        return 2
    for var in envinfo.THREAD_VARS:   # before numpy is first imported
        os.environ[var] = envinfo.PINNED_THREADS
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)

    record, result = run_workload(args.workload, args.seed, args.seconds,
                                  bool(args.trace))
    if args.out:
        with open(args.out, "a") as fh:
            fh.write(json.dumps({"record": record, "result": result}) + "\n")
    for error in record["errors"]:
        print(error, file=sys.stderr)
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
