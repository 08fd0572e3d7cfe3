"""Summarize benchmark runs, or compare two sets of them.

Collect runs with ``run.py --out FILE`` (one JSON line per run), then:

    python3 perfbench/compare.py runs.jsonl              # medians, quartiles
    python3 perfbench/compare.py parent.jsonl change.jsonl

A summary gives, per workload and metric, the median of the runs, their
quartiles and the spread (interquartile distance over the median).  A
comparison also gives the change of the median and marks an end-to-end
metric that got worse by more than its bound in BENCHMARK.json.  Either
way a comparison whose two sides ran different kernel backends, or a
set that mixes backends, is flagged: its numbers do not measure one program.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(path: str):
    """{(workload, metric): [values]}, {(workload, metric): unit}, backends."""
    values, units, backends = defaultdict(list), {}, set()
    with open(path) as fh:
        for line in fh:
            run = json.loads(line)
            name = run["record"]["workload"]
            backends.add(run["record"]["env"]["backend"])
            for metric, m in run["result"]["metrics"].items():
                values[name, metric].append(m["value"])
                units[name, metric] = m["unit"]
    return values, units, backends


def summary(vals: list[float]) -> tuple[float, float, float, float]:
    med = statistics.median(vals)
    q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 \
        else (med, med, med)
    return med, q1, q3, (q3 - q1) / med if med else float("nan")


def main(argv: list[str]) -> int:
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    sides = [load(p) for p in argv]
    backends = set().union(*(b for _, _, b in sides))
    if len(backends) > 1:
        print(f"WARNING: kernel backends differ ({', '.join(sorted(backends))}); "
              "the runs do not measure one program")
    bounds = {}
    if BENCHMARK.is_file():
        spec = json.loads(BENCHMARK.read_text())
        bounds = {m["name"]: (m["bound"], m["better"])
                  for m in spec["end_to_end"]}

    values, units, _ = sides[0]
    for key in sorted(values):
        med, q1, q3, spread = summary(values[key])
        row = (f"{key[0]:<10} {key[1]:<40} n={len(values[key]):<3} "
               f"median={med:<12.6g} q1={q1:<12.6g} q3={q3:<12.6g} "
               f"spread={spread:.4f} {units[key]}")
        if len(sides) == 2 and key in sides[1][0]:
            other = statistics.median(sides[1][0][key])
            change = (other - med) / med if med else float("nan")
            row += f"  -> median={other:.6g} change={change:+.4f}"
            if key[1] in bounds:
                bound, better = bounds[key[1]]
                worse = change > bound if better == "lower" else -change > bound
                row += "  WORSE BEYOND BOUND" if worse else ""
        print(row)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
