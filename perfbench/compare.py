#!/usr/bin/env python3
"""Compare two result sets written by `run.py --out`.

    python3 perfbench/compare.py parent.jsonl change.jsonl

Each file holds one run.py result per line, typically one line per seed.
For every workload and metric both sides' medians and quartiles are printed
with the change of the median; an end-to-end metric whose median worsened by
more than its bound in BENCHMARK.json is marked. The compiled and the pure
Python kernels differ 8-14x per call, so result sets measured on different
kernel backends are refused (exit code 2).
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(path: str) -> list[dict]:
    return [json.loads(line) for line in Path(path).read_text().splitlines() if line.strip()]


def backends(results: list[dict]) -> set[str]:
    return {r["detail"]["env"]["kernels_backend"] for r in results}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def grouped(results: list[dict]) -> dict[tuple[str, str], list[float]]:
    out: dict[tuple[str, str], list[float]] = defaultdict(list)
    for r in results:
        for name, m in r["metrics"].items():
            out[(r["detail"]["workload"], name)].append(m["value"])
    return out


def compare(a: list[dict], b: list[dict], bounds: dict[str, tuple[float, str]]) -> list[str]:
    """One line per (workload, metric) measured on both sides."""
    ga, gb = grouped(a), grouped(b)
    lines = []
    for key in sorted(ga.keys() & gb.keys()):
        qa, qb = quartiles(ga[key]), quartiles(gb[key])
        change = (qb[1] - qa[1]) / qa[1] if qa[1] else 0.0
        mark = ""
        if key[1] in bounds:
            bound, better = bounds[key[1]]
            worse = change if better == "lower" else -change
            mark = "WORSE THAN BOUND" if worse > bound else "within bound"
        lines.append(
            f"{key[0]:27s} {key[1]:40s} {qa[1]:12.6g} [{qa[0]:.6g}, {qa[2]:.6g}] -> "
            f"{qb[1]:12.6g} [{qb[0]:.6g}, {qb[2]:.6g}] {change:+8.2%} {mark}"
        )
    return lines


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    a, b = load(argv[0]), load(argv[1])
    if len(backends(a) | backends(b)) != 1:
        print(f"refusing to compare: kernel backends differ ({sorted(backends(a))} vs "
              f"{sorted(backends(b))})", file=sys.stderr)
        return 2
    spec = json.loads(BENCHMARK.read_text())
    bounds = {m["name"]: (m["bound"], m["better"]) for m in spec["end_to_end"]}
    for line in compare(a, b, bounds):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
