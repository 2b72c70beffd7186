#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the cmpk command line.

    python3 perfbench/run.py --workload sphere-estimate --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 1 --out results.jsonl

Run from the root of a checkout; the package is imported from its `src`.
Every phase runs in a fresh single-threaded interpreter (perfbench/worker.py),
one at a time: five set-ups, then one solve loop that invokes the workload's
`cmpk` command in-process for `--seconds` seconds. With `--trace 0` the last
line of output is a JSON object with the end-to-end metrics, with `--trace 1`
one with the per-layer metrics. Workloads, metrics and the baseline are
described in README.md next to this file.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from metrics import DETERMINISTIC, END_TO_END, PER_LAYER

N_SETUPS = 5          # fresh interpreters per run; set-up time is their median
DEADLINE_S = 170.0    # a run gives up (and kills its worker) after this long
WORK_ROOT = "perfbench/_work"

ROOT = Path(__file__).resolve().parent.parent


def git_commit(root: Path) -> str:
    """HEAD commit read from .git, or "unknown" outside a git checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


class WorkerError(RuntimeError):
    pass


def run_worker(spec: dict, deadline: float) -> dict:
    """Run one phase in a fresh interpreter and return its JSON result."""
    result = ROOT / spec["work_dir"] / f"{spec['mode']}.json"
    result.unlink(missing_ok=True)
    env = {k: v for k, v in os.environ.items() if k != "CMPK_LOG"}
    env.update(
        PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0",
        OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1",
    )
    spec = dict(spec, root=str(ROOT), result=str(result))
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise WorkerError(f"no time left for the {spec['mode']} phase")
    try:
        proc = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "worker.py"), json.dumps(spec)],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired as e:
        raise WorkerError(f"{spec['mode']} phase exceeded the {DEADLINE_S:.0f} s deadline") from e
    if proc.returncode != 0 or not result.is_file():
        tail = "\n".join(proc.stderr.strip().splitlines()[-15:])
        raise WorkerError(f"{spec['mode']} phase exited with {proc.returncode}:\n{tail}")
    return json.loads(result.read_text())


def median_layers(reps: list[dict], problems: list[str]) -> dict[str, float]:
    """Median over repetitions; deterministic counts must agree exactly."""
    out = {}
    for name in reps[0]:
        values = [r[name] for r in reps]
        if name in DETERMINISTIC and len(set(values)) > 1:
            problems.append(f"{name} does not repeat between identical invocations: {values}")
        out[name] = statistics.median(values)
    return out


def run_workload(name: str, seed: int, seconds: int, trace: bool) -> dict:
    w = workloads.WORKLOADS[name]
    deadline = time.monotonic() + DEADLINE_S
    work_dir = f"{WORK_ROOT}/{name}"
    workloads.prepare_inputs(w, ROOT, work_dir)
    spec = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
            "work_dir": work_dir}
    setups = [run_worker(dict(spec, mode="setup"), deadline) for _ in range(N_SETUPS)]
    solve = run_worker(dict(spec, mode="solve"), deadline)
    problems = list(dict.fromkeys(solve["problems"]))
    if trace:
        values = median_layers([s["layers"] for s in setups], problems)
        values.update(median_layers(solve["layers"], problems))
        traced = statistics.median(solve["traced"])
        values["trace.solve_s"] = traced
        values["trace.overhead_s"] = traced - statistics.median(solve["untraced"])
        units = PER_LAYER
        invocations = len(solve["untraced"]) + len(solve["traced"])
    else:
        values = {
            "setup_s": statistics.median(s["setup_s"] for s in setups),
            "solve_s": statistics.median(solve["times"]),
            "peak_rss_mb": solve["peak_rss_mb"],
        }
        units = END_TO_END
        invocations = len(solve["times"])
    missing = set(units) - set(values)
    if missing:
        problems.append(f"metrics not measured: {sorted(missing)}")
    attempted = N_SETUPS + solve["attempted"]
    failed = solve["failed"]
    envs = {json.dumps(s["env"], sort_keys=True) for s in setups + [solve]}
    if len(envs) != 1:
        problems.append("workers ran in different environments")
    detail = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "env": dict(solve["env"], commit=git_commit(ROOT)),
        "setups": N_SETUPS, "invocations": invocations,
        "error_rate": failed / attempted,
        "bound_error": max(solve["bound_errors"]) if solve["bound_errors"] else None,
        "setup_s_each": [s["setup_s"] for s in setups],
        "setup_wall_s_each": [s["wall_s"] for s in setups],
        "setup_reference_s_each": [s["reference_s"] for s in setups],
        "solve_s_each": solve.get("times", []),
        "solve_wall_s_each": solve.get("wall") or solve["untraced"],
        "solve_reference_s_each": solve.get("reference", []),
        "problems": problems,
    }
    return {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": values.get(m, 0.0), "unit": u} for m, u in units.items()},
        "detail": detail,
    }


def print_result(res: dict) -> None:
    d = res["detail"]
    print(f"== {d['workload']} seed={d['seed']} trace={d['trace']} "
          f"({d['setups']} set-ups, {d['invocations']} invocations)")
    for name, m in res["metrics"].items():
        print(f"  {name:40s} {m['value']:>14.6g} {m['unit']}")
    print(f"  {'error_rate':40s} {d['error_rate']:>14.6g} failed/attempted "
          f"({res['failed']}/{res['attempted']})")
    if d["bound_error"] is not None:
        print(f"  {'bound_error':40s} {d['bound_error']:>14.6g} (k units)")
    if d["solve_reference_s_each"]:
        med = statistics.median
        print(f"  unscaled medians: setup {med(d['setup_wall_s_each']):.6g} s, "
              f"solve {med(d['solve_wall_s_each']):.6g} s, reference task "
              f"{med(d['setup_reference_s_each'] + d['solve_reference_s_each']):.6g} s")
    for p in d["problems"]:
        print(f"  PROBLEM: {p}")
    print(json.dumps(d, sort_keys=True))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--out", help="append each result as one JSON line to this file")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (ROOT / "src" / "cmpk" / "__init__.py").is_file():
        print(f"error: no cmpk source tree at {ROOT / 'src' / 'cmpk'}", file=sys.stderr)
        return 2
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    for name in names:
        try:
            res = run_workload(name, args.seed, args.seconds, bool(args.trace))
        except WorkerError as e:
            print(f"error: {name}: {e}", file=sys.stderr)
            return 1
        print_result(res)
        results.append(res)
        if args.out:
            with open(args.out, "a") as fh:
                fh.write(json.dumps(res, sort_keys=True) + "\n")
    final = {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": results[0]["metrics"] if len(results) == 1 else {},
    }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
