"""One phase of a benchmark run in a fresh interpreter: a set-up or the solve loop.

run.py starts this file from the checkout root with PYTHONPATH pointing at the
checkout's `src`, passes a JSON spec as the only argument and reads the JSON
result the worker writes to `spec["result"]`:

    python3 perfbench/worker.py '{"mode": "setup", "workload": ..., ...}'

Set-up time runs from the worker's first statement to a ready space: the
import of cmpk.cli plus building the space from its descriptor.

The machine's speed drifts by up to 2x over minutes, so every timed phase is
paired with `reference_s()`, a fixed task timed in the same process right
next to it (after a set-up, before and after each invocation), and reported
scaled to REFERENCE_NOMINAL_S (README.md, "Measuring on a small shared
machine").
"""

import time

_T0 = time.perf_counter()
import cmpk.cli  # noqa: E402  (timed: this import is part of set-up)

_IMPORT_S = time.perf_counter() - _T0

import hashlib  # noqa: E402
import heapq  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from importlib import metadata  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import cmpk  # noqa: E402
import cmpk.spaces  # noqa: E402
from cmpk.config import DEFAULT_TOL  # noqa: E402

import metrics  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402

SEED_CYCLE = 5        # untraced invocation i uses input set i % 5 of the run's seed
MIN_REPS = SEED_CYCLE + 1  # so that at least one input set is invoked twice
MIN_TRACE_PAIRS = 2   # untraced/traced pairs per traced solve phase, at the least
SEED_STRIDE = 1000    # input set j of a run with --seed s is cmpk --seed s*1000+j

REFERENCE_NOMINAL_S = 0.25  # scaled times read as if reference_s() took this long

BUILD_SPACE = cmpk.spaces.space_from_descriptor


def _wave(x: float) -> float:
    s, c = math.sin(x), math.cos(x)
    if s > c:
        return math.sqrt(s * s + 1.0) - c
    return math.atan2(s, c + 2.0)


def reference_s() -> float:
    """Seconds a fixed task takes now: interpreted float math and calls, small
    numpy calls and heap operations, the mix the cmpk workloads are made of.
    It uses no cmpk code, so a change to the package cannot move it.
    """
    start = time.perf_counter()
    acc = 0.0
    for i in range(60000):
        acc += _wave(i * 0.001)
    a, b = np.array([0.1, 0.2, 0.97]), np.array([0.3, -0.1, 0.95])
    for _ in range(6000):
        acc += float(np.dot(a, b)) + float(np.linalg.norm(np.cross(a, b)))
    heap: list = []
    for i in range(40000):
        heapq.heappush(heap, ((i * 7919) % 10007, i))
        if len(heap) > 1024:
            heapq.heappop(heap)
    if not math.isfinite(acc):
        raise RuntimeError("reference task went non-finite")
    return time.perf_counter() - start


def scaled(seconds: float, reference: float) -> float:
    """A measured time at the nominal machine speed."""
    return seconds * REFERENCE_NOMINAL_S / reference


def environment() -> dict:
    kernels = sys.modules.get("cmpk.kernels")
    return {
        "python": sys.version.split()[0],
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "cmpk": cmpk.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "kernels_backend": getattr(kernels, "BACKEND", "none"),
    }


def build_space(text: str):
    return BUILD_SPACE(text, DEFAULT_TOL)


def serve_prebuilt(text: str) -> list:
    """Hand out spaces built before the timer starts wherever cmpk builds one.

    Every reference to `space_from_descriptor` in the cmpk modules is replaced,
    so the solve phase times the command without the space construction that
    set-up already pays for. Returns the list the caller fills with the next
    space; an invocation that did not take it built its own and is failed.
    """
    pending: list = []

    def served(desc, tol=DEFAULT_TOL):
        if desc == text and tol == DEFAULT_TOL and pending:
            return pending.pop()
        return BUILD_SPACE(desc, tol)

    for name, mod in list(sys.modules.items()):
        if name == "cmpk" or name.startswith("cmpk."):
            for attr, value in list(vars(mod).items()):
                if value is BUILD_SPACE:
                    setattr(mod, attr, served)
    return pending


def digest(*paths: Path) -> str:
    h = hashlib.sha256()
    for p in paths:
        h.update(p.read_bytes())
    return h.hexdigest()


class Solver:
    """Runs the workload's `cmpk` invocation in-process and checks each output."""

    def __init__(self, w, seed: int, work_dir: str):
        self.w, self.seed, self.work_dir = w, seed, work_dir
        self.text = workloads.space_text(w, work_dir)
        self.pending = serve_prebuilt(self.text)
        self.attempted = self.failed = 0
        self.problems: list[str] = []
        self.digests: dict[int, str] = {}
        self.bound_errors: list[float] = []

    def invoke(self, j: int, tracer: Tracer | None = None) -> float:
        """Time one invocation on input set j (cmpk --seed seed*SEED_STRIDE + j)."""
        cli_seed = self.seed * SEED_STRIDE + j
        argv = workloads.cli_argv(self.w, cli_seed, self.work_dir)
        summary, rows = workloads.report_paths(self.w, self.work_dir)
        for p in (summary, rows):
            p.unlink(missing_ok=True)
        self.pending[:] = [build_space(self.text)]
        if tracer is not None:
            tracer.reset()
            tracer.install()
        try:
            start = time.perf_counter()
            rc = cmpk.cli.main(argv)
            seconds = time.perf_counter() - start
        finally:
            if tracer is not None:
                tracer.uninstall()
        self.attempted += 1
        problems = []
        if rc != 0:
            problems.append(f"exit code {rc}")
        elif self.pending:
            problems.append("the command built its own space instead of the set-up one")
        else:
            problems += workloads.check_outputs(
                self.w, summary.read_text(), rows.read_text(), cmpk.cli.validate_report
            )
            d = digest(summary, rows)
            if self.digests.setdefault(j, d) != d:
                problems.append(f"reports of cmpk --seed {cli_seed} differ between invocations")
            if self.w.k_true is not None and not problems:
                self.bound_errors.append(
                    workloads.bound_error(json.loads(summary.read_text()), self.w.k_true)
                )
        if problems:
            self.failed += 1
            self.problems += [f"invocation {j}: {p}" for p in problems]
        return seconds


def write_spans(path: Path, tracer: Tracer) -> None:
    """The last traced invocation, for inspection: times in µs from its first span."""
    t0 = min((s[2] for s in tracer.spans), default=0.0)
    names = sorted({s[1] for s in tracer.spans} | {name for _, name in tracer.leaves})
    index = {n: i for i, n in enumerate(names)}
    path.write_text(json.dumps({
        "names": names,
        "spans": [[sid, index[name], round((start - t0) * 1e6), round((end - t0) * 1e6),
                   parent, ok] for sid, name, start, end, parent, ok in tracer.spans],
        "leaves": [[parent, index[name], calls, round(seconds * 1e6), errors]
                   for (parent, name), (calls, seconds, errors) in tracer.leaves.items()],
    }, separators=(",", ":")))


def run_setup(spec: dict, w) -> dict:
    text = workloads.space_text(w, spec["work_dir"])
    tracer = None
    if spec["trace"]:
        if w.mesh:
            import cmpk.mesh  # noqa: F401  (its graph build is traced)
        tracer = Tracer()
        tracer.install()
    start = time.perf_counter()
    build_space(text)
    build_s = time.perf_counter() - start
    wall = _IMPORT_S + build_s
    ref = reference_s()
    out = {"import_s": _IMPORT_S, "build_s": build_s, "wall_s": wall, "reference_s": ref,
           "setup_s": scaled(wall, ref)}
    if tracer is not None:
        tracer.uninstall()
        out["layers"] = metrics.setup_layer_metrics(_IMPORT_S, tracer.spans, tracer.leaves)
    return out


def run_solve(spec: dict, w) -> dict:
    solver = Solver(w, spec["seed"], spec["work_dir"])
    seconds = spec["seconds"]
    out: dict = {}
    start = time.perf_counter()
    if not spec["trace"]:
        # cycling through SEED_CYCLE input sets lets one run's median cover
        # several sampled configurations, and every repeated input set checks
        # that its reports are byte-identical; the reference task brackets
        # every invocation: refs[i], times[i], refs[i + 1]
        times, refs = [], [reference_s()]
        while len(times) < MIN_REPS or time.perf_counter() - start < seconds:
            times.append(solver.invoke(len(times) % SEED_CYCLE))
            refs.append(reference_s())
        out.update(wall=times, reference=refs, times=[
            scaled(t, 0.5 * (refs[i] + refs[i + 1])) for i, t in enumerate(times)
        ])
    else:
        # identical inputs throughout, so counts must repeat exactly and the
        # traced-minus-untraced difference is the tracing overhead
        tracer = Tracer()
        untraced, traced, layers = [], [], []
        while len(traced) < MIN_TRACE_PAIRS or time.perf_counter() - start < seconds:
            untraced.append(solver.invoke(0))
            traced.append(solver.invoke(0, tracer))
            layers.append(metrics.solve_layer_metrics(tracer.spans, tracer.leaves, tracer.counters))
            solver.problems += metrics.trace_problems(tracer.spans, tracer.leaves)
        write_spans(Path(spec["work_dir"], "spans.json"), tracer)
        out.update(untraced=untraced, traced=traced, layers=layers)
    out.update(
        attempted=solver.attempted, failed=solver.failed, problems=solver.problems,
        bound_errors=solver.bound_errors,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    return out


def main() -> int:
    spec = json.loads(sys.argv[1])
    src = (Path(spec["root"]) / "src").resolve()
    if Path(cmpk.__file__).resolve().parent.parent != src:
        print(f"cmpk was imported from {cmpk.__file__}, not from {src}", file=sys.stderr)
        return 2
    w = workloads.WORKLOADS[spec["workload"]]
    out = run_setup(spec, w) if spec["mode"] == "setup" else run_solve(spec, w)
    out["env"] = environment()
    Path(spec["result"]).write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
