"""Span tracing of cmpk's layers, installed from outside the package.

`Tracer.install` replaces the package's public functions, the geometric
methods of every space class and the mesh graph's methods with wrappers, and
`uninstall` puts the originals back. Every reference to a wrapped function in
the layer modules is replaced, including values of module-level dicts:
`estimator._EVALUATORS` binds the criterion evaluators at import, so patching
only `criteria.evaluate_*` would miss what the estimator actually calls.

Each traced call is a frame on one stack. A call that opens no traced call of
its own is a leaf and is folded into a per-(parent, name) aggregate of call
count and seconds; this bounds memory and overhead for the hot leaves (space
distances, geodesic evaluation, trig kernels). A call that does open one is
kept as a span (id, name, start, end, parent, ok). Spans stay in memory until
the run ends. A span's self time is its duration minus the time its child
spans and folded leaves cover.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import sys
from collections import defaultdict
from time import perf_counter

LAYERS = ("cli", "estimator", "criteria", "model", "kernels", "spaces", "mesh")
SPACE_METHODS = ("distance", "minimal_geodesics", "geodesic", "sample_ball", "shoot")
# private functions that mark a layer boundary the public names do not
EXTRA_PRIVATE = {"estimator": ("_orientation_pass", "_worst_defect")}
KERNEL_MODULES = {"cmpk._scalar_py": "kernels", "cmpk._scalar_cy": "kernels"}

ROOT = 0  # parent id of calls made outside any traced call


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []  # (id, name, start, end, parent, ok)
        self.leaves: dict[tuple[int, str], list] = {}  # (parent, name) -> [calls, s, errors]
        self.counters: dict[str, int] = defaultdict(int)
        self._stack: list[list] = []  # frames: [name, id or None]
        self._ids = itertools.count(ROOT + 1)
        self._patches: list[tuple] = []  # (container, key, original)

    def reset(self) -> None:
        self.spans.clear()
        self.leaves.clear()
        self.counters.clear()

    def wrap(self, name: str, fn, counter=None):
        """`fn` recording itself under `name`; `counter` = (counter name, args -> int)."""
        stack, spans, leaves, counters, ids = (
            self._stack, self.spans, self.leaves, self.counters, self._ids)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if counter is not None:
                counters[counter[0]] += counter[1](*args, **kwargs)
            if stack:
                top = stack[-1]
                if top[0] == name:  # re-entry (a space delegating to its own kind)
                    return fn(*args, **kwargs)
                parent = top[1]
                if parent is None:  # the caller turns out not to be a leaf
                    parent = top[1] = next(ids)
            else:
                parent = ROOT
            frame = [name, None]
            stack.append(frame)
            ok = True
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                ok = False
                raise
            finally:
                end = perf_counter()
                stack.pop()
                if frame[1] is None:
                    agg = leaves.get((parent, name))
                    if agg is None:
                        leaves[(parent, name)] = [1, end - start, int(not ok)]
                    else:
                        agg[0] += 1
                        agg[1] += end - start
                        agg[2] += not ok
                else:
                    spans.append((frame[1], name, start, end, parent, ok))

        return wrapper

    def _patch(self, container, key, value) -> None:
        if isinstance(container, dict):
            self._patches.append((container, key, container[key]))
            container[key] = value
        else:
            self._patches.append((container, key, container.__dict__[key]))
            setattr(container, key, value)

    def install(self) -> None:
        """Wrap every traceable callable of the cmpk modules imported so far."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = {
            layer: sys.modules[f"cmpk.{layer}"] for layer in LAYERS
            if f"cmpk.{layer}" in sys.modules
        }
        wrapped: dict[int, object] = {}
        for layer, mod in modules.items():
            names = [n for n in vars(mod) if not n.startswith("_")]
            names += [n for n in EXTRA_PRIVATE.get(layer, ()) if hasattr(mod, n)]
            for attr in names:
                fn = getattr(mod, attr)
                owner = _function_layer(fn)
                if owner is None or id(fn) in wrapped:
                    continue
                wrapped[id(fn)] = self.wrap(f"{owner}.{fn.__name__.lstrip('_')}", fn)
        # replace every reference held by a layer module, dict values included
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                if attr.startswith("__"):
                    continue
                if id(value) in wrapped:
                    self._patch(mod, attr, wrapped[id(value)])
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        if id(item) in wrapped:
                            self._patch(value, key, wrapped[id(item)])
        if "spaces" in modules:
            spaces = modules["spaces"]
            for cls in _subclasses(spaces.GeodesicSpace):
                for meth in SPACE_METHODS:
                    if meth in cls.__dict__:
                        self._patch(cls, meth, self.wrap(f"spaces.{meth}", cls.__dict__[meth]))
            seg = spaces.GeodesicSegment
            self._patch(seg, "at", self.wrap("spaces.segment_at", seg.__dict__["at"]))
        if "mesh" in modules:
            graph = modules["mesh"].GeodesicGraph
            self._patch(graph, "__init__", self.wrap("mesh.graph_build", graph.__dict__["__init__"]))
            self._patch(graph, "shortest_path",
                        self.wrap("mesh.shortest_path", graph.__dict__["shortest_path"]))
            self._patch(graph, "distances_from", self.wrap(
                "mesh.distances_from", graph.__dict__["distances_from"],
                counter=("mesh.dijkstra_rows", lambda _graph, sources: len(sources)),
            ))

    def uninstall(self) -> None:
        for container, key, original in reversed(self._patches):
            if isinstance(container, dict):
                container[key] = original
            else:
                setattr(container, key, original)
        self._patches = []


def _function_layer(fn) -> str | None:
    """Layer owning a plain function defined in cmpk, or None for anything else."""
    if not callable(fn) or inspect.isclass(fn):
        return None
    module = getattr(fn, "__module__", None) or ""
    if module in KERNEL_MODULES:
        return KERNEL_MODULES[module]
    layer = module.removeprefix("cmpk.")
    return layer if module.startswith("cmpk.") and layer in LAYERS else None


def _subclasses(cls) -> list[type]:
    out, todo = [], [cls]
    while todo:
        c = todo.pop()
        out.append(c)
        todo.extend(c.__subclasses__())
    return out


# ---------------------------------------------------------------------------
# arithmetic on recorded spans


def summarize(spans, leaves) -> dict[str, dict]:
    """Per name: calls, errors, total seconds and self seconds.

    Self time is a span's duration minus the time covered by its child spans
    and folded leaves; for a folded leaf it is its whole duration.
    """
    covered: dict[int, float] = defaultdict(float)
    for _sid, _name, start, end, parent, _ok in spans:
        covered[parent] += end - start
    for (parent, _name), (_calls, seconds, _errors) in leaves.items():
        covered[parent] += seconds
    out: dict[str, dict] = defaultdict(lambda: {"calls": 0, "errors": 0, "total_s": 0.0, "self_s": 0.0})
    for sid, name, start, end, _parent, ok in spans:
        agg = out[name]
        agg["calls"] += 1
        agg["errors"] += not ok
        agg["total_s"] += end - start
        agg["self_s"] += (end - start) - covered[sid]
    for (_parent, name), (calls, seconds, errors) in leaves.items():
        agg = out[name]
        agg["calls"] += calls
        agg["errors"] += errors
        agg["total_s"] += seconds
        agg["self_s"] += seconds
    return dict(out)


def calls_under(spans, leaves, name: str, parent_name: str) -> tuple[int, float]:
    """Calls of `name` made directly inside a `parent_name` call, and their seconds."""
    parents = {sid for sid, n, *_ in spans if n == parent_name}
    calls, seconds = 0, 0.0
    for _sid, n, start, end, parent, _ok in spans:
        if n == name and parent in parents:
            calls += 1
            seconds += end - start
    for (parent, n), (c, s, _e) in leaves.items():
        if n == name and parent in parents:
            calls += c
            seconds += s
    return calls, seconds
