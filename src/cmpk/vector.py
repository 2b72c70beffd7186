"""Verdict-criterion measurements as arrays, evaluated by the kernels of `cmpk.kernels`.

`estimate` bisects over k on one fixed sample set.  A batch turns one
criterion's stored measurements into arrays once; its `defects` gives every
sample's two oriented defects at any k in a few array passes, and `margins`
one of them minus its tolerance.  The passes run the scalar evaluator's
kernels on arrays, with one of two `Trig`s: with NUMPY's ufuncs each value
differs from the scalar evaluator's by a few rounding errors of the trig
functions; with MATH's, which go through `math` entry by entry, each value
is the scalar evaluator's bit for bit.  cos, sin and sqrt are numpy's in
both: they round as `math` does.

Every measurement of a criterion has one shape, so a batch is plain arrays:
a triangle's sides and its ladder triples' sides as one (12, n) array, a
point-segment sample's probes as (n, CHEBYSHEV_NODES) arrays.
Measurements of any other shape raise ValueError.

A defect reads nan where the arrays do not decide the sample: where the
scalar evaluation could raise (side, perimeter or hyperbolic-range bounds,
the triangle inequality, the adjacent-side floor, a point-segment probe that
is not strictly interior, a non-finite result), and where the value is
ill-conditioned (a cosine within ILL of +-1 before acos, an arc within ILL
of its branch switch or its antipodal clamp).  The estimator evaluates those
samples with the scalar evaluator.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from cmpk.config import MAX_HYPERBOLIC_ARG, TRI_REL, Tolerances
from cmpk.criteria import CHEBYSHEV_NODES
from cmpk import kernels
from cmpk.model import PI, _perimeter_bound
from cmpk.spaces import _each

ILL = 1e-6  # conditioning band left to the scalar path (see the module docstring)


def _math(f, lo: float = -math.inf, hi: float = math.inf) -> Callable:
    """f of every entry through `math`, nan outside [lo, hi], where it would raise."""
    def each(x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        inside = (x >= lo) & (x <= hi)
        return np.where(inside, _each(f, np.where(inside, x, 0.0).ravel()).reshape(x.shape),
                        np.nan)
    return each


NUMPY = kernels.Trig(np.cos, np.sin, np.sqrt, np.cosh, np.sinh, np.arcsin, np.arcsinh,
                     np.arccos, np.where)
MATH = NUMPY._replace(cosh=_math(math.cosh, -700.0, 700.0), sinh=_math(math.sinh, -700.0, 700.0),
                      asin=_math(math.asin, -1.0, 1.0), asinh=_math(math.asinh),
                      acos=_math(math.acos, -1.0, 1.0))


def _ill(k: float, v: np.ndarray) -> np.ndarray:
    """Where `arc_from_vcs(k, v)` is within ILL of its branch switch or its antipodal clamp."""
    x2 = 0.5 * k * v
    return (k > 0.0) & ((np.abs(x2 - 0.5) < ILL) | (x2 > 1.0 - ILL))


def comparison_angles(k: float, a: np.ndarray, b: np.ndarray, c: np.ndarray,
                      trig: kernels.Trig = NUMPY, raw: np.ndarray | None = None):
    """`model.comparison_angle(k, (a, b, c))` per element, and where it is decided;
    `raw`, when given, is the angle's cosine from the caller's side kernels."""
    if raw is None:
        raw = kernels.cos_angle_from_sides(k, a, b, c, trig)
    perimeter = a + b + c
    slack = TRI_REL * perimeter
    ok = (np.isfinite(perimeter) & (a >= 0.0) & (b >= 0.0) & (c >= 0.0)
          & (a <= b + c + slack) & (b <= c + a + slack) & (c <= a + b + slack))
    if k > 0.0:
        bound = PI / math.sqrt(k)
        ok &= (a < bound) & (b < bound) & (c < bound) & (perimeter < _perimeter_bound(k))
    elif k < 0.0:
        rk = math.sqrt(-k)
        ok &= ((rk * a <= MAX_HYPERBOLIC_ARG) & (rk * b <= MAX_HYPERBOLIC_ARG)
               & (rk * c <= MAX_HYPERBOLIC_ARG))
    floor = 1e-12 * np.maximum(perimeter, 1e-300)
    ok &= (a > floor) & (b > floor) & (np.abs(raw) < 1.0 - ILL)
    return trig.acos(raw), ok


class Batch:
    """One criterion's stored measurements as arrays; subclasses define `_defects`."""

    def __init__(self, ms: Sequence, tol_cfg: Tolerances):
        self.n = len(ms)
        self.tolerance = np.array([tol_cfg.verdict_tolerance(m.scale) for m in ms], float)

    def defects(self, k: float, trig: kernels.Trig = NUMPY) -> tuple[np.ndarray, np.ndarray]:
        """Each sample's (cbb, cba) defects at k; nan where undecided.  With
        trig MATH every decided defect is the scalar evaluator's bit for bit."""
        if self.n == 0 or not math.isfinite(k):
            return np.full(self.n, np.nan), np.full(self.n, np.nan)  # the scalar path decides
        with np.errstate(all="ignore"):  # masked elements may overflow or divide by 0
            cbb, cba, ok = self._defects(float(k), trig)
            ok &= np.isfinite(cbb) & np.isfinite(cba)
            return np.where(ok, cbb, np.nan), np.where(ok, cba, np.nan)

    def margins(self, k: float, orientation: str) -> np.ndarray:
        """Each sample's oriented defect minus its tolerance at k; nan where undecided."""
        if orientation not in ("cbb", "cba"):
            return np.full(self.n, np.nan)  # the scalar path raises
        cbb, cba = self.defects(k)
        return (cbb if orientation == "cbb" else cba) - self.tolerance

    def _defects(self, k: float, trig: kernels.Trig) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(cbb defects, cba defects, decided) per sample at k."""
        raise NotImplementedError


class PythagoreanBatch(Batch):
    def __init__(self, ms: Sequence, tol_cfg: Tolerances):
        super().__init__(ms, tol_cfg)
        cols = np.array([(m.d_qp, m.d_pr1, m.d_qr1, m.d_pr2, m.d_qr2) for m in ms], float)
        qp, pr1, qr1, pr2, qr2 = cols.reshape(-1, 5).T
        # both right triangles of every sample in one array: first all (qp, pr1, qr1)
        self.sides = (np.concatenate((qp, qp)), np.concatenate((pr1, pr2)),
                      np.concatenate((qr1, qr2)))

    def _defects(self, k, trig):
        angle, ok = comparison_angles(k, *self.sides, trig)
        d1, d2 = (angle - 0.5 * PI).reshape(2, -1)
        return np.maximum(d1, d2), np.maximum(-d1, -d2), ok.reshape(2, -1).all(axis=0)


class PointSegmentBatch(Batch):
    def __init__(self, ms: Sequence, tol_cfg: Tolerances):
        super().__init__(ms, tol_cfg)
        self.qp, self.qr, self.length = np.array(
            [(m.d_qp, m.d_qr, m.length) for m in ms], float).reshape(-1, 3).T
        # (n, CHEBYSHEV_NODES) arrays of the probes' t and measured distance
        self.t, self.real = np.array([m.probes for m in ms], float).reshape(
            self.n, CHEBYSHEV_NODES, 2).transpose(2, 0, 1)

    def _defects(self, k, trig):
        alpha, ok = comparison_angles(k, self.qp, self.length, self.qr, trig)
        qp, length, t = self.qp[:, None], self.length[:, None], self.t
        # `model.comparison_distances`: the model side from q~ to each probe of [p~ r~]
        v = (kernels.vcs(k, qp, trig) + kernels.cs(k, qp, trig) * kernels.vcs(k, t, trig)
             - kernels.sn(k, qp, trig) * kernels.sn(k, t, trig) * trig.cos(alpha)[:, None])
        model_d = kernels.arc_from_vcs(k, v, trig)
        probe_ok = (0.0 < t) & (t < length) & ~_ill(k, v)
        if k > 0.0:
            probe_ok &= qp + t + model_d < _perimeter_bound(k)
        defect = self.real - model_d
        return -defect.min(axis=1), defect.max(axis=1), ok & probe_ok.all(axis=1)


class TriangleBatch(Batch):
    # `sides` rows: pq, pr, the ladders' first sides at p, q, r, qr, their second, their
    # third; the model angles at p, q, r, then the ladders', are between A and B, opposite C
    A, B, C = [0, 0, 1, 2, 3, 4], [1, 5, 5, 6, 7, 8], [5, 1, 0, 9, 10, 11]

    def __init__(self, ms: Sequence, tol_cfg: Tolerances):
        super().__init__(ms, tol_cfg)
        qr, pr, pq = np.array([m.sides for m in ms], float).reshape(self.n, 3).T
        ladder = np.array([m.ladders for m in ms], float).reshape(self.n, 3, 3).T
        self.sides = np.vstack((pq, pr, ladder[0], qr, ladder[1], ladder[2]))

    def _defects(self, k, trig):
        # each side's kernels once: cs of rows A, sn of rows A and B, vcs of all
        x, a, b = self.sides, self.A, self.B
        v, s = kernels.vcs(k, x, trig), kernels.sn(k, x[:9], trig)
        raw = (v[a] + kernels.cs(k, x[:5], trig)[a] * v[b] - v[self.C]) / (s[a] * s[b])
        angle, ok = comparison_angles(k, x[a], x[b], x[self.C], trig, raw)
        model, ladder = angle.reshape(2, 3, -1)
        # lower bound needs angle >= model angle at every vertex
        return (model - ladder).max(axis=0), (ladder - model).max(axis=0), ok.all(axis=0)
