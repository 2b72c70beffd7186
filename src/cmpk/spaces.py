"""Geodesic metric spaces: a uniform interface plus exact analytic examples.

Point handles are space-specific and opaque to callers: numpy vectors for the
plane / sphere / hyperboloid, ``(r, theta)`` tuples for the cone, ``(ray, r)``
for the tripod.  Spaces are immutable after construction; all randomness is
caller-supplied through numpy Generators.
"""

from __future__ import annotations

import json
import math
import sys
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from cmpk.config import DEFAULT_TOL, GEO, PT, TIE, Tolerances
from cmpk.errors import CmpkError, ShootUnavailable, SpaceDescriptorError

TWO_PI = 2.0 * math.pi


@dataclass
class GeodesicSegment:
    """A minimal geodesic, arclength-parametrized on [0, length].

    ``_eval`` maps one arclength to a point.  ``row``, on a `RowSpace`, is the
    segment's point form as floats (start and tangent on the sphere and the
    hyperboloid, the unrolled chord on the cone): the one batched form,
    from which `foot_rows` computes its feet.  ``nodes``, on a mesh,
    is the path ``at`` steps through and its arclengths.  Subsegments have
    neither.
    """

    space: "GeodesicSpace"
    start: object
    end: object
    length: float
    _eval: Callable[[float], object]
    row: tuple[float, ...] | None = None
    nodes: tuple[list[int], list[float]] | None = None

    def at(self, t: float):
        """Point at arclength t from the start (tiny overshoot clamped)."""
        length = self.length
        if t < -GEO or t > length + GEO:
            raise ValueError(f"t={t} outside [0, {length}]")
        # clamped by comparisons, as np.clip clamps the array forms' arclengths
        if t < 0.0:
            t = 0.0
        elif t > length:
            t = length
        return self._eval(t)

    def subsegment(self, t0: float, t1: float) -> "GeodesicSegment":
        """Restriction from arclength t0 to t1; t1 < t0 reverses orientation."""
        sign = 1.0 if t1 >= t0 else -1.0
        return GeodesicSegment(
            self.space,
            self.at(t0),
            self.at(t1),
            abs(t1 - t0),
            lambda s, _t0=t0, _sign=sign: self._eval(_t0 + _sign * s),
        )

    def midpoint(self):
        return self.at(0.5 * self.length)


class GeodesicSpace(ABC):
    """Abstract geodesic metric space."""

    name: str = "abstract"
    known_curvature: float | None = None
    # point data (`point_from_data`): its shape, the flat indices of the
    # entries that must be integers, and how an error names the two
    point_shape = (2,)
    point_ints = ()
    point_form = "2 numbers [x, y]"

    @abstractmethod
    def distance(self, x, y) -> float: ...

    def distances(self, x, ys) -> np.ndarray:
        """Distances from x to each point handle of the sequence ys."""
        return np.array([self.distance(x, y) for y in ys], dtype=float)

    @abstractmethod
    def minimal_geodesics(self, x, y) -> list[GeodesicSegment]:
        """All minimal geodesics from x to y, up to tie tolerance."""

    def sample_ball(self, center, radius: float, rng: np.random.Generator):
        """Draw a point of the closed metric ball (uniform direction, uniform radius)."""
        return self.shoot(center, rng.uniform(0.0, self._turn(center)), radius * rng.uniform())

    def _turn(self, center) -> float:
        """The range of the directions a ball draw shoots in from center."""
        return TWO_PI

    @abstractmethod
    def point_to_data(self, x): ...

    @abstractmethod
    def point_from_data(self, data): ...

    @abstractmethod
    def default_center(self): ...

    @abstractmethod
    def descriptor(self) -> dict: ...

    def geodesic(self, x, y) -> GeodesicSegment:
        return self.minimal_geodesics(x, y)[0]

    def shoot(self, p, phi: float, length: float):
        """Endpoint of the unit-speed geodesic from p in direction angle phi."""
        raise ShootUnavailable(f"{self.name} has no angle-parametrized directions")

    def foot_candidates(self, q, seg: GeodesicSegment) -> list[float]:
        """Arclengths, in closed form, one of which, clamped to [0, seg.length],
        minimizes distance(q, seg.at(t)) on a segment without a row or nodes:
        `criteria.foot_of_perpendicular` scores each by that distance.  A
        row's are `RowSpace.foot_rows`; a mesh path's foot is read off its
        nodes."""
        raise NotImplementedError(f"{self.name} has no closed-form foot off its rows")

    def _segment(self, start, end, length, evaluator, row=None) -> GeodesicSegment:
        return GeodesicSegment(self, start, end, float(length), evaluator, row)

    def _finite(self, data) -> np.ndarray:
        """Point data as a new float array; ValueError unless it has point_shape,
        every entry is finite and the point_ints entries are integers."""
        try:
            x = np.array(data, dtype=float)
        except (TypeError, ValueError):
            x = None
        if x is not None and x.shape == self.point_shape:
            if not np.isfinite(x).all():
                raise ValueError(f"{self.name} point data must be finite, got {x.tolist()}")
            ints = x.reshape(-1)[list(self.point_ints)]
            if (ints == np.round(ints)).all():
                return x
        raise ValueError(f"{self.name} point data must be {self.point_form}, got {data!r}")


class RowSpace(GeodesicSpace):
    """A space whose segments have a row form and whose `shoot`, `distance` and
    `geodesic` have array forms: the sphere, the hyperbolic plane and the cone.

    Each array form is bit for bit the scalar method row by row, with every
    transcendental sent through `math` (`_each`); points are the rows of a
    float array.  On these spaces a round of the foot-configuration stream
    and a right-angle profile rung are decided over arrays; on the others
    they run one try or one configuration at a time.
    """

    @abstractmethod
    def foot_rows(self, qs, rows, lengths):
        """`foot_candidates` of each qs[i] on the segment whose `row` is rows[i]
        and length lengths[i], as a list of arrays: the i-th entries of the
        arrays are the candidates of row i."""

    @abstractmethod
    def shots(self, p, phis, lengths):
        """(points, available): the shots from p (one point handle, or one row
        per shot) in directions phis over lengths; available is False where
        `shoot` raises ShootUnavailable."""

    @abstractmethod
    def pair_distances(self, xs, ys):
        """distance(xs[i], ys[i]) of each row."""

    @abstractmethod
    def row_segments(self, xs, ys):
        """(lengths, rows, starts, ends, exact): geodesic(xs[i], ys[i]) of each
        row where exact is True, as its length, its `row` and its start and
        end points, float rows bit for bit the segment's; a segment needs no
        more (`segment_of_row`).  exact is False where that geodesic has zero
        length or another form (the cone's apex route, the sphere's antipodal
        pair) or is not the only minimal geodesic (tied cone chords)."""

    @abstractmethod
    def segment_rows(self, rows):
        """The map at with at(ts)[i] `seg.at(ts[i])` of the segment whose `row`
        is rows[i]."""

    def geodesic_rows(self, xs, ys):
        """(lengths, at, exact): the geodesics of `row_segments`, as their lengths
        and the map at(ts) from arclengths within them to their points; at's
        rows where exact is False are finite placeholders."""
        lengths, rows, _, _, exact = self.row_segments(xs, ys)
        return lengths, self.segment_rows(rows), exact

    def sample_balls(self, center, radius, us):
        """(points, available): the points `sample_ball` draws from the uniforms
        us, read as (direction, radius fraction) pairs, bit for bit, and False
        where it raises ShootUnavailable.  rng.uniform(0, h) is h * rng.random(),
        so the uniforms of the scalar draws give its points."""
        return self.shots(center, self._turn(center) * us[0::2], radius * us[1::2])

    def handle(self, row):
        """The point handle of a float row of the array forms."""
        return row

    def segment_of_row(self, start, end, length: float, row: tuple) -> GeodesicSegment:
        """The segment from the handle start to end whose `row` is row
        (`_row_eval` gives its points)."""
        return self._segment(start, end, length, self._row_eval(row), row)


# ---------------------------------------------------------------------------
# Euclidean plane


class EuclideanPlane(GeodesicSpace):
    name = "plane"
    known_curvature = 0.0

    def distance(self, x, y) -> float:
        return float(np.hypot(y[0] - x[0], y[1] - x[1]))

    def minimal_geodesics(self, x, y) -> list[GeodesicSegment]:
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        d = self.distance(x, y)
        if d == 0.0:
            return [self._segment(x, y, 0.0, lambda t: x)]
        u = (y - x) / d
        return [self._segment(x, y, d, lambda t: x + t * u)]

    def shoot(self, p, phi: float, length: float):
        return np.asarray(p, dtype=float) + length * np.array(
            [math.cos(phi), math.sin(phi)]
        )

    def foot_candidates(self, q, seg):
        # the projection of q onto the segment's line
        (x0, x1), (y0, y1) = seg.start.tolist(), seg.end.tolist()
        q0, q1 = np.asarray(q, dtype=float).tolist()
        return [((q0 - x0) * (y0 - x0) + (q1 - x1) * (y1 - x1)) / seg.length]

    def point_to_data(self, x):
        return [float(x[0]), float(x[1])]

    def point_from_data(self, data):
        return self._finite(data)

    def default_center(self):
        return np.zeros(2)

    def descriptor(self) -> dict:
        return {"type": "plane"}


# ---------------------------------------------------------------------------
# Model surfaces of curvature k != 0 as quadrics: the round sphere (unit-sphere
# handles) and the hyperbolic plane (unit-hyperboloid handles in Minkowski
# space), distances scaled by 1/sqrt|k|


def _unit(v: np.ndarray) -> np.ndarray:
    """The 3-vector v scaled to unit length, its squares summed term by term:
    np.linalg.norm goes through BLAS, whose rounding depends on the CPU."""
    v0, v1, v2 = v.tolist()
    return v / math.sqrt(v0 * v0 + v1 * v1 + v2 * v2)


def _dot(u, v) -> float:
    """u . v of two 3-sequences of floats, summed term by term (np.dot goes through BLAS)."""
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


def _cross(u, v) -> list[float]:
    """u x v of two 3-sequences of floats."""
    return [u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2], u[0] * v[1] - u[1] * v[0]]


def _direction(space: GeodesicSpace, data) -> np.ndarray:
    """Point data of a sphere scaled to a unit vector; ValueError at the zero vector."""
    x = space._finite(data)
    if not x.any():
        raise ValueError(f"{space.name} point data must be {space.point_form}, got {data!r}")
    return _unit(x)


def _each(f, *xs: np.ndarray) -> np.ndarray:
    """f entry by entry through `math`: numpy's SIMD cosh, sinh, atan2 and hypot
    may not round as libm does, and the batched draws must equal the scalar ones"""
    return np.array(list(map(f, *(x.tolist() for x in xs))), dtype=float)


class _Quadric(RowSpace):
    """The sphere and the hyperbolic plane share one geodesic formula: the point
    at arclength t from x along the unit tangent w is cf(a) x + sf(a) w with
    a = t / radius, where (cf, sf) is (cos, sin) on the sphere and (cosh, sinh)
    on the hyperboloid.  A subclass sets cf, sf and its own metric: `_check`,
    `distance`, the tangent `_basis`, the tangents of `_tangent_rows`, the
    feet of `foot_rows` and `minimal_geodesics`.
    """

    cf: Callable[[float], float]
    sf: Callable[[float], float]
    point_shape, point_form = (3,), "3 numbers [x, y, z]"

    def __init__(self, k: float):
        self.k = float(k)
        self.radius = 1.0 / math.sqrt(abs(k))
        self.known_curvature = self.k

    def _row_eval(self, row):
        # per-point calls (the foot refinement) combine unpacked floats: numpy's
        # per-call overhead on 3-vectors would dominate
        x0, x1, x2, w0, w1, w2 = row
        radius, cf, sf = self.radius, self.cf, self.sf

        def ev(t):
            a = t / radius
            c, s = cf(a), sf(a)
            return np.array([c * x0 + s * w0, c * x1 + s * w1, c * x2 + s * w2])

        return ev

    def _arc(self, x, w, length) -> GeodesicSegment:
        row = (*x.tolist(), *w.tolist())
        ev = self._row_eval(row)
        return self._segment(x, ev(length), length, ev, row)

    def shoot(self, p, phi: float, length: float):
        p0, p1, p2 = self._check(p).tolist()
        (u0, u1, u2), (v0, v1, v2) = self._basis((p0, p1, p2))
        cp, sp = math.cos(phi), math.sin(phi)
        w0, w1, w2 = cp * u0 + sp * v0, cp * u1 + sp * v1, cp * u2 + sp * v2
        a = length / self.radius
        c, s = self.cf(a), self.sf(a)
        return np.array([c * p0 + s * w0, c * p1 + s * w1, c * p2 + s * w2])

    def shots(self, p, phis, lengths):
        if np.ndim(p) == 1:  # one center: checked and its tangent basis built once
            p0, p1, p2 = self._check(p).tolist()
            (u0, u1, u2), (v0, v1, v2) = self._basis((p0, p1, p2))
        else:
            p0, p1, p2 = self._check_rows(p).T
            (u0, u1, u2), (v0, v1, v2) = self._basis_rows(p0, p1, p2)
        cp, sp = _each(math.cos, phis), _each(math.sin, phis)
        a = lengths / self.radius
        c, s = _each(self.cf, a), _each(self.sf, a)
        w0, w1, w2 = cp * u0 + sp * v0, cp * u1 + sp * v1, cp * u2 + sp * v2
        points = np.stack([c * p0 + s * w0, c * p1 + s * w1, c * p2 + s * w2], axis=1)
        return points, np.ones(len(phis), bool)

    def row_segments(self, xs, ys):
        d, xs, ws, exact = self._tangent_rows(xs, ys)
        return d, np.concatenate([xs, ws], axis=1), xs, self._arc_rows(xs, ws)(d), exact

    def geodesic_rows(self, xs, ys):
        d, xs, ws, exact = self._tangent_rows(xs, ys)  # no end points, no row array
        return d, self._arc_rows(xs, ws), exact

    def _check_rows(self, xs) -> np.ndarray:
        """The rows as a float array, after `_check` of each: rows that `_inside`
        clears pass over arrays, any other row goes through `_check`."""
        xs = np.asarray(xs, dtype=float)
        for x in xs[~self._inside(*xs.T)]:
            self._check(x)
        return xs

    def _arc_rows(self, xs, ws):
        """The point map of `_arc(xs[i], ws[i], length)` of each row."""
        x0, x1, x2 = xs.T
        w0, w1, w2 = ws.T
        radius, cf, sf = self.radius, self.cf, self.sf

        def at(ts):
            a = ts / radius
            c, s = _each(cf, a), _each(sf, a)
            return np.stack([c * x0 + s * w0, c * x1 + s * w1, c * x2 + s * w2], axis=1)

        return at

    def segment_rows(self, rows):
        rows = np.asarray(rows, dtype=float)
        return self._arc_rows(rows[:, :3], rows[:, 3:])

    def point_to_data(self, x):
        return [float(c) for c in x]

    def default_center(self):
        return np.array([0.0, 0.0, 1.0])

    def descriptor(self) -> dict:
        return {"type": self.name, "k": self.k}


class Sphere(_Quadric):
    name = "sphere"
    point_form = "3 numbers [x, y, z], not all 0"
    cf, sf = staticmethod(math.cos), staticmethod(math.sin)

    def __init__(self, k: float):
        if not (1e-6 <= k <= 1e6):
            raise SpaceDescriptorError(f"sphere requires k in [1e-6, 1e6], got {k}")
        super().__init__(k)

    def _check(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        x0, x1, x2 = x.tolist()
        if not abs(x0 * x0 + x1 * x1 + x2 * x2 - 1.0) <= 1e-10:  # written so that nan fails
            raise ValueError("sphere handle must be a unit 3-vector")
        return x

    def distance(self, x, y) -> float:
        # atan2(|x × y|, x · y) on unpacked floats: at three coordinates numpy's
        # per-call overhead would dominate, and the foot refinement calls this often
        x0, x1, x2 = np.asarray(x, float).tolist()
        y0, y1, y2 = np.asarray(y, float).tolist()
        c0 = x1 * y2 - x2 * y1
        c1 = x2 * y0 - x0 * y2
        c2 = x0 * y1 - x1 * y0
        return self.radius * math.atan2(
            math.sqrt(c0 * c0 + c1 * c1 + c2 * c2), x0 * y0 + x1 * y1 + x2 * y2
        )

    def _inside(self, x0, x1, x2):
        return np.abs(x0 * x0 + x1 * x1 + x2 * x2 - 1.0) <= 1e-10

    def _basis(self, p) -> tuple[tuple[float, float, float], tuple[float, float, float]]:
        p0, p1, p2 = p
        # u = unit(ref × p) with ref = e3, or e1 near the poles; v = p × u.  Scalar
        # math: np.cross on 3-vectors costs tens of µs, and every shot calls this
        u0, u1, u2 = (-p1, p0, 0.0) if abs(p2) < 0.9 else (0.0, -p2, p1)
        n = math.sqrt(u0 * u0 + u1 * u1 + u2 * u2)
        u0, u1, u2 = u0 / n, u1 / n, u2 / n
        return (u0, u1, u2), (p1 * u2 - p2 * u1, p2 * u0 - p0 * u2, p0 * u1 - p1 * u0)

    def _basis_rows(self, p0, p1, p2):
        """`_basis` over arrays of coordinates."""
        polar = ~(np.abs(p2) < 0.9)
        u0, u1, u2 = np.where(polar, 0.0, -p1), np.where(polar, -p2, p0), np.where(polar, p1, 0.0)
        n = np.sqrt(u0 * u0 + u1 * u1 + u2 * u2)
        u0, u1, u2 = u0 / n, u1 / n, u2 / n
        return (u0, u1, u2), (p1 * u2 - p2 * u1, p2 * u0 - p0 * u2, p0 * u1 - p1 * u0)

    def pair_distances(self, xs, ys):
        x0, x1, x2 = np.asarray(xs, dtype=float).T
        y0, y1, y2 = np.asarray(ys, dtype=float).T
        c0 = x1 * y2 - x2 * y1
        c1 = x2 * y0 - x0 * y2
        c2 = x0 * y1 - x1 * y0
        return self.radius * _each(
            math.atan2, np.sqrt(c0 * c0 + c1 * c1 + c2 * c2), x0 * y0 + x1 * y1 + x2 * y2)

    def _tangent_rows(self, xs, ys):
        """The distances, checked starts, unit tangents and exact flags of `row_segments`."""
        xs, ys = self._check_rows(xs), self._check_rows(ys)
        d = self.pair_distances(xs, ys)
        exact = (d != 0.0) & ~(math.pi * self.radius - d <= TIE)
        ws = np.zeros_like(xs)
        ws[exact] = np.stack(self._toward(xs[exact].T, ys[exact].T, np.sqrt), axis=1)
        return d, xs, ws, exact

    @staticmethod
    def _toward(x, y, sqrt=math.sqrt):
        """The unit tangent at x toward y, y - (x . y) x normalized, on floats or
        on arrays of coordinates: sqrt rounds alike in numpy and math, so both
        are one arithmetic."""
        x0, x1, x2 = x
        y0, y1, y2 = y
        m = x0 * y0 + x1 * y1 + x2 * y2
        v0, v1, v2 = y0 - m * x0, y1 - m * x1, y2 - m * x2
        n = sqrt(v0 * v0 + v1 * v1 + v2 * v2)
        return v0 / n, v1 / n, v2 / n

    def foot_rows(self, qs, rows, lengths):
        # q = A x + B w + C (x × w): the point of the great circle at arclength t
        # is nearest q where t / radius is the angle of (A, B), and off the arc
        # the nearer end round the circle is.  B is taken on the part of w
        # orthogonal to x: on a short arc, rounding leaves w off orthogonal by a
        # part of the arc's length.  Where A = B = 0, q is a pole of the arc's
        # great circle and every point is a foot: the midpoint is taken
        q0, q1, q2 = np.asarray(qs, dtype=float).T
        x0, x1, x2, w0, w1, w2 = np.asarray(rows, dtype=float).T
        lengths = np.asarray(lengths, dtype=float)
        a = q0 * x0 + q1 * x1 + q2 * x2
        b = q0 * w0 + q1 * w1 + q2 * w2 - a * (x0 * w0 + x1 * w1 + x2 * w2)
        t = self.radius * _each(math.atan2, b, a)
        turn = TWO_PI * self.radius
        t = np.where(t + t < lengths - turn, t + turn, t)
        return [np.where((a == 0.0) & (b == 0.0), 0.5 * lengths, t)]

    def minimal_geodesics(self, x, y) -> list[GeodesicSegment]:
        x, y = self._check(x), self._check(y)
        d = self.distance(x, y)
        if d == 0.0:
            return [self._segment(x, y, 0.0, lambda t: x)]
        if math.pi * self.radius - d <= TIE:
            # antipodal: a continuum of minimal geodesics; report two of them
            u = np.array(self._basis(x.tolist())[0])
            return [self._arc(x, u, d), self._arc(x, -u, d)]
        return [self._arc(x, np.array(self._toward(x.tolist(), y.tolist())), d)]

    def point_from_data(self, data):
        return self._check(_direction(self, data))


def _mdot(u: np.ndarray, v: np.ndarray) -> float:
    return float(u[0] * v[0] + u[1] * v[1] - u[2] * v[2])


class Hyperbolic(_Quadric):
    name = "hyperbolic"
    cf, sf = staticmethod(math.cosh), staticmethod(math.sinh)

    def __init__(self, k: float):
        if not (1e-6 <= -k <= 1e6):
            raise SpaceDescriptorError(f"hyperbolic requires -k in [1e-6, 1e6], got {k}")
        super().__init__(k)

    def _check(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        # relative to x2^2, as <x,x> rounds; written so that nan fails
        if not (abs(_mdot(x, x) + 1.0) <= 1e-9 * x[2] * x[2] and x[2] > 0.0):
            raise ValueError("hyperboloid handle must satisfy <x,x> = -1, x2 > 0")
        return x

    def distance(self, x, y) -> float:
        x0, x1, x2 = np.asarray(x, float).tolist()
        y0, y1, y2 = np.asarray(y, float).tolist()
        d0, d1, d2 = y0 - x0, y1 - x1, y2 - x2
        # <y-x, y-x> = 4 sinh^2(theta/2); stable for nearby points
        q = max(d0 * d0 + d1 * d1 - d2 * d2, 0.0)
        return self.radius * 2.0 * math.asinh(0.5 * math.sqrt(q))

    def _inside(self, x0, x1, x2):
        return (np.abs(x0 * x0 + x1 * x1 - x2 * x2 + 1.0) <= 1e-9 * x2 * x2) & (x2 > 0.0)

    def pair_distances(self, xs, ys):
        x0, x1, x2 = np.asarray(xs, dtype=float).T
        y0, y1, y2 = np.asarray(ys, dtype=float).T
        d0, d1, d2 = y0 - x0, y1 - x1, y2 - x2
        q = d0 * d0 + d1 * d1 - d2 * d2
        q = np.where(q < 0.0, 0.0, q)  # max(q, 0.0), which keeps a -0.0
        return self.radius * 2.0 * _each(math.asinh, 0.5 * np.sqrt(q))

    def _tangent_rows(self, xs, ys):
        """The distances, checked starts, unit tangents and exact flags of `row_segments`."""
        xs, ys = self._check_rows(xs), self._check_rows(ys)
        d = self.pair_distances(xs, ys)
        x0, x1, x2 = xs.T
        y0, y1, y2 = ys.T
        m = x0 * y0 + x1 * y1 - x2 * y2
        w0, w1, w2 = y0 + m * x0, y1 + m * x1, y2 + m * x2
        n = w0 * w0 + w1 * w1 - w2 * w2
        n = np.sqrt(np.where(n < 0.0, 0.0, n))
        exact = (d != 0.0) & (n != 0.0)
        n = np.where(exact, n, 1.0)
        return d, xs, np.stack([w0 / n, w1 / n, w2 / n], axis=1), exact

    def foot_rows(self, qs, rows, lengths):
        # with A = -<q, x> and B = -<q, w>, cosh(distance / radius) from q to the
        # point at arclength t is A cosh(t / radius) + B sinh(t / radius), least
        # where tanh(t / radius) = -B / A.  B is taken on the part of w orthogonal
        # to x, as on the sphere.  A^2 - B^2 = 1 + <q, n>^2 for the unit normal
        # n, so |B / A| < 1 but for rounding, far off the segment: there the
        # foot is taken past the end
        q0, q1, q2 = np.asarray(qs, dtype=float).T
        x0, x1, x2, w0, w1, w2 = np.asarray(rows, dtype=float).T
        a = -(q0 * x0 + q1 * x1 - q2 * x2)
        ratio = (q0 * w0 + q1 * w1 - q2 * w2 - a * (x0 * w0 + x1 * w1 - x2 * w2)) / a
        inside = np.abs(ratio) < 1.0
        t = self.radius * _each(math.atanh, np.where(inside, ratio, 0.0))
        return [np.where(inside, t, np.where(ratio < 0.0, -np.inf, np.inf))]

    def minimal_geodesics(self, x, y) -> list[GeodesicSegment]:
        x, y = self._check(x), self._check(y)
        d = self.distance(x, y)
        if d == 0.0:
            return [self._segment(x, y, 0.0, lambda t: x)]
        w = y + _mdot(x, y) * x  # y - cosh(theta) x, tangent at x toward y
        return [self._arc(x, w / math.sqrt(max(_mdot(w, w), 0.0)), d)]

    # Past x2 = FAR cancellation breaks the Gram-Schmidt frame (18/sqrt(-k) out
    # v rounds onto a multiple of u), so points there take the polar frame
    FAR = 100.0

    def _basis(self, p, sqrt=math.sqrt) -> tuple[tuple[float, float, float],
                                                 tuple[float, float, float]]:
        p0, p1, p2 = p
        if np.ndim(p2) == 0 and p2 > self.FAR:  # the unit radial and angular tangents
            rho = sqrt(p0 * p0 + p1 * p1)
            return (p0 / rho * p2, p1 / rho * p2, rho), (-p1 / rho, p0 / rho, 0.0)
        # Gram-Schmidt on T_p in the Minkowski product: u = e1 + <e1,p> p, normalized;
        # v = e2 + <e2,p> p - <e2,u> u, normalized.  <e1,p> = p0, <e2,p> = p1, <e2,u> = u1.
        # Written term by term (the 0.0 + included) so every coordinate rounds, signed
        # zeros too, as the 3-vector formula does
        u0, u1, u2 = 1.0 + p0 * p0, 0.0 + p0 * p1, 0.0 + p0 * p2
        n = sqrt(u0 * u0 + u1 * u1 - u2 * u2)
        u0, u1, u2 = u0 / n, u1 / n, u2 / n
        v0 = 0.0 + p1 * p0 - u1 * u0
        v1 = 1.0 + p1 * p1 - u1 * u1
        v2 = 0.0 + p1 * p2 - u1 * u2
        n = sqrt(v0 * v0 + v1 * v1 - v2 * v2)
        return (u0, u1, u2), (v0 / n, v1 / n, v2 / n)

    def _basis_rows(self, p0, p1, p2):
        """`_basis` over arrays of coordinates (sqrt rounds alike in numpy and math),
        rows past FAR one at a time."""
        far = p2 > self.FAR
        basis = np.array(self._basis([np.where(far, c, x) for c, x in zip((0.0, 0.0, 1.0),
                                                                          (p0, p1, p2))], np.sqrt))
        for i in np.flatnonzero(far).tolist():
            basis[:, :, i] = self._basis((p0[i], p1[i], p2[i]))
        return basis

    def point_from_data(self, data):
        x = self._finite(data)  # a copy: the caller's array stays as given
        x[2] = math.sqrt(1.0 + x[0] * x[0] + x[1] * x[1])  # re-project onto the sheet
        return x


# ---------------------------------------------------------------------------
# Euclidean cone over a circle of given perimeter


class Cone(RowSpace):
    """Cone over a circle with perimeter L: points (r, theta), theta in [0, L).

    L < 2*pi is the lower-curvature-bound counterexample space; L > 2*pi is
    allowed for upper-bound experiments.  The apex is (0, 0).
    """

    name = "cone"
    point_form = "2 numbers [r, theta]"

    def __init__(self, perimeter: float):
        if not (perimeter > 0.0 and math.isfinite(perimeter)):
            raise SpaceDescriptorError(f"cone perimeter must be > 0, got {perimeter}")
        self.perimeter = float(perimeter)

    def _norm(self, x) -> tuple[float, float]:
        r, th = float(x[0]), float(x[1])
        if not r >= 0.0:  # written so that nan fails
            raise ValueError("cone radius must be >= 0")
        if r == 0.0:
            return (0.0, 0.0)
        return (r, th % self.perimeter)

    def _norm_rows(self, xs) -> tuple[np.ndarray, np.ndarray]:
        """`_norm` of each row, as arrays of radii and angles."""
        r, th = np.asarray(xs, dtype=float).T
        if not (r >= 0.0).all():  # written so that nan fails
            raise ValueError("cone radius must be >= 0")
        return r, np.where(r == 0.0, 0.0, th % self.perimeter)

    def distance(self, x, y) -> float:
        # straight-line code on floats: this is the hot call of every cone workload
        r1, r2 = float(x[0]), float(y[0])
        if r1 < 0.0 or r2 < 0.0:
            raise ValueError("cone radius must be >= 0")
        if r1 == 0.0 or r2 == 0.0:
            return r1 + r2
        period = self.perimeter
        sep = abs(float(x[1]) % period - float(y[1]) % period)
        if sep > 0.5 * period:  # shorter the other way round; period - sep is exact here
            sep = period - sep
        if sep >= math.pi:
            return r1 + r2
        # planar law of cosines; hypot form avoids cancellation for small angles
        return math.hypot(r1 - r2, math.sqrt(r1 * r2) * (2.0 * math.sin(0.5 * sep)))

    def _apex_route(self, x, y) -> GeodesicSegment:
        r1, t1 = self._norm(x)
        r2, t2 = self._norm(y)

        def ev(t, r1=r1, t1=t1, t2=t2):
            if t <= r1:
                return (r1 - t, t1)
            return (t - r1, t2)

        return self._segment((r1, t1), (r2, t2), r1 + r2, ev)

    def _unrolled_route(self, x, y, signed_sep: float) -> GeodesicSegment:
        """The chord from x to y in the sector unrolled to put x at angle 0, y at signed_sep."""
        r1, t1 = self._norm(x)
        r2, t2 = self._norm(y)
        d0, d1 = r2 * math.cos(signed_sep) - r1, r2 * math.sin(signed_sep)
        length = math.hypot(d0, d1)
        # a separation below rounding (theta 1e-17 from the seam) leaves no chord to walk
        u0, u1 = (d0 / length, d1 / length) if length > 0.0 else (0.0, 0.0)
        return self.segment_of_row((r1, t1), (r2, t2), length, (r1, t1, u0, u1))

    def _row_eval(self, row):
        r1, t1, u0, u1 = row
        period = self.perimeter

        def ev(t):
            q0, q1 = r1 + t * u0, t * u1
            return (math.hypot(q0, q1), (t1 + math.atan2(q1, q0)) % period)

        return ev

    def pair_distances(self, xs, ys):
        r1, t1 = np.asarray(xs, dtype=float).T
        r2, t2 = np.asarray(ys, dtype=float).T
        if (r1 < 0.0).any() or (r2 < 0.0).any():
            raise ValueError("cone radius must be >= 0")
        period = self.perimeter
        sep = np.abs(t1 % period - t2 % period)
        sep = np.where(sep > 0.5 * period, period - sep, sep)
        chord = _each(math.hypot, r1 - r2, np.sqrt(r1 * r2) * (2.0 * _each(math.sin, 0.5 * sep)))
        return np.where((r1 == 0.0) | (r2 == 0.0) | (sep >= math.pi), r1 + r2, chord)

    def row_segments(self, xs, ys):
        # `minimal_geodesics` where its first route is an unrolled chord and the
        # apex route is not a candidate: the chords of both turns, as it computes
        # them, and the first within tie of the shorter
        r1, t1 = self._norm_rows(xs)
        r2, t2 = self._norm_rows(ys)
        period = self.perimeter
        ccw = (t2 - t1) % period
        chords = []
        for mag, signed in ((ccw, ccw), (period - ccw, ccw - period)):
            d0, d1 = r2 * _each(math.cos, signed) - r1, r2 * _each(math.sin, signed)
            length = np.where(mag < math.pi, _each(math.hypot, d0, d1), np.inf)
            chords.append((d0, d1, length))
        (a0, a1, la), (b0, b1, lb) = chords
        best = np.minimum(la, lb)
        first = la <= best + TIE
        d0, d1, length = np.where(first, a0, b0), np.where(first, a1, b1), np.where(first, la, lb)
        exact = ((r1 != 0.0) & (r2 != 0.0) & (length > 0.0) & ~(r1 + r2 <= best + TIE)
                 & ~(np.maximum(la, lb) <= best + TIE))
        length = np.where(exact, length, 0.0)
        u0, u1 = d0 / np.where(exact, length, 1.0), d1 / np.where(exact, length, 1.0)
        # `_unrolled_route` normalizes both ends once more
        starts, ends = np.stack([r1, t1 % period], axis=1), np.stack([r2, t2 % period], axis=1)
        rows = np.concatenate([starts, np.stack([u0, u1], axis=1)], axis=1)
        return length, rows, starts, ends, exact

    def segment_rows(self, rows):
        # `_unrolled_route`'s `ev` of rows (r1, t1, u0, u1)
        r1, t1, u0, u1 = np.asarray(rows, dtype=float).T
        period = self.perimeter

        def at(ts):
            q0, q1 = r1 + ts * u0, ts * u1
            return np.stack([_each(math.hypot, q0, q1),
                             (t1 + _each(math.atan2, q1, q0)) % period], axis=1)

        return at

    def foot_rows(self, qs, rows, lengths):
        # In the development of the chord, which starts at (r1, 0) and runs along
        # u, q's images lie at radius rq and angles delta + j P, and each is
        # projected onto the chord's line.  The chord turns through at most
        # P / 2 and less than pi, so the images within P of its start, j = -1, 0
        # and 1, hold the nearest image of every point on it that is within pi.
        # Past a perimeter of 2 pi a point may be nearest through the apex: the
        # point of the chord nearest the apex is a candidate too
        rq, qt = self._norm_rows(qs)
        r1, t1, u0, u1 = np.asarray(rows, dtype=float).T
        period = self.perimeter
        delta = (qt - t1) % period
        c, s = np.cos(delta), np.sin(delta)
        out = [-r1 * u0] if period > TWO_PI else []
        for j in (-1, 0, 1):
            cj, sj = math.cos(j * period), math.sin(j * period)
            out.append(rq * ((c * cj - s * sj) * u0 + (s * cj + c * sj) * u1) - r1 * u0)
        return out

    def foot_candidates(self, q, seg):
        # a route through the apex: on each leg, the point whose radius is q's
        # radius times the cosine of its angle to the leg, and the apex
        rq, tq = self._norm(q)
        (r1, t1), (_, t2) = self._norm(seg.start), self._norm(seg.end)
        seps = [abs(tq - t) for t in (t1, t2)]
        c1, c2 = (math.cos(min(sep, self.perimeter - sep)) for sep in seps)
        return [r1 - rq * c1, r1, r1 + rq * c2]

    def minimal_geodesics(self, x, y) -> list[GeodesicSegment]:
        r1, t1 = self._norm(x)
        r2, t2 = self._norm(y)
        if self.distance((r1, t1), (r2, t2)) == 0.0:
            return [self._segment((r1, t1), (r2, t2), 0.0, lambda t: (r1, t1))]
        if r1 == 0.0 or r2 == 0.0:
            return [self._apex_route((r1, t1), (r2, t2))]
        ccw = (t2 - t1) % self.perimeter  # angle going counterclockwise from x
        # chord lengths first, as `_unrolled_route` computes them; a route is built
        # only when it ties the best (signed separation None is the apex route)
        routes: list[tuple[float, float | None]] = []
        for mag, signed in ((ccw, ccw), (self.perimeter - ccw, ccw - self.perimeter)):
            if mag < math.pi:
                routes.append(
                    (math.hypot(r2 * math.cos(signed) - r1, r2 * math.sin(signed)), signed))
        apex_len = r1 + r2
        if not routes or apex_len <= min(length for length, _ in routes) + TIE:
            routes.append((apex_len, None))
        best = min(length for length, _ in routes)
        # drop duplicated routes (e.g. ccw == 0 yields one radial chord twice)
        dedup: list[GeodesicSegment] = []
        for length, signed in routes:
            if length > best + TIE:
                continue
            if signed is None:
                seg = self._apex_route((r1, t1), (r2, t2))
            else:
                seg = self._unrolled_route((r1, t1), (r2, t2), signed)
            if not any(
                self.distance(seg.midpoint(), other.midpoint()) <= PT
                for other in dedup
            ):
                dedup.append(seg)
        return dedup

    def shoot(self, p, phi: float, length: float):
        r, th = self._norm(p)
        if r == 0.0:
            return (length, phi % self.perimeter)
        q0, q1 = r + length * math.cos(phi), length * math.sin(phi)
        rho = math.hypot(q0, q1)
        if rho <= PT:
            raise ShootUnavailable("geodesic through the cone apex is not extendable")
        return (rho, (th + math.atan2(q1, q0)) % self.perimeter)

    def _turn(self, center) -> float:
        # the apex's directions run round the whole perimeter
        return self.perimeter if self._norm(center)[0] == 0.0 else TWO_PI

    def shots(self, p, phis, lengths):
        period = self.perimeter
        if np.ndim(p) == 1:
            r, th = self._norm(p)
            if r == 0.0:
                return np.stack([lengths, phis % period], axis=1), np.ones(len(phis), bool)
        else:
            r, th = self._norm_rows(p)
        q0, q1 = r + lengths * _each(math.cos, phis), lengths * _each(math.sin, phis)
        rho = _each(math.hypot, q0, q1)
        theta = (th + _each(math.atan2, q1, q0)) % period
        apex = r == 0.0
        points = np.stack([np.where(apex, lengths, rho), np.where(apex, phis % period, theta)],
                          axis=1)
        return points, apex | ~(rho <= PT)

    def handle(self, row):
        return tuple(row.tolist())

    def point_to_data(self, x):
        r, th = self._norm(x)
        return [r, th]

    def point_from_data(self, data):
        x = self._finite(data)
        return self._norm((float(x[0]), float(x[1])))

    def default_center(self):
        return (0.0, 0.0)

    def descriptor(self) -> dict:
        return {"type": "cone", "perimeter": self.perimeter}


# ---------------------------------------------------------------------------
# Tripod: three rays glued at a point


class Tripod(GeodesicSpace):
    """Union of three rays from a common branch point; handles are (ray, r)."""

    name = "tripod"
    point_ints, point_form = (0,), "2 numbers [ray, r], the ray an integer"

    def _norm(self, x) -> tuple[int, float]:
        ray, r = int(x[0]), float(x[1])
        if ray not in (0, 1, 2):
            raise ValueError(f"tripod ray must be 0, 1 or 2, got {ray}")
        if not r >= 0.0:  # written so that nan fails
            raise ValueError("tripod radius must be >= 0")
        return (0, 0.0) if r == 0.0 else (ray, r)

    def distance(self, x, y) -> float:
        i, r1 = self._norm(x)
        j, r2 = self._norm(y)
        if i == j or r1 == 0.0 or r2 == 0.0:
            return abs(r1 - r2) if i == j else r1 + r2
        return r1 + r2

    def minimal_geodesics(self, x, y) -> list[GeodesicSegment]:
        i, r1 = self._norm(x)
        j, r2 = self._norm(y)
        if i == j:
            sgn = 1.0 if r2 >= r1 else -1.0

            def ev_same(t, i=i, r1=r1, sgn=sgn):
                return (i, r1 + sgn * t)

            return [self._segment((i, r1), (j, r2), abs(r2 - r1), ev_same)]

        def ev(t, i=i, j=j, r1=r1):
            if t <= r1:
                return (i, r1 - t)
            return (j, t - r1)

        return [self._segment((i, r1), (j, r2), r1 + r2, ev)]

    def foot_candidates(self, q, seg):
        # along a ray q sits at its radius on its own ray, and at minus its radius
        # (through the branch point) on another: the foot is q's position clamped
        k, rq = self._norm(q)
        (i, r1), (j, r2) = self._norm(seg.start), self._norm(seg.end)
        if i == j:
            rho = rq if k == i else -rq
            return [rho - r1 if r2 >= r1 else r1 - rho]
        return [r1 - rq if k == i else r1 + rq if k == j else r1]

    def sample_ball(self, center, radius, rng):
        i, r0 = self._norm(center)
        s = radius * rng.uniform()
        if r0 == 0.0:
            return (int(rng.integers(3)), s)
        if rng.uniform() < 0.5:
            return (i, r0 + s)
        if s <= r0:
            return (i, r0 - s)
        others = [ray for ray in (0, 1, 2) if ray != i]
        return (others[int(rng.integers(2))], s - r0)

    def point_to_data(self, x):
        i, r = self._norm(x)
        return [i, r]

    def point_from_data(self, data):
        x = self._finite(data)
        return self._norm((int(x[0]), float(x[1])))

    def default_center(self):
        return (0, 0.0)

    def descriptor(self) -> dict:
        return {"type": "tripod"}


# ---------------------------------------------------------------------------
# Convex spherical triangle domain (the smaller region bounded by a triangle)


class SphericalTriangleDomain(GeodesicSpace):
    """The smaller closed region of S^2_k bounded by a geodesic triangle.

    The vertex triple must lie strictly inside an open hemisphere; the region
    is then convex, so distances and geodesics coincide with the ambient
    sphere's restricted to the region.
    """

    name = "spherical_triangle"
    point_shape, point_form = (3,), "3 numbers [x, y, z], not all 0"

    def __init__(self, k: float, vertices: Sequence):
        self._sphere = Sphere(k)
        self.k = self._sphere.k
        self.known_curvature = self.k
        if len(vertices) != 3:
            raise SpaceDescriptorError("spherical triangle needs exactly 3 vertices")
        vs = []
        for v in vertices:  # checked as point data before any arithmetic
            try:
                vs.append(_direction(self, v))
            except ValueError:
                raise SpaceDescriptorError(
                    f"{self.name} vertices must each be {self.point_form}, got {v!r}") from None
        # the determinant, cross and dot products as explicit sums: BLAS and
        # LAPACK round by the CPU's kernel, and the region must not depend on it
        a, b, c = (v.tolist() for v in vs)
        crosses = [_cross(b, c), _cross(c, a), _cross(a, b)]
        if abs(_dot(a, crosses[0])) < 1e-9:
            raise SpaceDescriptorError(
                "vertices are degenerate (coplanar with the center); no open hemisphere"
            )
        self.vertices = vs
        # inward unit normal of each edge great circle, toward the third vertex
        self._normals = []
        for v, n in zip((a, b, c), crosses):
            n = np.array(n)
            self._normals.append(_unit(-n if _dot(n, v) < 0.0 else n).tolist())

    def contains(self, x) -> bool:
        x = np.asarray(x, dtype=float).tolist()
        return all(_dot(n, x) >= -1e-12 for n in self._normals)

    def _require_inside(self, x):
        if not self.contains(x):
            raise ValueError("point outside the triangle domain")
        return np.asarray(x, dtype=float)

    def distance(self, x, y) -> float:
        return self._sphere.distance(self._require_inside(x), self._require_inside(y))

    def minimal_geodesics(self, x, y) -> list[GeodesicSegment]:
        segs = self._sphere.minimal_geodesics(self._require_inside(x), self._require_inside(y))
        return [self._segment(s.start, s.end, s.length, s._eval) for s in segs]

    def foot_candidates(self, q, seg):
        # the sphere's foot on the arc's start and tangent, as `minimal_geodesics` builds them
        x, y = (self._require_inside(p).tolist() for p in (seg.start, seg.end))
        row = [*x, *Sphere._toward(x, y)]
        (t,) = self._sphere.foot_rows(np.array([q], dtype=float), np.array([row]),
                                      np.array([seg.length]))
        return t.tolist()

    def shoot(self, p, phi: float, length: float):
        q = self._sphere.shoot(self._require_inside(p), phi, length)
        if not self.contains(q):
            raise ShootUnavailable("geodesic leaves the triangle domain")
        return q

    def sample_ball(self, center, radius, rng):
        center = self._require_inside(center)
        for _ in range(1000):
            q = self._sphere.sample_ball(center, radius, rng)
            if self.contains(q):
                return q
        raise CmpkError("sample_ball: no interior draw in 1000 attempts")

    def point_to_data(self, x):
        return [float(c) for c in x]

    def point_from_data(self, data):
        return self._require_inside(_direction(self, data))

    def default_center(self):
        return _unit(self.vertices[0] + self.vertices[1] + self.vertices[2])

    def descriptor(self) -> dict:
        return {
            "type": "spherical_triangle",
            "k": self.k,
            "vertices": [self.point_to_data(v) for v in self.vertices],
        }


# ---------------------------------------------------------------------------
# Constructors and the JSON descriptor interface


def make_octant(k: float = 1.0) -> SphericalTriangleDomain:
    """Octant of S^2_k: vertices pairwise at distance pi/(2 sqrt(k))."""
    eye = np.eye(3)
    return SphericalTriangleDomain(k, [eye[0], eye[1], eye[2]])


DESCRIPTOR_VERSION = 1


def _is_number(v) -> bool:
    """Whether v is a JSON number within float range (bool is not one)."""
    return isinstance(v, (int, float)) and not isinstance(v, bool) and abs(v) <= sys.float_info.max


def _param(d: dict, key: str, what: str = "a finite number", ok: Callable = _is_number):
    """d[key]; SpaceDescriptorError unless ok(d[key])."""
    value = d[key]
    if not ok(value):
        raise SpaceDescriptorError(f"{d['type']} {key} must be {what}, got {json.dumps(value)}")
    return value


def _mesh_from_descriptor(d: dict) -> GeodesicSpace:
    # imported on first use: cmpk.mesh pulls in scipy.sparse
    from cmpk.mesh import MeshSpace, load_obj

    path = _param(d, "path", "a string", lambda v: isinstance(v, str))
    steiner = 4 if "steiner" not in d else _param(
        d, "steiner", "a non-negative integer",
        lambda v: isinstance(v, int) and not isinstance(v, bool) and v >= 0)
    return MeshSpace(load_obj(path), steiner, path=path)


def _vertices(d: dict) -> list:
    return _param(d, "vertices", "a list of 3 points of 3 finite numbers each", lambda v: (
        isinstance(v, list) and len(v) == 3
        and all(isinstance(p, list) and len(p) == 3 and all(map(_is_number, p)) for p in v)))


# type name -> (constructor from descriptor dict, keys besides "type" and "version")
_SPACE_TYPES: dict[str, tuple[Callable[..., GeodesicSpace], set[str]]] = {
    "plane": (lambda d: EuclideanPlane(), set()),
    "sphere": (lambda d: Sphere(_param(d, "k")), {"k"}),
    "hyperbolic": (lambda d: Hyperbolic(_param(d, "k")), {"k"}),
    "cone": (lambda d: Cone(_param(d, "perimeter")), {"perimeter"}),
    "tripod": (lambda d: Tripod(), set()),
    "spherical_triangle": (
        lambda d: SphericalTriangleDomain(_param(d, "k"), _vertices(d)), {"k", "vertices"}),
    "mesh": (_mesh_from_descriptor, {"path", "steiner"}),
}


def space_from_descriptor(desc, tol: Tolerances = DEFAULT_TOL) -> GeodesicSpace:
    """Build a space from a descriptor dict or its JSON text.

    Schema (version 1): ``{"type": <name>, ...params}``; unknown keys are
    rejected.  Types: plane, sphere{k}, hyperbolic{k}, cone{perimeter},
    tripod, spherical_triangle{k, vertices}, mesh{path, steiner}.  `tol` is
    accepted for callers that pass a run's verdict setting; spaces read none.
    """
    if isinstance(desc, str):
        try:
            desc = json.loads(desc)
        except json.JSONDecodeError as e:
            raise SpaceDescriptorError(f"descriptor is not valid JSON: {e}") from e
    if not isinstance(desc, dict):
        raise SpaceDescriptorError(f"descriptor must be an object, got {type(desc).__name__}")
    if desc.get("version", DESCRIPTOR_VERSION) != DESCRIPTOR_VERSION:
        raise SpaceDescriptorError(f"unsupported descriptor version {desc.get('version')}")
    kind = desc.get("type")
    if kind not in _SPACE_TYPES:
        raise SpaceDescriptorError(
            f"unknown space type {kind!r}; known: {sorted(_SPACE_TYPES)}"
        )
    builder, allowed = _SPACE_TYPES[kind]
    unknown = set(desc) - allowed - {"type", "version"}
    if unknown:
        raise SpaceDescriptorError(f"unknown descriptor keys for {kind}: {sorted(unknown)}")
    try:
        return builder(desc)
    except KeyError as e:
        raise SpaceDescriptorError(f"descriptor for {kind} is missing key {e}") from e
