"""Curvature-bound criteria as executable predicates with quantified defects.

Each test reports two oriented defects: ``cbb_defect`` (amount by which the
lower-bound inequality is violated) and ``cba_defect`` (same for the upper
bound); a claim passes when its defect is at most the scale-aware tolerance.
Measurement (all metric probing of the space) is separated from evaluation
(model-kernel work at a given k) so that k-sweeps reuse one probed
configuration set.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from cmpk import model, rounds
from cmpk.config import (
    CLAMP,
    DEFAULT_TOL,
    FOOT_MARGIN_REL,
    GEO,
    TRI_REL,
    Tolerances,
)
from cmpk.errors import (
    CmpkError,
    DegenerateConfigError,
    DegenerateRegionError,
    FootOnBoundary,
    LadderError,
    RightAngleUnavailable,
    ShootUnavailable,
)
from cmpk.spaces import TWO_PI, GeodesicSegment, GeodesicSpace, RowSpace, _each

PI = math.pi


def verdict_from_defects(cbb_defect: float, cba_defect: float, tol: float) -> str:
    cbb_ok = cbb_defect <= tol
    cba_ok = cba_defect <= tol
    if cbb_ok and cba_ok:
        return "pass_both"
    if cbb_ok:
        return "pass_CBB"
    if cba_ok:
        return "pass_CBA"
    return "fail"


@dataclass(frozen=True)
class TestOutcome:
    criterion: str
    k: float
    scale: float
    cbb_defect: float
    cba_defect: float
    tolerance: float
    verdict: str

    def passes(self, orientation: str) -> bool:
        if orientation == "cbb":
            return self.verdict in ("pass_CBB", "pass_both")
        if orientation == "cba":
            return self.verdict in ("pass_CBA", "pass_both")
        raise ValueError(f"orientation must be 'cbb' or 'cba', got {orientation!r}")


def _outcome(criterion, k, scale, cbb, cba, tol_cfg: Tolerances) -> TestOutcome:
    tolerance = tol_cfg.verdict_tolerance(scale)
    return TestOutcome(
        criterion, k, scale, cbb, cba, tolerance, verdict_from_defects(cbb, cba, tolerance)
    )


# ---------------------------------------------------------------------------
# foot of perpendicular


@dataclass(frozen=True)
class FootResult:
    t_star: float
    d_star: float


def foot_of_perpendicular(space: GeodesicSpace, q, seg: GeodesicSegment) -> FootResult:
    """Global minimizer of distance(q, seg.at(t)) over the segment, exact.

    On a mesh path (`seg.nodes`, which `at` steps through), the first path
    node nearest q.  On a segment with a row, `feet_of_perpendicular` of that
    one row.  Elsewhere the first of the space's closed-form
    `foot_candidates`, each clamped to the segment, nearest q.
    Raises DegenerateConfigError when q lies on the segment, and
    FootOnBoundary when the minimizer sits within the interiorness margin of
    an endpoint.
    """
    L = seg.length
    if L <= 0.0:
        raise DegenerateConfigError("segment has zero length")
    if seg.row is not None:
        t_star, d_star = (float(x[0]) for x in _row_feet(space, np.array([q], dtype=float),
                                                          np.array([seg.row]), np.array([L])))
    elif seg.nodes is not None:
        path, cum = seg.nodes
        d = space.distances(q, path)
        i = int(np.argmin(d))
        t_star, d_star = cum[i], float(d[i])
    else:
        for i, t in enumerate(space.foot_candidates(q, seg)):
            t = min(max(t, 0.0), L)
            d = space.distance(q, seg.at(t))
            if i == 0 or d < d_star:
                t_star, d_star = t, d
    if d_star <= GEO:
        raise DegenerateConfigError("q lies on the segment")
    margin = FOOT_MARGIN_REL * L
    if not margin <= t_star <= L - margin:
        raise FootOnBoundary(t_star, d_star, L)
    return FootResult(t_star, d_star)


# outcome codes of `feet_of_perpendicular`: what foot_of_perpendicular returns or raises
FOOT_OK, FOOT_BOUNDARY, FOOT_DEGENERATE = 0, 1, 2


def _row_feet(space: RowSpace, qs: np.ndarray, rows: np.ndarray, lengths: np.ndarray):
    """(t*, d*) of each row: the first of its `foot_rows` candidates, each
    clamped to the segment, nearest q by `pair_distances`."""
    at = space.segment_rows(rows)
    for i, t in enumerate(space.foot_rows(qs, rows, lengths)):
        t = np.clip(t, 0.0, lengths)
        d = space.pair_distances(qs, at(t))
        if i == 0:
            t_star, d_star = t, d
        else:
            lower = d < d_star
            t_star, d_star = np.where(lower, t, t_star), np.where(lower, d, d_star)
    return t_star, d_star


def feet_of_perpendicular(space: RowSpace, qs, rows, lengths: np.ndarray):
    """`foot_of_perpendicular` of each qs[i] on the segment whose `row` is rows[i]
    and length lengths[i] > 0, over arrays and without raising; the feet and
    outcomes are the scalar form's bit for bit.

    Returns arrays t*, d* and outcome: FOOT_OK, or FOOT_BOUNDARY /
    FOOT_DEGENERATE where the scalar form raises FootOnBoundary /
    DegenerateConfigError; t* and d* are nan unless the outcome is FOOT_OK.
    """
    L = np.asarray(lengths, dtype=float)
    t, d = _row_feet(space, np.asarray(qs, dtype=float), np.asarray(rows, dtype=float), L)
    margin = FOOT_MARGIN_REL * L
    interior = (margin <= t) & (t <= L - margin)
    outcome = np.where(d <= GEO, FOOT_DEGENERATE, np.where(interior, FOOT_OK, FOOT_BOUNDARY))
    failed = outcome != FOOT_OK
    t[failed] = d[failed] = np.nan
    return t, d, outcome


# ---------------------------------------------------------------------------
# Pythagorean criterion at an interior foot


@dataclass(frozen=True)
class PythagoreanMeasurement:
    d_qp: float
    d_pr1: float
    d_qr1: float
    d_pr2: float
    d_qr2: float
    scale: float


def measure_pythagorean(
    space: GeodesicSpace, q, seg: GeodesicSegment, *,
    foot: FootResult | None = None, columns: tuple | None = None,
) -> PythagoreanMeasurement:
    """`columns`, when given, holds the distances (d_pr1, d_pr2, d_qr1, d_qr2)
    this would measure, as `pythagorean_columns` computes them."""
    if foot is None:
        foot = foot_of_perpendicular(space, q, seg)
    if columns is None:
        p = seg.at(foot.t_star)
        columns = (space.distance(p, seg.start), space.distance(p, seg.end),
                   space.distance(q, seg.start), space.distance(q, seg.end))
    d_pr1, d_pr2, d_qr1, d_qr2 = columns
    if min(d_pr1, d_pr2) < GEO:
        raise DegenerateConfigError("foot coincides with a segment endpoint")
    scale = max(d_qr1, d_qr2, seg.length)
    return PythagoreanMeasurement(foot.d_star, d_pr1, d_qr1, d_pr2, d_qr2, scale)


def evaluate_pythagorean(
    m: PythagoreanMeasurement, k: float, *, tol_cfg: Tolerances = DEFAULT_TOL,
) -> TestOutcome:
    d1 = model.pythagorean_defect(k, m.d_qp, m.d_pr1, m.d_qr1)
    d2 = model.pythagorean_defect(k, m.d_qp, m.d_pr2, m.d_qr2)
    return _outcome("pythagorean", k, m.scale, max(d1, d2), max(-d1, -d2), tol_cfg)


# ---------------------------------------------------------------------------
# right-angle configurations and the right-angle Pythagorean test


@dataclass(frozen=True)
class RightAngleConfig:
    p: object
    q: object
    r: object
    d_pq: float
    d_pr: float
    d_qr: float
    angle_deviation: float  # |measured angle at p - pi/2|, radians

    @property
    def scale(self) -> float:
        """Diameter of the configuration, as for the other measurements."""
        return max(self.d_pq, self.d_pr, self.d_qr)

    @property
    def ratio_defect(self) -> float:
        """| d_qr^2 / (d_pq^2 + d_pr^2) - 1 |, the Riemannian-point quantity."""
        return abs(self.d_qr**2 / (self.d_pq**2 + self.d_pr**2) - 1.0)


RIGHT_ANGLE_TOL = 1e-6  # radians; mirrors the 1e-6 * leg construction budget


def _right_angle_deviation(
    space: GeodesicSpace, p, toward_q: GeodesicSegment, toward_r: GeodesicSegment,
) -> float:
    """|angle at p - pi/2| (`angle_at`); RightAngleUnavailable when the angle is
    degenerate or deviates by more than RIGHT_ANGLE_TOL."""
    try:
        angle = angle_at(space, p, toward_q, toward_r)
    except LadderError as e:
        raise RightAngleUnavailable(f"angle at p degenerate: {e}") from e
    deviation = abs(angle - PI / 2)
    if deviation > RIGHT_ANGLE_TOL:
        raise RightAngleUnavailable(
            f"angle at p deviates from pi/2 by {deviation:.3g} > {RIGHT_ANGLE_TOL:.1g}"
        )
    return deviation


def build_right_angle_config(
    space: GeodesicSpace, p, dir_q: float, dir_r: float, leg1: float, leg2: float,
) -> RightAngleConfig:
    """Shoot two legs from p and verify that they enclose a right angle.

    Both legs must be minimal geodesics and the small-scale comparison angle
    at p (`angle_at`) must read pi/2 within RIGHT_ANGLE_TOL.  The angle is verified
    directly (rather than through a foot-of-perpendicular check) because a
    right angle need not arise as a foot: on a cone, the configurations that
    feel the apex are exactly those whose foot migrates to a segment
    endpoint through the wrapped side, while their angle at p is still
    honestly pi/2.
    """
    try:
        q = space.shoot(p, dir_q, leg1)
        r = space.shoot(p, dir_r, leg2)
    except ShootUnavailable as e:
        raise RightAngleUnavailable(str(e)) from e
    d_pq = space.distance(p, q)
    d_pr = space.distance(p, r)
    if d_pq < leg1 * (1.0 - 1e-9) or d_pr < leg2 * (1.0 - 1e-9):
        raise RightAngleUnavailable("shot leg is not a minimal geodesic")
    deviation = _right_angle_deviation(space, p, space.geodesic(p, q), space.geodesic(p, r))
    return RightAngleConfig(p, q, r, d_pq, d_pr, space.distance(q, r), deviation)


def right_angle_from_foot(
    space: GeodesicSpace, q, seg: GeodesicSegment, *, foot: FootResult | None = None,
) -> RightAngleConfig:
    """Right-angle configuration from an interior foot (shoot-free spaces).

    On lower-bounded spaces an interior foot is perpendicular to the
    segment, so (p=foot, q, r=segment end) encloses a right angle; the angle
    is still verified, since on upper-bound-type spaces a foot angle may
    exceed pi/2 (a tripod branch point reads pi).
    """
    if foot is None:
        foot = foot_of_perpendicular(space, q, seg)
    p = seg.at(foot.t_star)
    ahead = seg.subsegment(foot.t_star, seg.length)
    deviation = _right_angle_deviation(space, p, space.geodesic(p, q), ahead)
    d_pr = space.distance(p, seg.end)
    return RightAngleConfig(
        p, q, seg.end, foot.d_star, d_pr, space.distance(q, seg.end), deviation
    )


def evaluate_right_angle(
    cfg: RightAngleConfig, k: float, *, tol_cfg: Tolerances = DEFAULT_TOL,
) -> TestOutcome:
    defect = model.pythagorean_defect(k, cfg.d_pq, cfg.d_pr, cfg.d_qr)
    return _outcome("right_angle", k, cfg.scale, defect, -defect, tol_cfg)


# ---------------------------------------------------------------------------
# point-to-segment comparison (condition 1.1)

CHEBYSHEV_NODES = 9  # the probes of [p r] in every point-segment measurement


@dataclass(frozen=True)
class PointSegmentMeasurement:
    d_qp: float
    d_qr: float
    length: float
    probes: tuple[tuple[float, float], ...]  # (t, measured distance) at each Chebyshev node
    scale: float


def chebyshev_nodes(n: int, length):
    """Interior Chebyshev points mapped to [0, length] (an array of lengths
    gives the points of each)."""
    return [
        0.5 * length * (1.0 - math.cos((2.0 * i - 1.0) * PI / (2.0 * n)))
        for i in range(1, n + 1)
    ]


def measure_point_segment(
    space: GeodesicSpace, q, seg: GeodesicSegment, *, columns: tuple | None = None,
) -> PointSegmentMeasurement:
    """`columns`, when given, holds (d_qp, d_qr, probes) as this would measure
    them, as `point_segment_columns` computes them."""
    if columns is None:
        columns = (space.distance(q, seg.start), space.distance(q, seg.end),
                   tuple((t, space.distance(q, seg.at(t)))
                         for t in chebyshev_nodes(CHEBYSHEV_NODES, seg.length)))
    d_qp, d_qr, probes = columns
    scale = max(d_qp, d_qr, seg.length)
    return PointSegmentMeasurement(d_qp, d_qr, seg.length, probes, scale)


def evaluate_point_segment(
    m: PointSegmentMeasurement, k: float, *, tol_cfg: Tolerances = DEFAULT_TOL,
) -> TestOutcome:
    model_ds = model.comparison_distances(k, m.d_qp, m.d_qr, m.length, [t for t, _ in m.probes])
    defects = [d_real - d for (_, d_real), d in zip(m.probes, model_ds)]
    cbb = -min(defects)  # lower bound requires real >= model everywhere
    cba = max(defects)
    return _outcome("point_segment", k, m.scale, cbb, cba, tol_cfg)


# ---------------------------------------------------------------------------
# angles at a vertex, as small-scale comparison angles


def measure_angle_ladder(
    space: GeodesicSpace, p, toward_q: GeodesicSegment, toward_r: GeodesicSegment,
) -> tuple[float, float, float]:
    """Sides (|pa|, |pb|, |ab|) of the small triangle that measures the angle at p.

    a and b lie at arclength t = 0.1 * min(leg lengths) * 0.5**7, 1/1280 of
    the shorter leg, along the two segments.  On a smooth surface the
    comparison angle of this triangle is within O(t^2) of the Alexandrov
    angle; on a flat sector it is exact.  Both segments start at p.
    LadderError when |pa| or |pb| is under 10 GEO.
    """
    t = 0.1 * min(toward_q.length, toward_r.length) * 0.5**7
    if t <= 0.0:
        raise LadderError("zero-length segment")
    a = toward_q.at(t)
    b = toward_r.at(t)
    d_pa = space.distance(p, a)
    d_pb = space.distance(p, b)
    if min(d_pa, d_pb) < 10.0 * GEO:
        raise LadderError(f"sides degenerate at scale {t:.3g}")
    return d_pa, d_pb, space.distance(a, b)


def angle_at(
    space: GeodesicSpace, p, toward_q: GeodesicSegment, toward_r: GeodesicSegment,
    k0: float = 0.0,
) -> float:
    """Angle between two segments at p: the curvature-k0 comparison angle of the
    triangle `measure_angle_ladder` measures, which tends to the Alexandrov
    angle as its scale shrinks."""
    return model.comparison_angle(k0, measure_angle_ladder(space, p, toward_q, toward_r))


# ---------------------------------------------------------------------------
# triangle comparison (vertex-angle test)


@dataclass(frozen=True)
class TriangleMeasurement:
    sides: tuple[float, float, float]  # (d_qr, d_pr, d_pq): side opposite p, q, r
    ladders: tuple  # the `measure_angle_ladder` triples at p, q and r
    scale: float


def measure_triangle(
    space: GeodesicSpace, p, q, r, *, columns: tuple | None = None,
) -> TriangleMeasurement:
    """Sides and ladders of the triangle: its sides are the lengths of the first
    minimal geodesics (`space.geodesic`) from p to q and r and from q to r,
    and the angle at each vertex is read on the first minimal geodesics that
    leave it; `columns`, when given, holds the sides (d_qr, d_pr, d_pq) and
    ladders this would measure, as `triangle_columns` does."""
    if columns is None:
        g_pq, g_pr, g_qr = space.geodesic(p, q), space.geodesic(p, r), space.geodesic(q, r)
        d_pq, d_pr, d_qr = g_pq.length, g_pr.length, g_qr.length
        if min(d_pq, d_pr, d_qr) <= 10.0 * GEO:
            raise DegenerateConfigError("triangle has a vanishing side")
        columns = ((d_qr, d_pr, d_pq), (
            measure_angle_ladder(space, p, g_pq, g_pr),
            measure_angle_ladder(space, q, space.geodesic(q, p), g_qr),
            measure_angle_ladder(space, r, space.geodesic(r, p), space.geodesic(r, q)),
        ))
    (d_qr, d_pr, d_pq), ladders = columns
    return TriangleMeasurement((d_qr, d_pr, d_pq), ladders, max(d_pq, d_pr, d_qr))


def evaluate_triangle(
    m: TriangleMeasurement, k: float, *, tol_cfg: Tolerances = DEFAULT_TOL,
) -> TestOutcome:
    d_qr, d_pr, d_pq = m.sides
    model_angles = (model.comparison_angle(k, (d_pq, d_pr, d_qr)),
                    model.comparison_angle(k, (d_pq, d_qr, d_pr)),
                    model.comparison_angle(k, (d_pr, d_qr, d_pq)))
    cbb = -math.inf
    cba = -math.inf
    for model_angle, sides in zip(model_angles, m.ladders):
        angle = model.comparison_angle(k, sides)
        # lower bound needs angle >= model angle at every vertex
        cbb = max(cbb, model_angle - angle)
        cba = max(cba, angle - model_angle)
    return _outcome("triangle", k, m.scale, cbb, cba, tol_cfg)


# ---------------------------------------------------------------------------
# foot configurations measured as columns: each criterion's probes of many
# configurations (q, seg, foot) over arrays, bit for bit the scalar probes,
# through `segment_rows`, `pair_distances` and `geodesic_rows`.  Each returns,
# per configuration, the `columns` its `measure_*` takes, or None where that
# configuration is left to the scalar probes.


def _row_configs(space: GeodesicSpace, configs: Sequence):
    """The indices of the configurations whose segment has a row, with their q,
    segment starts, ends and rows as float arrays; None when there are none."""
    idx = [i for i, c in enumerate(configs) if c[1].row is not None]
    if not idx:  # only a `RowSpace`'s segments have a row
        return None
    segs = [configs[i][1] for i in idx]
    return (idx, np.array([configs[i][0] for i in idx], dtype=float),
            *(np.array(x, dtype=float) for x in zip(*((s.start, s.end, s.row) for s in segs))))


def pythagorean_columns(space: GeodesicSpace, configs: Sequence) -> list:
    """`measure_pythagorean`'s distances of each configuration whose segment has a row."""
    out = [None] * len(configs)
    found = _row_configs(space, configs)
    if found is not None:
        idx, q, start, end, rows = found
        p = space.segment_rows(rows)(np.array([configs[i][2].t_star for i in idx]))
        d = (space.pair_distances(x, y).tolist() for x, y in ((p, start), (p, end),
                                                               (q, start), (q, end)))
        for i, row in zip(idx, zip(*d)):
            out[i] = row
    return out


def point_segment_columns(space: GeodesicSpace, configs: Sequence) -> list:
    """`measure_point_segment`'s distances and probes of each configuration whose
    segment has a row, one array per Chebyshev node."""
    out = [None] * len(configs)
    found = _row_configs(space, configs)
    if found is not None:
        idx, q, start, end, rows = found
        at = space.segment_rows(rows)
        ts = chebyshev_nodes(CHEBYSHEV_NODES, np.array([configs[i][1].length for i in idx]))
        probes = [space.pair_distances(q, at(t)) for t in ts]
        for i, d_qp, d_qr, t, d in zip(idx, space.pair_distances(q, start).tolist(),
                                       space.pair_distances(q, end).tolist(),
                                       np.transpose(ts).tolist(), np.transpose(probes).tolist()):
            out[i] = (d_qp, d_qr, tuple(zip(t, d)))
    return out


def _ladder_rows(space: RowSpace, v: np.ndarray, legs, live: np.ndarray):
    """`measure_angle_ladder` at each v[i] over arrays, with its formulas and
    checks.  A leg is (at, lengths): the point map and lengths of
    `geodesic_rows` from v.  Returns the sides (|va|, |vb|, |ab|) and `live`
    less the rows where the ladder raises; rows not live are measured at
    t = 0, so nothing on them warns."""
    dist = space.pair_distances
    (at_a, len_a), (at_b, len_b) = legs
    t = 0.1 * np.minimum(len_a, len_b) * 0.5**7
    live = live & ~(t <= 0.0)
    t = np.where(live, t, 0.0)
    a, b = at_a(t), at_b(t)
    d_va, d_vb = dist(v, a), dist(v, b)
    live = live & ~(np.minimum(d_va, d_vb) < 10.0 * GEO)
    return d_va, d_vb, dist(a, b), live


def triangle_columns(space: GeodesicSpace, configs: Sequence) -> list:
    """`measure_triangle(space, seg.start, q, seg.end)`'s sides and ladders of
    each configuration on a `RowSpace` whose six geodesics from its vertices
    `geodesic_rows` gives exactly (so each is `space.geodesic`) and on which
    no check of `measure_triangle` or `measure_angle_ladder` raises."""
    n = len(configs)
    if not n or not isinstance(space, RowSpace):
        return [None] * n
    p, q, r = (np.array(x, dtype=float)
               for x in zip(*((c[1].start, c[0], c[1].end) for c in configs)))
    (l_pq, pq, ok_pq), (l_pr, pr, ok_pr), (l_qr, qr, ok_qr) = (
        space.geodesic_rows(x, y) for x, y in ((p, q), (p, r), (q, r)))
    (l_qp, qp, ok_qp), (l_rp, rp, ok_rp), (l_rq, rq, ok_rq) = (
        space.geodesic_rows(x, y) for x, y in ((q, p), (r, p), (r, q)))
    ok = (ok_pq & ok_pr & ok_qr & ok_qp & ok_rp & ok_rq
          & ~(np.minimum(np.minimum(l_pq, l_pr), l_qr) <= 10.0 * GEO))
    columns = [l_qr, l_pr, l_pq]
    for v, legs in ((p, ((pq, l_pq), (pr, l_pr))), (q, ((qp, l_qp), (qr, l_qr))),
                    (r, ((rp, l_rp), (rq, l_rq)))):
        *sides, ok = _ladder_rows(space, v, legs, ok)
        columns += sides
    out = [None] * n
    for i, row in zip(np.flatnonzero(ok).tolist(), zip(*(c[ok].tolist() for c in columns))):
        out[i] = (row[:3], (row[3:6], row[6:9], row[9:]))
    return out


# ---------------------------------------------------------------------------
# first variation


@dataclass(frozen=True)
class FirstVariationReport:
    t_star: float
    angle: float
    target: float             # -cos(angle)
    steps: tuple[float, ...]
    slopes: tuple[float, ...]
    errors: tuple[float, ...]


def first_variation_check(
    space: GeodesicSpace, q, seg: GeodesicSegment, t_star: float,
    steps: Sequence[float] = (1e-2, 1e-3, 1e-4),
) -> FirstVariationReport:
    """Forward finite-difference slope of t -> d(q, seg(t)) against -cos(angle)."""
    if t_star + max(steps) > seg.length:
        raise ValueError("t_star too close to the segment end for the step ladder")
    p = seg.at(t_star)
    toward_q = space.geodesic(p, q)
    forward = seg.subsegment(t_star, seg.length)
    angle = angle_at(space, p, toward_q, forward)
    target = -math.cos(angle)
    d0 = space.distance(q, p)
    slopes = tuple((space.distance(q, seg.at(t_star + h)) - d0) / h for h in steps)
    errors = tuple(abs(s - target) for s in slopes)
    return FirstVariationReport(t_star, angle, target, tuple(steps), slopes, errors)


# ---------------------------------------------------------------------------
# angle sums at an interior point of a segment


@dataclass(frozen=True)
class AngleSumReport:
    angle_r1: float
    angle_r2: float
    total: float
    excess: float  # total - pi; zero for lower-bounded spaces, >= 0 for upper
    t_interior: float


def angle_sum_check(
    space: GeodesicSpace, q, seg: GeodesicSegment, t_interior: float,
) -> AngleSumReport:
    if not 0.0 < t_interior < seg.length:
        raise ValueError("t_interior must be strictly inside the segment")
    p = seg.at(t_interior)
    toward_q = space.geodesic(p, q)
    back = seg.subsegment(t_interior, 0.0)
    ahead = seg.subsegment(t_interior, seg.length)
    a1 = angle_at(space, p, toward_q, back)
    a2 = angle_at(space, p, toward_q, ahead)
    return AngleSumReport(a1, a2, a1 + a2, a1 + a2 - PI, t_interior)


# ---------------------------------------------------------------------------
# Riemannian-point defect profile


@dataclass(frozen=True)
class DefectProfile:
    eps_ladder: tuple[float, ...]
    chi: tuple[float, ...]
    skip_fraction: tuple[float, ...]
    n_per_eps: int
    seed: int
    threshold: float
    classification: str  # vanishing | non_vanishing | inconclusive


def chi_at_scale(space: GeodesicSpace, x, eps: float, n: int, seed: int) -> tuple[float, int]:
    """Max squared-ratio defect over sampled right-angle configs in B_x(eps).

    All random draws are dimensionless and derived from the seed alone, so
    repeated calls with different eps probe geometrically similar configs.

    Each configuration draws five uniforms: p is shot from x (drawn from the
    ball with `sample_ball` where that shot is unavailable), and its legs are
    shot from p at a right angle (`build_right_angle_config`).  On a
    `RowSpace` (the sphere, the hyperbolic plane and the cone) the
    configurations are decided over arrays (`_right_angle_rows`), bit for bit
    as one at a time; only a configuration whose leg geodesic is not an
    unrolled chord or arc (a route through the cone apex, an antipodal pair),
    or whose angle check would raise, is built by `build_right_angle_config`.
    Should the array path raise, as it does where a p shot is unavailable (an
    event of probability 0: none of 214,321 cone shots around the apex was),
    the rung is run one configuration at a time (`_chi_loop`), which raises
    what the first failing configuration raises.  The plane, the tripod,
    meshes and triangle domains always build one configuration at a time.
    """
    if isinstance(space, RowSpace):
        try:
            return _chi_rows(space, x, eps, n, np.random.default_rng(seed))
        except (ArithmeticError, ValueError, CmpkError):
            pass  # the arrays may meet another configuration's error first
    return _chi_loop(space, x, eps, n, np.random.default_rng(seed))


def _chi_loop(space: GeodesicSpace, x, eps: float, n: int,
              rng: np.random.Generator) -> tuple[float, int]:
    """`chi_at_scale` one configuration at a time, drawing from rng."""
    chi_max = 0.0
    skipped = 0
    for _ in range(n):
        omega = rng.uniform(0.0, 2.0 * PI)
        u = rng.uniform(0.1, 0.45)
        beta = rng.uniform(0.0, 2.0 * PI)
        l1 = eps * rng.uniform(0.1, 0.45)
        l2 = eps * rng.uniform(0.1, 0.45)
        try:
            try:
                p = space.shoot(x, omega, u * eps)
            except ShootUnavailable:
                p = space.sample_ball(x, 0.45 * eps, rng)
            cfg = build_right_angle_config(space, p, beta, beta + PI / 2, l1, l2)
        except RightAngleUnavailable:
            skipped += 1
            continue
        chi_max = max(chi_max, cfg.ratio_defect)
    return chi_max, skipped


def _chi_rows(space: RowSpace, x, eps: float, n: int,
              rng: np.random.Generator) -> tuple[float, int]:
    """`_chi_loop` over arrays, drawing from rng.  rng.uniform(lo, hi) is
    lo + (hi - lo) * rng.random(), so one block of 5 n doubles holds the
    loop's draws as long as every p shot is available; ShootUnavailable is
    raised where one is not, for the loop draws p from the ball there."""
    omega, u, beta, v1, v2 = rng.random(5 * n).reshape(-1, 5).T
    p, available = space.shots(x, TWO_PI * omega, (0.1 + (0.45 - 0.1) * u) * eps)
    if not available.all():
        raise ShootUnavailable("a p shot of the rung is unavailable")
    beta = TWO_PI * beta
    l1, l2 = eps * (0.1 + (0.45 - 0.1) * v1), eps * (0.1 + (0.45 - 0.1) * v2)
    _, ratio, outcome = _right_angle_rows(space, p, beta, l1, l2)
    skipped = int(np.count_nonzero(outcome == RA_SKIPPED))
    chi_max = max([0.0, *ratio[outcome == RA_BUILT].tolist()])
    for i in np.flatnonzero(outcome == RA_BACK).tolist():
        b = float(beta[i])
        try:
            cfg = build_right_angle_config(space, p[i], b, b + PI / 2, float(l1[i]),
                                           float(l2[i]))
        except RightAngleUnavailable:
            skipped += 1
            continue
        chi_max = max(chi_max, cfg.ratio_defect)
    return chi_max, skipped


# outcome codes of `_right_angle_rows`: the row's configuration is built, the
# scalar build raises RightAngleUnavailable, or the row is left to it
RA_BUILT, RA_SKIPPED, RA_BACK = 0, 1, 2


def _right_angle_rows(space: RowSpace, p: np.ndarray, beta: np.ndarray, l1: np.ndarray,
                      l2: np.ndarray):
    """`build_right_angle_config(space, p[i], beta[i], beta[i] + PI / 2, l1[i],
    l2[i])` of every row over arrays, with its formulas and comparisons.
    Every value a comparison reads is bit for bit the scalar build's, so each
    row it decides is decided as the scalar build decides it.

    Returns arrays of the angle at p that `angle_at` reads, the configuration's
    `ratio_defect` (each nan where not reached) and the outcome: RA_BUILT,
    RA_SKIPPED, or RA_BACK for a row left to the scalar build.  Those are the
    rows with a leg whose geodesic `geodesic_rows` does not reproduce, or a
    check on which the scalar build would raise another error.  Rows no
    longer live are kept finite, so nothing computed on them warns.
    """
    q, q_ok = space.shots(p, beta, l1)
    r, r_ok = space.shots(p, beta + PI / 2, l2)
    live = q_ok & r_ok  # else ShootUnavailable: skipped
    back = np.zeros(len(p), bool)

    def settle(near):
        nonlocal live
        back[live & near] = True
        live = live & ~near

    d_pq, d_pr = space.pair_distances(p, q), space.pair_distances(p, r)
    for d, leg in ((d_pq, l1), (d_pr, l2)):  # the shot legs must be minimal
        live &= ~(d < leg * (1.0 - 1e-9))
    # `angle_at` through `measure_angle_ladder`, whose LadderError skips
    len_q, at_q, exact_q = space.geodesic_rows(p, q)
    len_r, at_r, exact_r = space.geodesic_rows(p, r)
    settle(~(exact_q & exact_r))
    d_pa, d_pb, d_ab, live = _ladder_rows(space, p, ((at_q, len_q), (at_r, len_r)), live)
    # model.comparison_angle(0.0, (d_pa, d_pb, d_ab)): its checks raise, so
    # their rows go back; at k = 0 its kernel is this law of cosines
    slack = TRI_REL * (d_pa + d_pb + d_ab)
    side_floor = 1e-12 * np.maximum(d_pa + d_pb + d_ab, 1e-300)
    raises = ((d_pa > d_pb + d_ab + slack) | (d_pb > d_ab + d_pa + slack)
              | (d_ab > d_pa + d_pb + slack) | (d_pa <= side_floor) | (d_pb <= side_floor))
    settle(raises)
    cos = (d_pa * d_pa * 0.5 + d_pb * d_pb * 0.5 - d_ab * d_ab * 0.5) / np.where(
        live, d_pa * d_pb, 1.0)
    settle(np.abs(cos) > 1.0 + CLAMP)
    angle = np.where(live, _each(math.acos, np.clip(cos, -1.0, 1.0)), np.nan)
    live &= ~(np.abs(angle - PI / 2) > RIGHT_ANGLE_TOL)  # RightAngleUnavailable
    angle[back] = np.nan
    ratio = np.full(len(p), np.nan)
    d_qr = space.pair_distances(q[live], r[live])
    ratio[live] = [abs(qr**2 / (pq**2 + pr**2) - 1.0)  # RightAngleConfig.ratio_defect
                   for pq, pr, qr in zip(d_pq[live].tolist(), d_pr[live].tolist(), d_qr.tolist())]
    return angle, ratio, np.where(live, RA_BUILT, np.where(back, RA_BACK, RA_SKIPPED))


# A profile whose last chi is at most this vanishes.  On the plane, where chi
# is rounding noise alone, it stayed below 9e-16 over ladders of radii 1e-6
# to 1e3 at 128 configurations per rung.
PROFILE_THRESHOLD = 1e-12


def classify_profile(chi: Sequence[float], skip_fraction: Sequence[float]) -> str:
    if any(s > 0.5 for s in skip_fraction[-2:]):
        return "inconclusive"
    v_prev, v_min = chi[-2], chi[-1]
    if v_min <= PROFILE_THRESHOLD or v_min <= 0.5 * v_prev:
        return "vanishing"
    if abs(v_min - v_prev) <= 0.2 * max(v_min, v_prev):
        return "non_vanishing"
    return "inconclusive"


def check_eps_ladder(eps_ladder: Sequence[float]) -> tuple[float, ...]:
    """The ladder as floats; it needs >= 2 radii, each finite and > 0, strictly decreasing."""
    ladder = tuple(float(e) for e in eps_ladder)
    if (len(ladder) < 2 or not all(math.isfinite(e) and e > 0.0 for e in ladder)
            or any(b >= a for a, b in zip(ladder, ladder[1:]))):
        raise ValueError(
            "eps ladder must have >= 2 radii, each finite and > 0, strictly decreasing;"
            f" got {list(ladder)}"
        )
    return ladder


def riemannian_point_profile(
    space: GeodesicSpace, x, eps_ladder: Sequence[float], n_per_eps: int, seed: int,
) -> DefectProfile:
    """Ladder of worst right-angle Pythagorean-ratio defects around x."""
    ladder = check_eps_ladder(eps_ladder)
    chi, skips = [], []
    for eps in ladder:
        c, s = chi_at_scale(space, x, eps, n_per_eps, seed)
        chi.append(c)
        skips.append(s / n_per_eps)
    cls = classify_profile(chi, skips)
    return DefectProfile(ladder, tuple(chi), tuple(skips), n_per_eps, seed, PROFILE_THRESHOLD, cls)


# ---------------------------------------------------------------------------
# configuration sampling


# A try's two endpoints must lie at least MIN_SEG_REL * radius apart and be
# joined by one minimal geodesic before q is drawn and the foot searched; its
# foot is accepted at a height of at least MIN_HEIGHT_REL * radius.
MIN_SEG_REL = 0.7
MIN_HEIGHT_REL = 0.15
# Why `foot_configs` rejects a try, in the order a try is checked.
REJECTIONS = ("short_segment", "several_geodesics", "foot_on_boundary", "degenerate",
              "low_height", "endpoint_snap")
# Why `feet_of_perpendicular` rejects a try, by outcome code.
FOOT_REJECTIONS = {FOOT_BOUNDARY: "foot_on_boundary", FOOT_DEGENERATE: "degenerate"}


# A round searches at most ROUND_SEARCHES feet: its points, its tries and its
# arrays of feet stay this small however many samples are wanted
ROUND_SEARCHES = 400


def foot_configs(
    space: GeodesicSpace, center, radius: float, rng: np.random.Generator, n: int, *,
    max_tries: int = 200, rejected: dict | None = None,
):
    """Yield n configurations (q, seg, foot), each with an interior foot and a
    height of at least MIN_HEIGHT_REL * radius.

    A try draws a and b from the ball, then q; its configuration is accepted
    when it passes every check, in the order of REJECTIONS, and
    DegenerateRegionError is raised at the try that completes max_tries
    failures in a row.  Nothing reads the rng between a try's draws and its
    foot, so tries are drawn in rounds, each round's tries decided together
    and then accepted or rejected in the order they were drawn.  The first
    round holds as many searches as configurations are wanted, a later one
    that many times the searches per acceptance so far plus the square root
    of that, and none more than ROUND_SEARCHES.

    A round of one search, and every round on a space that is not a
    `RowSpace` (the plane, the tripod, meshes and triangle domains), is the
    one-at-a-time loop (`rounds.scalar_round`).  A larger round is decided
    over arrays (`rounds.array_round`): its points come from `sample_balls`,
    its pair checks read `pair_distances` of adjacent ball points, the feet
    on its segments, rows of `row_segments`, are `feet_of_perpendicular`, and
    a segment is built only for a try that is accepted.  Short tries are
    certain failures and a searched try may be accepted, so such a round
    stops drawing only at its searches or where max_tries failures in a row
    are certain.  A round that draws a point whose shot is unavailable, or
    searches a pair with several minimal geodesics, events of probability 0,
    raises `rounds.LoopRound` before its first try, and every later round of
    the stream is the loop.
    `rejected`, when given, counts the rejected tries by reason.

    The accepted tries, their feet, the rejections and the try that raises
    are those of trying one at a time, bit for bit.  When the stream
    returns, raises or is closed, the rng is where that loop leaves it: an
    array round draws its uniforms ahead, and when it is closed it sets the
    rng back and advances it by the uniforms of the tries taken.  While the
    stream is suspended at a yield it is past the round's points.
    """
    if rejected is None:
        rejected = dict.fromkeys(REJECTIONS, 0)
    min_height = MIN_HEIGHT_REL * radius
    accepted = searched = fails = 0
    arrays = isinstance(space, RowSpace)  # rounds over arrays, until one hands back
    while accepted < n:
        wanted = n - accepted
        if not arrays:
            block = 1
        elif accepted:
            # the searches expected to give the wanted acceptances, and their
            # square root more: a round that falls short costs another round
            block = -(-wanted * searched // accepted)
            block = min(block + math.isqrt(block), ROUND_SEARCHES)
        else:
            block = min(wanted, ROUND_SEARCHES)
        if block == 1:
            tries = rounds.scalar_round(space, center, radius, rng, min_height)
        else:
            tries = rounds.array_round(space, center, radius, rng, block, fails, max_tries,
                                       min_height)
        with contextlib.closing(tries):
            try:
                for reason, config in tries:
                    searched += reason not in REJECTIONS[:2]  # rejected before a search
                    if reason is None:
                        accepted += 1
                        fails = 0
                        yield config
                        if accepted == n:
                            return
                        continue
                    rejected[reason] += 1
                    fails += 1
                    if fails == max_tries:
                        raise DegenerateRegionError(
                            f"no valid foot configuration in {max_tries} tries (radius {radius})"
                        )
            except rounds.LoopRound:
                arrays = False


def sample_right_angle_config(
    space: GeodesicSpace, center, radius: float, rng: np.random.Generator, *,
    rejected: dict | None = None,
) -> RightAngleConfig:
    """Draw one right-angle configuration inside the region.

    Falls back to the foot construction on spaces without geodesic shooting,
    whose rejected tries `rejected`, when given, counts by reason.  A failed
    draw raises RightAngleUnavailable, letting callers count skips.
    """
    beta = rng.uniform(0.0, 2.0 * PI)
    l1 = radius * rng.uniform(0.1, 0.45)
    l2 = radius * rng.uniform(0.1, 0.45)
    p = space.sample_ball(center, 0.45 * radius, rng)
    try:
        return build_right_angle_config(space, p, beta, beta + PI / 2, l1, l2)
    except RightAngleUnavailable as e:
        if not isinstance(e.__cause__, ShootUnavailable):
            raise RightAngleUnavailable(f"no right-angle configuration: {e}")
    try:
        q, seg, foot = next(foot_configs(space, center, radius, rng, 1, max_tries=20,
                                         rejected=rejected))
        return right_angle_from_foot(space, q, seg, foot=foot)
    except (DegenerateRegionError, RightAngleUnavailable) as e:
        raise RightAngleUnavailable(f"no right-angle configuration: {e}")
