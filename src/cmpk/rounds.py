"""Rounds of the foot-configuration try stream (`criteria.foot_configs`).

A round is a generator of its tries' decisions in the order they are drawn:
(reason, None) for a try rejected by a reason of `criteria.REJECTIONS`, and
(None, (q, seg, foot)) for an accepted one.  However it ends (run out,
closed, or raising), it leaves the rng where the one-at-a-time loop leaves
it after the tries it yielded.  `scalar_round` is that loop, and every round
on a space that is not a `spaces.RowSpace`; `array_round` decides a round of
many searches on a `RowSpace` over arrays (its `sample_balls`,
`pair_distances`, `row_segments` and `segment_rows`), try for try as the
loop does.  A round that meets an event of probability 0 (a ball point
whose shot is unavailable, next to the cone's apex, or a searched pair with
several minimal geodesics) raises `LoopRound` before its first try, and the
stream hands the rest of its tries to the loop.  Neither event came up on
random draws: not in 214,321 cone shots around the apex, nor in 100
streams of 300 samples on cones, the sphere and the hyperbolic plane.
"""

from __future__ import annotations

import numpy as np

# criteria imports this module before it defines the feet, so its
# names are read through the module as a round runs (where a tracer's
# wrappers of them see these calls too)
from cmpk import criteria
from cmpk.config import GEO
from cmpk.errors import DegenerateConfigError, FootOnBoundary
from cmpk.spaces import GeodesicSegment, GeodesicSpace, RowSpace


class LoopRound(Exception):
    """An array round met a point whose shot is unavailable or a searched pair
    with several minimal geodesics; it is raised before the round's first
    try, with the rng at the round's start."""


def _searched_try(space: GeodesicSpace, q, seg: GeodesicSegment, min_height: float):
    """The rejection reason of the try (q, seg) under `foot_of_perpendicular`, or None
    and its configuration."""
    try:
        foot = criteria.foot_of_perpendicular(space, q, seg)
    except FootOnBoundary:
        return "foot_on_boundary", None
    except DegenerateConfigError:
        return "degenerate", None
    if foot.d_star < min_height:
        return "low_height", None
    p = seg.at(foot.t_star)
    # at radii near GEO an interior t* can lie within GEO of an endpoint
    if space.distances(p, [seg.start, seg.end]).min() <= GEO:
        return "endpoint_snap", None
    return None, (q, seg, criteria.FootResult(float(foot.t_star), float(foot.d_star)))


def scalar_round(space: GeodesicSpace, center, radius: float, rng: np.random.Generator,
                 min_height: float):
    """The tries of a round of one search: points drawn one at a time by
    `sample_ball`, checked by `distance` and `minimal_geodesics`, the foot
    searched by `foot_of_perpendicular`.  Each try is drawn when the one
    before it has been taken, and the round ends at its search."""
    while True:
        a, b = space.sample_ball(center, radius, rng), space.sample_ball(center, radius, rng)
        if space.distance(a, b) < criteria.MIN_SEG_REL * radius:
            yield "short_segment", None
            continue
        geods = space.minimal_geodesics(a, b)
        if len(geods) > 1:
            yield "several_geodesics", None
            continue
        yield _searched_try(space, space.sample_ball(center, radius, rng), geods[0], min_height)
        return


def array_round(space: RowSpace, center, radius: float, rng: np.random.Generator,
                block: int, run: int, max_tries: int, min_height: float):
    """The tries of a round of up to `block` searches, decided over arrays.

    Points are mapped by `sample_balls` from blocks of uniforms drawn ahead,
    and the pair checks read `pair_distances` of every two adjacent points.
    Short pairs are certain failures and a searched try may be accepted, so
    the round draws tries until it holds `block` searches or `run` (the
    failures in a row before it) reaches max_tries.  A searched pair's
    segment comes from `row_segments`, or from `minimal_geodesics` where
    that gives none (the cone's apex routes).  The feet of those with a row
    are `feet_of_perpendicular`, and their endpoint-snap check is
    `segment_rows` and `pair_distances`; the others take `_searched_try`.
    A `GeodesicSegment` is built only for a try without a row or accepted,
    when the round reaches it.  A point whose
    shot is unavailable, or a searched pair that `minimal_geodesics` joins
    more than once, raises `LoopRound` before the first try.  The rng is past
    the round's points while the round is suspended, and is then set back to
    the round's start and advanced by the uniforms of the tries taken.
    """
    state = rng.bit_generator.state
    taken = 0  # the uniforms up to the last point of the last try taken
    points = np.empty((0, 0))
    short: list = []  # of each pair of adjacent points

    def draw(n_points: int):
        nonlocal points
        first = len(points)
        new, ok = space.sample_balls(center, radius, rng.random(2 * n_points))
        if not ok.all():
            raise LoopRound
        points = np.concatenate([points, new]) if first else new
        d = space.pair_distances(points[max(first - 1, 0):-1], points[max(first, 1):])
        short.extend((d < criteria.MIN_SEG_REL * radius).tolist())

    def walk():
        """The uniforms up to each try's last point, each try's rejection
        reason (None where it is searched) and the searched pairs' positions,
        drawing points as the tries need them."""
        used, kinds, at = [], [], []
        pos = n_search = 0
        fails = run
        while n_search < block and fails < max_tries:
            if pos + 3 > len(points):
                # three points per search to come, or as many as the searches so far
                # took (at most ten)
                left = block - n_search
                draw(min(-(-left * pos // n_search), 10 * left) + 3 if n_search else 3 * left)
            if short[pos]:
                used.append(2 * pos + 4)
                kinds.append("short_segment")
                pos += 2
                fails += 1
                continue
            used.append(2 * pos + 6)
            kinds.append(None)
            at.append(pos)
            pos += 3
            n_search += 1
            fails = 0
        return used, kinds, np.array(at, dtype=int)

    try:
        used, kinds, at = walk()
        lengths, rows, starts, ends, exact = space.row_segments(points[at], points[at + 1])
        segs = {}  # position -> the one geodesic of a pair that row_segments leaves out
        for pos in at[~exact].tolist():
            geods = space.minimal_geodesics(space.handle(points[pos]),
                                            space.handle(points[pos + 1]))
            if len(geods) > 1:
                raise LoopRound
            segs[pos] = geods[0]
        reasons: list = [None] * len(at)
        configs: list = [None] * len(at)
        t, d = np.full(len(at), np.nan), np.full(len(at), np.nan)
        rowed = np.flatnonzero(exact)
        if len(rowed):
            t[rowed], d[rowed], code = criteria.feet_of_perpendicular(
                space, points[at[rowed] + 2], rows[rowed], lengths[rowed])
            for i, c in zip(rowed.tolist(), code.tolist()):
                reasons[i] = criteria.FOOT_REJECTIONS.get(c, "low_height")
            kept = rowed[(code == criteria.FOOT_OK) & ~(d[rowed] < min_height)]
            p = space.segment_rows(rows[kept])(t[kept])
            # within GEO of an endpoint, as an interior t* can be at radii near GEO
            snap = ((space.pair_distances(p, starts[kept]) <= GEO)
                    | (space.pair_distances(p, ends[kept]) <= GEO))
            for i, s in zip(kept.tolist(), snap.tolist()):
                reasons[i] = "endpoint_snap" if s else None
        for i in np.flatnonzero(~exact).tolist():
            pos = int(at[i])
            reasons[i], configs[i] = _searched_try(space, space.handle(points[pos + 2]),
                                                   segs[pos], min_height)
        t, d, lengths = t.tolist(), d.tolist(), lengths.tolist()
        i = 0
        for end, kind in zip(used, kinds):
            taken = end
            if kind is not None:
                yield kind, None
                continue
            reason, config = reasons[i], configs[i]
            if reason is None and config is None:  # accepted, with a row
                seg = space.segment_of_row(space.handle(starts[i]), space.handle(ends[i]),
                                           lengths[i], tuple(rows[i].tolist()))
                config = space.handle(points[at[i] + 2]), seg, criteria.FootResult(t[i], d[i])
            yield reason, config
            i += 1
    finally:  # the uniforms of the tries taken, and no more
        rng.bit_generator.state = state
        rng.random(taken)
