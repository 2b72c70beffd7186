"""Trigonometry of the two-dimensional constant-curvature model surfaces.

Public operations validate their domain (finite inputs, side bounds for
k > 0, triangle inequality) and apply the clamping policy; the raw number
crunching lives in ``cmpk.kernels``.

Conventions: angles in radians, lengths in length units, arclength
parametrization throughout.  The curvature constant k is any finite real.
"""

from __future__ import annotations

import math

import numpy as np

from cmpk.config import CLAMP, GEO, MAX_HYPERBOLIC_ARG, SPHERE_MARGIN, TRI_REL
from cmpk.errors import DegenerateConfigError, ModelDomainError
from cmpk import kernels

PI = math.pi
ILL = 1e-6  # conditioning band that the array passes leave to the scalar path


def _require_finite(**values: float) -> None:
    for name, v in values.items():
        if not math.isfinite(v):
            raise ModelDomainError(f"{name} must be finite, got {v!r}")


def max_perimeter(k: float) -> float:
    """Admissible triangle perimeter bound, with the antipodal safety margin."""
    _require_finite(k=k)
    if k > 0.0:
        return _perimeter_bound(k)
    return math.inf


def _perimeter_bound(k: float) -> float:
    """`max_perimeter` for a finite k > 0, without re-checking k."""
    return (2.0 * PI - SPHERE_MARGIN) / math.sqrt(k)


def _check_length(k: float, d: float, name: str = "d") -> None:
    if not (math.isfinite(k) and math.isfinite(d)):
        _require_finite(k=k, **{name: d})
    if d < 0.0:
        raise ModelDomainError(f"{name} must be >= 0, got {d}")
    if k > 0.0:
        bound = PI / math.sqrt(k)
        if d >= bound:
            raise ModelDomainError(
                f"{name}={d} violates {name} < pi/sqrt(k) = {bound} for k={k}"
            )
    elif k < 0.0 and math.sqrt(-k) * d > MAX_HYPERBOLIC_ARG:
        raise ModelDomainError(
            f"sqrt(-k)*{name} = {math.sqrt(-k) * d:.3g} exceeds the representable range"
        )


def generalized_cos(k: float, d: float) -> float:
    """cs_k(d): cos(sqrt(k) d) for k>0, cosh(sqrt(-k) d) for k<0, series near 0."""
    _check_length(k, d)
    return kernels.cs(k, d)


def generalized_sin(k: float, d: float) -> float:
    """sn_k(d): sin(sqrt(k) d)/sqrt(k) for k>0, sinh analog for k<0, d at k=0."""
    _check_length(k, d)
    return kernels.sn(k, d)


def _check_sides(k: float, a: float, b: float, c: float) -> None:
    """Sides (a, b, c) of a model triangle at k: finite, >= 0, within the
    triangle inequality up to TRI_REL of the perimeter, each within its
    bound at k and, for k > 0, a perimeter below the admissible bound."""
    if not (math.isfinite(a) and math.isfinite(b) and math.isfinite(c)):
        _require_finite(a=a, b=b, c=c)
    if a < 0.0 or b < 0.0 or c < 0.0:
        raise ModelDomainError(f"sides must be >= 0, got {(a, b, c)}")
    slack = TRI_REL * (a + b + c)
    if a > b + c + slack or b > c + a + slack or c > a + b + slack:
        raise ModelDomainError(f"triangle inequality violated by {(a, b, c)}")
    _check_length(k, a, "a")
    _check_length(k, b, "b")
    _check_length(k, c, "c")
    if k > 0.0:
        perimeter = a + b + c
        bound = _perimeter_bound(k)
        if perimeter >= bound:
            raise ModelDomainError(
                f"perimeter {perimeter} >= admissible bound {bound} for k={k}"
            )


def _clamped_acos(x: float) -> float:
    if x > 1.0:
        if x > 1.0 + CLAMP:
            raise ModelDomainError(f"cosine argument {x} exceeds 1 beyond clamp tolerance")
        x = 1.0
    elif x < -1.0:
        if x < -1.0 - CLAMP:
            raise ModelDomainError(f"cosine argument {x} below -1 beyond clamp tolerance")
        x = -1.0
    return math.acos(x)


def comparison_angle(k: float, sides) -> float:
    """Angle of the model triangle between sides a and b (c opposite).

    Inverse of :func:`side_from_angle` in its angle argument.
    """
    a, b, c = sides
    _check_sides(k, a, b, c)
    floor = 1e-12 * max(a + b + c, 1e-300)
    if a <= floor or b <= floor:
        raise DegenerateConfigError(f"sides adjacent to the angle must be > 0, got {(a, b, c)}")
    raw = kernels.cos_angle_from_sides(k, a, b, c)
    return _clamped_acos(raw)


def comparison_angles(k: float, a, b, c, f: kernels.Form, raw=None):
    """`comparison_angle(k, (a, b, c))` per entry of arrays, with the Form f,
    and ok, where it is decided: where its checks hold and the cosine is not
    within ILL of +-1.  `raw`, when given, is the angle's cosine from the
    caller's side kernels."""
    if raw is None:
        raw = kernels.cos_angle_from_sides(k, a, b, c, f)
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
    return f.acos(raw), ok


def side_from_angle(k: float, a: float, b: float, gamma: float) -> float:
    """Side c of the model triangle with sides a, b enclosing angle gamma."""
    _check_length(k, a, "a")
    _check_length(k, b, "b")
    if not math.isfinite(gamma):
        _require_finite(gamma=gamma)
    if not 0.0 <= gamma <= PI:
        raise ModelDomainError(f"gamma must lie in [0, pi], got {gamma}")
    c = kernels.side_from_angle_cos(k, a, b, math.cos(gamma))
    _check_resulting_perimeter(k, a, b, c)
    return c


def _check_resulting_perimeter(k: float, a: float, b: float, c: float) -> None:
    if k > 0.0 and a + b + c >= _perimeter_bound(k):
        raise ModelDomainError(
            f"resulting triangle perimeter {a + b + c} is inadmissible for k={k}"
        )


def pythagorean_defect(k: float, leg1: float, leg2: float, hyp: float) -> float:
    """Signed comparison-angle defect against a right angle.

    Negative means the lower-curvature-bound inequality holds strictly at
    this triple, positive the upper-bound one.
    """
    return comparison_angle(k, (leg1, leg2, hyp)) - 0.5 * PI


def comparison_distances(k: float, d_qp: float, d_qr: float, d_pr: float, ts) -> list[float]:
    """Model distances from q~ to the points at arclengths ts along [p~ r~].

    Endpoints (t within GEO of 0 or d_pr) give d_qp and d_qr exactly.
    The triple is checked once, each t's range in order, and the cosine of
    the model angle at p~ is computed once, at the first interior t, so the
    results and the first error raised are those of `side_from_angle` taking
    each t on its own: its length and angle checks hold by construction,
    since 0 <= t <= d_pr and the angle comes from acos.
    """
    if len(ts) == 0:
        return []
    _check_sides(k, d_qp, d_pr, d_qr)
    cos_alpha = None
    out = []
    for t in ts:
        if not -GEO <= t <= d_pr + GEO:
            raise ModelDomainError(f"t={t} outside [0, {d_pr}]")
        t = min(max(t, 0.0), d_pr)
        if t == 0.0:
            out.append(d_qp)
        elif t == d_pr:
            out.append(d_qr)
        else:
            if cos_alpha is None:
                cos_alpha = math.cos(comparison_angle(k, (d_qp, d_pr, d_qr)))
            c = kernels.side_from_angle_cos(k, d_qp, t, cos_alpha)
            _check_resulting_perimeter(k, d_qp, t, c)
            out.append(c)
    return out

