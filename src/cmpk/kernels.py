"""Trig kernels for the constant-curvature model surfaces, on floats and arrays.

All functions are raw number crunching: domain validation, clamping policy
and error types live in ``cmpk.model``.  Each kernel takes its
transcendentals and its branch choice from a `Trig`: `SCALAR` runs it on
floats through `math`; ``cmpk.vector`` has the array forms.  The curvature k
is a float throughout.

The Law of Cosines on the model surface of curvature k is evaluated in
"generalized versine" form,

    vcs_k(c) = vcs_k(a) + cs_k(a) * vcs_k(b) - sn_k(a) * sn_k(b) * cos(gamma),

where cs_k(d) = cos(sqrt(k) d) / cosh(sqrt(-k) d), sn_k(d) = sin(..)/sqrt(k)
(resp. sinh), and vcs_k(d) = (1 - cs_k(d)) / k.  vcs is computed from
half-angle identities, never by subtracting cs from 1, so the identity stays
cancellation-free uniformly in k and reduces exactly to
c^2/2 = a^2/2 + b^2/2 - a b cos(gamma) at k = 0.

Each kernel computes its Taylor branch and its closed form and picks one per
value with `Trig.where`; at k = 0, where the closed form would divide by 0,
it returns the Taylor branch at once.
"""

import math
from typing import Callable, NamedTuple

# |k| * d^2 below which the Taylor branches engage (continuity through k = 0).
SERIES_EPS = 1e-8


class Trig(NamedTuple):
    """The transcendentals the kernels call, and `where(cond, a, b)`: a where cond, else b."""

    cos: Callable
    sin: Callable
    sqrt: Callable
    cosh: Callable
    sinh: Callable
    asin: Callable
    asinh: Callable
    acos: Callable
    where: Callable


SCALAR = Trig(math.cos, math.sin, math.sqrt, math.cosh, math.sinh, math.asin, math.asinh,
              math.acos, lambda cond, a, b: a if cond else b)


def cs(k: float, d, f: Trig = SCALAR):
    """Generalized cosine cs_k(d): cos for k>0, cosh for k<0, series near 0."""
    w = k * d * d
    series = 1.0 - w / 2.0 + w * w / 24.0 - w * w * w / 720.0
    if k == 0.0:
        return series
    full = f.cos(math.sqrt(k) * d) if k > 0.0 else f.cosh(math.sqrt(-k) * d)
    return f.where(abs(w) < SERIES_EPS, series, full)


def sn(k: float, d, f: Trig = SCALAR):
    """Generalized sine sn_k(d) in length units: sin(sqrt(k) d)/sqrt(k), etc."""
    w = k * d * d
    series = d * (1.0 - w / 6.0 + w * w / 120.0 - w * w * w / 5040.0)
    if k == 0.0:
        return series
    rk = math.sqrt(abs(k))
    full = (f.sin(rk * d) if k > 0.0 else f.sinh(rk * d)) / rk
    return f.where(abs(w) < SERIES_EPS, series, full)


def vcs(k: float, d, f: Trig = SCALAR):
    """Generalized versine (1 - cs_k(d))/k >= 0, with limit d^2/2 at k = 0."""
    w = k * d * d
    series = d * d * (0.5 - w / 24.0 + w * w / 720.0)
    if k == 0.0:
        return series
    if k > 0.0:
        s = f.sin(0.5 * math.sqrt(k) * d)
        full = 2.0 * s * s / k
    else:
        s = f.sinh(0.5 * math.sqrt(-k) * d)
        full = 2.0 * s * s / (-k)
    return f.where(abs(w) < SERIES_EPS, series, full)


def arc_from_vcs(k: float, v, f: Trig = SCALAR):
    """Inverse of vcs in d.  v may carry -0-level rounding; treated as 0."""
    v = f.where(v < 0.0, 0.0, v)
    series = f.sqrt(2.0 * v) * (1.0 + k * v / 12.0 + 3.0 * k * k * v * v / 160.0)
    if k == 0.0:
        return series
    x2 = 0.5 * k * v  # sin^2(sqrt(k) d / 2) for k>0, -sinh^2(..) for k<0
    if k > 0.0:
        s2 = f.where(x2 >= 1.0, 1.0, x2)  # antipodal limit; admissibility keeps callers off it
        rk = math.sqrt(k)
        full = f.where(s2 <= 0.5, 2.0 * f.asin(f.sqrt(s2)) / rk,
                       (math.pi - 2.0 * f.asin(f.sqrt(1.0 - s2))) / rk)
    else:
        full = 2.0 * f.asinh(f.sqrt(-x2)) / math.sqrt(-k)
    return f.where(abs(x2) < 0.25 * SERIES_EPS, series, full)


def cos_angle_from_sides(k: float, a, b, c, f: Trig = SCALAR):
    """Raw cosine of the model angle between sides a and b (c opposite).

    May fall epsilon outside [-1, 1] for near-degenerate triples; the caller
    owns the clamping policy.
    """
    return ((vcs(k, a, f) + cs(k, a, f) * vcs(k, b, f) - vcs(k, c, f))
            / (sn(k, a, f) * sn(k, b, f)))


def side_from_angle_cos(k: float, a, b, cos_gamma, f: Trig = SCALAR):
    """Third side of the model triangle with sides a, b enclosing angle gamma."""
    v = vcs(k, a, f) + cs(k, a, f) * vcs(k, b, f) - sn(k, a, f) * sn(k, b, f) * cos_gamma
    return arc_from_vcs(k, v, f)
