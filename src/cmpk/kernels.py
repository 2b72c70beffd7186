"""Scalar trig kernels for the constant-curvature model surfaces.

All functions are raw number crunching: domain validation, clamping policy
and error types live in ``cmpk.model``; ``cmpk.vector`` has their numpy forms.

The Law of Cosines on the model surface of curvature k is evaluated in
"generalized versine" form,

    vcs_k(c) = vcs_k(a) + cs_k(a) * vcs_k(b) - sn_k(a) * sn_k(b) * cos(gamma),

where cs_k(d) = cos(sqrt(k) d) / cosh(sqrt(-k) d), sn_k(d) = sin(..)/sqrt(k)
(resp. sinh), and vcs_k(d) = (1 - cs_k(d)) / k.  vcs is computed from
half-angle identities, never by subtracting cs from 1, so the identity stays
cancellation-free uniformly in k and reduces exactly to
c^2/2 = a^2/2 + b^2/2 - a b cos(gamma) at k = 0.
"""

import math

# |k| * d^2 below which the Taylor branches engage (continuity through k = 0).
SERIES_EPS = 1e-8


def cs(k: float, d: float) -> float:
    """Generalized cosine cs_k(d): cos for k>0, cosh for k<0, series near 0."""
    w = k * d * d
    if abs(w) < SERIES_EPS:
        return 1.0 - w / 2.0 + w * w / 24.0 - w * w * w / 720.0
    if k > 0.0:
        return math.cos(math.sqrt(k) * d)
    return math.cosh(math.sqrt(-k) * d)


def sn(k: float, d: float) -> float:
    """Generalized sine sn_k(d) in length units: sin(sqrt(k) d)/sqrt(k), etc."""
    w = k * d * d
    if abs(w) < SERIES_EPS:
        return d * (1.0 - w / 6.0 + w * w / 120.0 - w * w * w / 5040.0)
    if k > 0.0:
        rk = math.sqrt(k)
        return math.sin(rk * d) / rk
    rk = math.sqrt(-k)
    return math.sinh(rk * d) / rk


def vcs(k: float, d: float) -> float:
    """Generalized versine (1 - cs_k(d))/k >= 0, with limit d^2/2 at k = 0."""
    w = k * d * d
    if abs(w) < SERIES_EPS:
        return d * d * (0.5 - w / 24.0 + w * w / 720.0)
    if k > 0.0:
        s = math.sin(0.5 * math.sqrt(k) * d)
        return 2.0 * s * s / k
    s = math.sinh(0.5 * math.sqrt(-k) * d)
    return 2.0 * s * s / (-k)


def arc_from_vcs(k: float, v: float) -> float:
    """Inverse of vcs in d.  v may carry -0-level rounding; treated as 0."""
    if v < 0.0:
        v = 0.0
    x2 = 0.5 * k * v  # sin^2(sqrt(k) d / 2) for k>0, -sinh^2(..) for k<0
    if abs(x2) < 0.25 * SERIES_EPS:
        return math.sqrt(2.0 * v) * (1.0 + k * v / 12.0 + 3.0 * k * k * v * v / 160.0)
    if k > 0.0:
        if x2 >= 1.0:
            x2 = 1.0  # antipodal limit; admissibility keeps callers off it
        if x2 <= 0.5:
            return 2.0 * math.asin(math.sqrt(x2)) / math.sqrt(k)
        return (math.pi - 2.0 * math.asin(math.sqrt(1.0 - x2))) / math.sqrt(k)
    return 2.0 * math.asinh(math.sqrt(-x2)) / math.sqrt(-k)


def cos_angle_from_sides(k: float, a: float, b: float, c: float) -> float:
    """Raw cosine of the model angle between sides a and b (c opposite).

    May fall epsilon outside [-1, 1] for near-degenerate triples; the caller
    owns the clamping policy.
    """
    return (vcs(k, a) + cs(k, a) * vcs(k, b) - vcs(k, c)) / (sn(k, a) * sn(k, b))


def side_from_angle_cos(k: float, a: float, b: float, cos_gamma: float) -> float:
    """Third side of the model triangle with sides a, b enclosing angle gamma."""
    v = vcs(k, a) + cs(k, a) * vcs(k, b) - sn(k, a) * sn(k, b) * cos_gamma
    return arc_from_vcs(k, v)
