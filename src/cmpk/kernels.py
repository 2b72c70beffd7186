"""Trig kernels for the constant-curvature model surfaces, and the `Form`s
that every body written once for floats and arrays runs on.

All functions are raw number crunching: domain validation, clamping policy
and error types live in ``cmpk.model``.  Each kernel takes its
transcendentals and its branch choice from a `Form`, as do the row spaces'
geometry in ``cmpk.spaces`` and the right-angle rows of ``cmpk.criteria``.
The curvature k is a float throughout.

A report must be the same bit for bit on every machine, and numpy's
transcendentals other than cos, sin and sqrt round by the SIMD target numpy
dispatches to.  So the exact Forms send those through `math` entry by entry,
except hypot, which they write as sqrt(x*x + y*y) in operations that floats
and arrays round alike (`_hypot`):

- `FLOATS`: `math` on floats, raising where `math` raises;
- `ROWS`: arrays, bit for bit `FLOATS` entry by entry, raising where it
  raises.  cos, sin and sqrt are numpy's, which round as `math`'s do, and
  hypot is `FLOATS`'s arithmetic over arrays;
- `MATH`: `ROWS`, except that cosh, sinh, asin and acos read nan outside
  their domain: an array pass evaluates entries that it then masks.

``cmpk.vector`` has `NUMPY`, numpy's ufuncs throughout, for the screens.

The Law of Cosines on the model surface of curvature k is evaluated in
"generalized versine" form,

    vcs_k(c) = vcs_k(a) + cs_k(a) * vcs_k(b) - sn_k(a) * sn_k(b) * cos(gamma),

where cs_k(d) = cos(sqrt(k) d) / cosh(sqrt(-k) d), sn_k(d) = sin(..)/sqrt(k)
(resp. sinh), and vcs_k(d) = (1 - cs_k(d)) / k.  vcs is computed from
half-angle identities, never by subtracting cs from 1, so the identity stays
cancellation-free uniformly in k and reduces exactly to
c^2/2 = a^2/2 + b^2/2 - a b cos(gamma) at k = 0.

Each kernel computes its Taylor branch and its closed form and picks one per
value with `Form.where`; at k = 0, where the closed form would divide by 0,
it returns the Taylor branch's leading term at once, which is the whole
branch there wherever the argument is finite.
"""

import math
from collections import namedtuple

import numpy as np

# |k| * d^2 below which the Taylor branches engage (continuity through k = 0).
SERIES_EPS = 1e-8

# What a body computes with: its transcendentals, sqrt, hypot, where(cond, a,
# b) (a where cond, else b) and the reductions all and any of a condition
Form = namedtuple("Form",
                  "cos sin sqrt cosh sinh asin asinh atanh acos atan2 hypot where all any")


def _each(g):
    """g of every entry of arrays of one shape, through `math`."""
    def each(*xs):
        xs = [np.asarray(x, dtype=float) for x in xs]
        out = np.array(list(map(g, *(x.ravel().tolist() for x in xs))), dtype=float)
        return out.reshape(xs[0].shape)
    return each


def _nan_outside(g, lo: float, hi: float):
    """`_each(g)`, nan outside [lo, hi], where g would raise."""
    each = _each(g)

    def masked(x):
        x = np.asarray(x, dtype=float)
        inside = (x >= lo) & (x <= hi)
        return np.where(inside, each(np.where(inside, x, 0.0)), np.nan)
    return masked


def _hypot(f: Form):
    """hypot(x, y) over f as sqrt(x*x + y*y): +, *, sqrt and scaling by powers
    of two are correctly rounded, so floats and arrays agree bit for bit.
    Within 1 ulp of `math.hypot` on finite arguments; nan where either argument
    is nan, even at (inf, nan), where `math.hypot` reads inf.

    Where a sum of squares leaves [2**-1000, 2**1000], its squares may have
    overflowed or lost bits to underflow, and its arguments are scaled by
    2**600 or 2**-600 first.
    """
    lo, hi = 2.0 ** -1000, 2.0 ** 1000

    def hypot(x, y):
        s = x * x + y * y
        if f.all((s >= lo) & (s <= hi)):
            return f.sqrt(s)
        scale = f.where(s < lo, 2.0 ** 600, f.where(s <= hi, 1.0, 2.0 ** -600))
        x, y = x * scale, y * scale
        return f.sqrt(x * x + y * y) / scale
    return hypot


FLOATS = Form(math.cos, math.sin, math.sqrt, math.cosh, math.sinh, math.asin, math.asinh,
              math.atanh, math.acos, math.atan2, None, lambda cond, a, b: a if cond else b,
              bool, bool)
FLOATS = FLOATS._replace(hypot=_hypot(FLOATS))
ROWS = Form(np.cos, np.sin, np.sqrt, *map(_each, FLOATS[3:10]), None, np.where,
            lambda cond: cond.all(), lambda cond: cond.any())
# a square past 2**1024 is inf, as on floats, and takes hypot's scaled path
ROWS = ROWS._replace(hypot=np.errstate(over="ignore")(_hypot(ROWS)))
MATH = ROWS._replace(cosh=_nan_outside(math.cosh, -700.0, 700.0),
                     sinh=_nan_outside(math.sinh, -700.0, 700.0),
                     asin=_nan_outside(math.asin, -1.0, 1.0),
                     acos=_nan_outside(math.acos, -1.0, 1.0))


def cs(k: float, d, f: Form = FLOATS):
    """Generalized cosine cs_k(d): cos for k>0, cosh for k<0, series near 0."""
    if k == 0.0:
        return 0.0 * d + 1.0  # 1.0, shaped like d; nan where d is inf or nan
    w = k * d * d
    series = 1.0 - w / 2.0 + w * w / 24.0 - w * w * w / 720.0
    full = f.cos(math.sqrt(k) * d) if k > 0.0 else f.cosh(math.sqrt(-k) * d)
    return f.where(abs(w) < SERIES_EPS, series, full)


def sn(k: float, d, f: Form = FLOATS):
    """Generalized sine sn_k(d) in length units: sin(sqrt(k) d)/sqrt(k), etc."""
    if k == 0.0:
        return d
    w = k * d * d
    series = d * (1.0 - w / 6.0 + w * w / 120.0 - w * w * w / 5040.0)
    rk = math.sqrt(abs(k))
    full = (f.sin(rk * d) if k > 0.0 else f.sinh(rk * d)) / rk
    return f.where(abs(w) < SERIES_EPS, series, full)


def vcs(k: float, d, f: Form = FLOATS):
    """Generalized versine (1 - cs_k(d))/k >= 0, with limit d^2/2 at k = 0."""
    if k == 0.0:
        return d * d * 0.5
    w = k * d * d
    series = d * d * (0.5 - w / 24.0 + w * w / 720.0)
    if k > 0.0:
        s = f.sin(0.5 * math.sqrt(k) * d)
        full = 2.0 * s * s / k
    else:
        s = f.sinh(0.5 * math.sqrt(-k) * d)
        full = 2.0 * s * s / (-k)
    return f.where(abs(w) < SERIES_EPS, series, full)


def arc_from_vcs(k: float, v, f: Form = FLOATS):
    """Inverse of vcs in d.  v may carry -0-level rounding; treated as 0."""
    v = f.where(v < 0.0, 0.0, v)
    if k == 0.0:
        return f.sqrt(2.0 * v)
    series = f.sqrt(2.0 * v) * (1.0 + k * v / 12.0 + 3.0 * k * k * v * v / 160.0)
    x2 = 0.5 * k * v  # sin^2(sqrt(k) d / 2) for k>0, -sinh^2(..) for k<0
    if k > 0.0:
        s2 = f.where(x2 >= 1.0, 1.0, x2)  # antipodal limit; admissibility keeps callers off it
        rk = math.sqrt(k)
        full = f.where(s2 <= 0.5, 2.0 * f.asin(f.sqrt(s2)) / rk,
                       (math.pi - 2.0 * f.asin(f.sqrt(1.0 - s2))) / rk)
    else:
        full = 2.0 * f.asinh(f.sqrt(-x2)) / math.sqrt(-k)
    return f.where(abs(x2) < 0.25 * SERIES_EPS, series, full)


def cos_angle_from_sides(k: float, a, b, c, f: Form = FLOATS):
    """Raw cosine of the model angle between sides a and b (c opposite).

    May fall epsilon outside [-1, 1] for near-degenerate triples; the caller
    owns the clamping policy.
    """
    return ((vcs(k, a, f) + cs(k, a, f) * vcs(k, b, f) - vcs(k, c, f))
            / (sn(k, a, f) * sn(k, b, f)))


def side_from_angle_cos(k: float, a, b, cos_gamma, f: Form = FLOATS):
    """Third side of the model triangle with sides a, b enclosing angle gamma."""
    v = vcs(k, a, f) + cs(k, a, f) * vcs(k, b, f) - sn(k, a, f) * sn(k, b, f) * cos_gamma
    return arc_from_vcs(k, v, f)
