"""The numpy functions the measuring modules may call.

A report must not depend on the SIMD target numpy dispatches to, and numpy's
transcendentals (arctan2, cosh, sinh, arcsinh, exp, tan, arccos, ...) round
by the target.  So `kernels`, the home of the exact Forms, `spaces`,
`criteria` and `rounds` call numpy only for operations that round one way
everywhere.  The exact Forms write hypot in such operations, and send every
other transcendental through `math`, entry by entry in the arrays of
`kernels.ROWS` and `kernels.MATH`.
"""

import ast
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

import cmpk
from cmpk import kernels

MODULES = ("kernels.py", "spaces.py", "criteria.py", "rounds.py")

ALLOWED = {
    # arithmetic, comparison and selection, exact in IEEE arithmetic
    "abs", "clip", "maximum", "minimum", "round", "where", "isfinite",
    "argmin", "count_nonzero", "flatnonzero",
    # building and reshaping arrays
    "array", "asarray", "concatenate", "empty", "eye", "full", "ndim", "ones", "stack",
    "transpose", "zeros", "zeros_like",
    # correctly rounded
    "sqrt",
    # pinned equal to `math` below
    "sin", "cos",
}


def numpy_functions(path: Path) -> set[str]:
    """The numpy functions (not types, modules or constants) named as np.<name>."""
    names = {node.attr for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
             and node.value.id == "np"}
    return {n for n in names if callable(getattr(np, n)) and not isinstance(getattr(np, n), type)}


@pytest.mark.parametrize("module", MODULES)
def test_measuring_modules_call_only_allowed_numpy_functions(module):
    path = Path(cmpk.__file__).parent / module
    assert numpy_functions(path) - ALLOWED == set()


def test_numpy_sin_and_cos_round_as_math_does():
    rng = np.random.default_rng(20261020)
    # magnitudes from 1e-12 to 1e6, both signs, and the quarter turns
    x = np.concatenate([
        np.exp(rng.uniform(math.log(1e-12), math.log(1e6), 200_000))
        * rng.choice([-1.0, 1.0], 200_000),
        np.arange(-64, 65) * (math.pi / 2), [0.0, -0.0, 5e-324, 1e-300]])
    for f, g in ((np.sin, math.sin), (np.cos, math.cos)):
        want = np.array(list(map(g, x.tolist())))
        assert np.array_equal(f(x).view(np.int64), want.view(np.int64)), f.__name__



# each field of the exact Forms at four arguments inside its domain, and at
# those outside it, where `math` raises
FORM_ARGS = {
    "cos": (([0.3, -2.5, 1e6, -0.0],), ([math.inf],)),
    "sin": (([0.3, -2.5, 1e6, -0.0],), ([-math.inf],)),
    "sqrt": (([0.0, -0.0, 2.0, 1e-320],), ([-1.0],)),
    "cosh": (([0.3, -2.5, 700.0, -0.0],), ([710.5],)),
    "sinh": (([0.3, -2.5, -700.0, -0.0],), ([-710.5],)),
    "asin": (([0.3, -1.0, 1.0, -0.0],), ([1.0 + 2**-52],)),
    "asinh": (([0.3, -2.5, 1e300, -0.0],), ([],)),
    "atanh": (([0.3, -0.5, 0.999, -0.0],), ([1.0],)),
    "acos": (([0.3, -1.0, 1.0, -0.0],), ([-1.0 - 2**-52],)),
    "atan2": (([0.3, -0.0, 0.0, -1.0], [-2.5, -1.0, -0.0, 0.0]), ([], [])),
    "hypot": (([0.3, -2.5, 1e300, 0.0], [1e-300, 4.0, 1e300, -0.0]), ([], [])),
}
NUMPY_FIELDS = ("cos", "sin", "sqrt")  # numpy's in ROWS: nan where `math` raises
MASKED = ("cosh", "sinh", "asin", "acos")  # nan in MATH where `math` raises


def bits(x) -> list[int]:
    return np.asarray(x, dtype=float).view(np.int64).ravel().tolist()


@pytest.mark.parametrize("field", list(FORM_ARGS))
def test_exact_array_forms_are_floats_entry_by_entry(field):
    # ROWS and MATH on an array are FLOATS entry by entry, bit for bit, in any
    # shape; outside the domain ROWS raises what FLOATS raises (numpy's cos, sin
    # and sqrt read nan), and MATH reads nan where its field is masked
    floats, rows, exact = (getattr(f, field) for f in (kernels.FLOATS, kernels.ROWS, kernels.MATH))
    inside, outside = FORM_ARGS[field]
    want = [floats(*xs) for xs in zip(*inside)]
    for form in (rows, exact):
        assert bits(form(*map(np.array, inside))) == bits(want)
        square = form(*(np.array(x).reshape(2, 2) for x in inside))
        assert square.shape == (2, 2) and bits(square) == bits(want)
    both = [np.array(i + o) for i, o in zip(inside, outside)]
    for xs in zip(*outside):
        with pytest.raises((ValueError, OverflowError)) as raised:
            floats(*xs)
        if field in NUMPY_FIELDS:
            with np.errstate(invalid="ignore"):
                assert np.isnan(rows(*both)[len(want):]).all()
        else:
            with pytest.raises(raised.type):
                rows(*both)
        if field in MASKED:
            got = exact(*both)
            assert bits(got[:len(want)]) == bits(want) and np.isnan(got[len(want):]).all()


def hypot_grid() -> tuple[np.ndarray, np.ndarray]:
    """Pairs of arguments: magnitudes from 2**-1074 to 2**1023 with both signs,
    +-0, mixed scales, and +-inf and nan."""
    scales = np.ldexp(1.0, np.r_[-1074:1024:31, -1074, -1022, 1023, -537, 511, 512])
    values = np.concatenate([scales, scales * 1.75, scales[:-1] * (2.0 - 2**-52)])
    values = np.concatenate([values, -values, [0.0, -0.0, 1e300, 1e-300, 5e-324]])
    x, y = (a.ravel() for a in np.meshgrid(values, values))
    not_finite = [math.inf, -math.inf, math.nan]
    x = np.concatenate([x, not_finite * 3, [1.0, 1e300, 5e-324, 0.0] * 3])
    y = np.concatenate([y, np.repeat(not_finite, 3), np.repeat(not_finite, 4)])
    return x, y


def test_hypot_is_one_arithmetic_on_floats_and_arrays():
    # no math.hypot and no numpy hypot: sqrt(x*x + y*y), scaled by a power of two
    # where the sum of squares leaves [2**-1000, 2**1000], bit for bit the same
    # on floats and on arrays of any shape, within 1 ulp of math.hypot on finite
    # arguments, and warning of no overflow or underflow on the way
    x, y = hypot_grid()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        want = [kernels.FLOATS.hypot(a, b) for a, b in zip(x.tolist(), y.tolist())]
        n = x.size // 2 * 2
        for form in (kernels.ROWS, kernels.MATH):
            assert bits(form.hypot(x, y)) == bits(want)
            square = form.hypot(x[:n].reshape(2, -1), y[:n].reshape(2, -1))
            assert square.shape == (2, n // 2) and bits(square) == bits(want[:n])
    assert all(type(h) is float for h in want)
    exact = [math.hypot(a, b) for a, b in zip(x.tolist(), y.tolist())]
    finite = np.isfinite(x) & np.isfinite(y)
    ulps = np.abs(np.array(bits(want)) - np.array(bits(exact)))[finite]
    assert ulps.max() <= 1 and ulps.size > 40_000
    # inf where an argument is infinite and neither is nan; nan where one is nan,
    # even beside inf, where math.hypot reads inf
    nan = np.isnan(x) | np.isnan(y)
    assert np.isnan(np.array(want)[nan]).all()
    assert (np.array(want)[~finite & ~nan] == math.inf).all()
