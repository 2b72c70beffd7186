"""The numpy functions the measuring modules may call.

A report must not depend on the SIMD target numpy dispatches to, and numpy's
transcendentals (arctan2, cosh, sinh, arcsinh, exp, tan, arccos, ...) round
by the target.  So `spaces`, `criteria` and `rounds` call numpy only for
operations that round one way everywhere, and send every other
transcendental through `math` (`spaces._each`).
"""

import ast
import math
from pathlib import Path

import numpy as np
import pytest

import cmpk

MODULES = ("spaces.py", "criteria.py", "rounds.py")

ALLOWED = {
    # arithmetic, comparison and selection, exact in IEEE arithmetic
    "abs", "clip", "maximum", "minimum", "round", "where", "isfinite",
    "argmin", "count_nonzero", "flatnonzero",
    # building and reshaping arrays
    "array", "asarray", "concatenate", "empty", "eye", "full", "ndim", "ones", "stack",
    "transpose", "zeros", "zeros_like",
    # correctly rounded, or rounding alike on every dispatch target
    "sqrt", "hypot",
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
