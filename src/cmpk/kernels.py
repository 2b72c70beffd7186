"""Kernel backend selection: compiled extension when built, pure Python otherwise.

Set ``CMPK_KERNELS=python`` or ``CMPK_KERNELS=cython`` to force a backend
(the latter raises if the extension is missing); any other non-empty value
raises rather than silently selecting the default.
"""

from __future__ import annotations

import os
from types import ModuleType

from cmpk import _scalar_py


FORCE_VALUES = ("python", "cython")


def _load() -> tuple[ModuleType, str]:
    forced = os.environ.get("CMPK_KERNELS", "")
    if forced and forced not in FORCE_VALUES:
        raise ValueError(
            f"CMPK_KERNELS={forced!r} names no backend; "
            f"set one of {', '.join(FORCE_VALUES)} or leave it unset"
        )
    if forced == "python":
        return _scalar_py, "python"
    try:
        from cmpk import _scalar_cy  # type: ignore[attr-defined]
    except ImportError:
        if forced == "cython":
            raise RuntimeError(
                "CMPK_KERNELS=cython but the compiled extension is not available"
            ) from None
        return _scalar_py, "python"
    return _scalar_cy, "cython"


_impl, BACKEND = _load()

cs = _impl.cs
sn = _impl.sn
vcs = _impl.vcs
arc_from_vcs = _impl.arc_from_vcs
cos_angle_from_sides = _impl.cos_angle_from_sides
side_from_angle_cos = _impl.side_from_angle_cos


def available_backends() -> dict[str, ModuleType]:
    """Backends importable in this environment, keyed by name."""
    out: dict[str, ModuleType] = {"python": _scalar_py}
    try:
        from cmpk import _scalar_cy  # type: ignore[attr-defined]

        out["cython"] = _scalar_cy
    except ImportError:
        pass
    return out
