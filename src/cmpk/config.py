"""Numeric constants of the toolkit, and the one setting a run may change.

Measuring a configuration reads only fixed slacks, the module constants
below: GEO, PT, TIE, CLAMP, TRI_REL and the interior-foot fraction
FOOT_MARGIN_REL.  Evaluating a
measurement at some k also reads the verdict tolerance
max(VERDICT_ABS, c * scale**2), whose quadratic coefficient c is the one
setting: `Tolerances.verdict_quad`, which `--tol-scale` sets.
"""

from __future__ import annotations

from dataclasses import dataclass

# Perimeter safety margin for k > 0, in units of 1/sqrt(k): comparison
# triangles are non-unique at the antipodal boundary.
SPHERE_MARGIN = 1e-6

# sqrt(|k|) * d above this the hyperbolic kernels would overflow long before
# any geometry of interest; rejected as a domain error.
MAX_HYPERBOLIC_ARG = 100.0

# Numeric slacks, radians and length units as noted.
TRI_REL = 1e-9          # triangle-inequality slack, relative to perimeter
CLAMP = 1e-9            # max arccos-argument excursion silently clamped
GEO = 1e-9              # metric / geodesic-minimality slack (length)
PT = 1e-10              # point-equality tolerance (length)
TIE = 1e-9              # minimal-geodesic tie window (length)
VERDICT_ABS = 1e-9      # absolute floor of the verdict tolerance (rad / length)
FOOT_MARGIN_REL = 1e-3  # interior-foot margin, fraction of segment length


@dataclass(frozen=True)
class Tolerances:
    """The verdict tolerance of a run: tol = max(VERDICT_ABS, verdict_quad * scale^2)."""

    verdict_quad: float = 1e-4  # quadratic coefficient

    def verdict_tolerance(self, scale: float) -> float:
        """Verdict tolerance for a configuration of the given diameter."""
        return max(VERDICT_ABS, self.verdict_quad * scale * scale)


DEFAULT_TOL = Tolerances()
