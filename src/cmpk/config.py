"""Central tolerance configuration.

Every numeric slack used by the toolkit lives in one frozen record so that a
run's tolerances can be reported alongside its results.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

# Perimeter safety margin for k > 0, in units of 1/sqrt(k): comparison
# triangles are non-unique at the antipodal boundary.
SPHERE_MARGIN = 1e-6

# sqrt(|k|) * d above this the hyperbolic kernels would overflow long before
# any geometry of interest; rejected as a domain error.
MAX_HYPERBOLIC_ARG = 100.0


@dataclass(frozen=True)
class Tolerances:
    """Numeric slacks, radians and length units as noted."""

    tri_rel: float = 1e-9       # triangle-inequality slack, relative to perimeter
    clamp: float = 1e-9         # max arccos-argument excursion silently clamped
    geo: float = 1e-9           # metric / geodesic-minimality slack (length)
    pt: float = 1e-10           # point-equality tolerance (length)
    tie: float = 1e-9           # multiplicity tie window (length)
    verdict_abs: float = 1e-9   # absolute floor of the verdict tolerance (rad / length)
    verdict_quad: float = 1e-4  # quadratic coefficient: tol = max(abs, quad * scale^2)
    foot_margin_rel: float = 1e-3   # interior-foot margin, fraction of segment length
    foot_refine_rel: float = 1e-8   # golden-section bracket target, fraction of length
    foot_polish_rel: float = 5e-6   # parabolic-polish probe spacing, fraction of length

    def verdict_tolerance(self, scale: float) -> float:
        """Verdict tolerance for a configuration of the given diameter."""
        return max(self.verdict_abs, self.verdict_quad * scale * scale)

    def with_verdict_quad(self, c: float) -> "Tolerances":
        return replace(self, verdict_quad=c)


DEFAULT_TOL = Tolerances()
