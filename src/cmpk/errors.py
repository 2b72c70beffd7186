"""Exception types shared across the toolkit."""


class CmpkError(Exception):
    """Base class for all toolkit errors."""


class ModelDomainError(CmpkError, ValueError):
    """Inputs outside the admissible domain of the model-space kernels."""


class DegenerateConfigError(CmpkError, ValueError):
    """A configuration too degenerate to evaluate (zero adjacent side, etc.)."""


class FootOnBoundary(CmpkError):
    """Foot of perpendicular landed within the margin of a segment endpoint."""

    def __init__(self, t_star: float, d_star: float, length: float):
        self.t_star = t_star
        self.d_star = d_star
        self.length = length
        super().__init__(
            f"foot t*={t_star:.6g} within margin of segment endpoint (L={length:.6g})"
        )


class ShootUnavailable(CmpkError):
    """The space cannot shoot geodesics from angle-parametrized directions."""


class RightAngleUnavailable(CmpkError):
    """No verified right-angle configuration could be built at this point."""


class LadderError(CmpkError):
    """Angle measurement degenerated (distances below resolution)."""


class BracketExpansionError(CmpkError):
    """Bisection bracket could not be expanded to a pass/fail straddle."""


class DegenerateRegionError(CmpkError):
    """No valid sample configurations could be drawn in the region."""


class SpaceDescriptorError(CmpkError, ValueError):
    """Malformed or unsupported space-descriptor JSON."""


class MeshFormatError(CmpkError, ValueError):
    """OBJ parse or mesh-validity failure; carries a line number when known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class DisconnectedGraphError(CmpkError):
    """Geodesic graph is not connected."""
