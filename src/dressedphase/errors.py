"""Exception hierarchy shared by all simulation modules.

Every error raised by the library carries the name of the module it
originated from, so callers (in particular the command-line front end)
can report which subsystem rejected the input or failed numerically.
"""

from __future__ import annotations


class DressedPhaseError(Exception):
    """Base class for all library errors."""

    module = "dressedphase"

    def __str__(self) -> str:
        return f"{self.module}: {super().__str__()}"


class ValidationError(DressedPhaseError, ValueError):
    """Invalid configuration or argument values."""


class DerivativeOrderError(ValidationError):
    """Requested derivative order exceeds the closed-form registry."""

    module = "model"


class FieldBelowFloorError(DressedPhaseError):
    """Rabi frequency below the floor where dressed quantities are defined."""

    module = "dressed"


class DegenerateRabiError(DressedPhaseError):
    """Generalized Rabi frequency too small for the derivative correction, or
    exactly 0 at the exceptional point Omega = |Im dw~| of a resonant, damped drive."""

    module = "dressed"


class GridError(ValidationError):
    """Malformed time or space grid."""


class StepSizeUnderflowError(DressedPhaseError):
    """The Magnus steps cannot resolve the drive within their step cap."""

    module = "propagator"


class GridMismatchError(ValidationError):
    """Trajectories sampled on different grids cannot be compared."""

    module = "propagator"


class EdgeLeakageError(DressedPhaseError):
    """Wavefunction reached the edge of the periodic spatial grid."""

    module = "hydro"


class InsufficientFramesError(ValidationError):
    """Too few frames for a centered time derivative."""

    module = "hydro"


class ConfigError(ValidationError):
    """Experiment configuration failed validation."""

    module = "cli"

    def __init__(self, problems):
        if isinstance(problems, str):
            problems = [problems]
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))
