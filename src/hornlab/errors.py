"""Exception taxonomy shared across the package.

Config problems, numerical failures and internal cross-check mismatches map
to distinct classes so the CLI can translate them into distinct exit codes.
"""


class HornError(Exception):
    """Base class for all hornlab errors."""


class DomainValidationError(HornError, ValueError):
    """An argument or parameter violates a stated constraint."""


class ToleranceFloorError(DomainValidationError):
    """A tolerance lies below the floor a solver, "ODE" or "quadrature",
    honours; carries the tolerance asked for, the floor and the solver."""

    def __init__(self, message, tol, floor, solver):
        super().__init__(message)
        self.tol = tol
        self.floor = floor
        self.solver = solver


class ConfigError(HornError, ValueError):
    """A run configuration is malformed or inconsistent."""


class IntegrationError(HornError, RuntimeError):
    """ODE integration failed; carries its location and its batch row.  In
    a numerics kernel, location is in the sweep's own variable; once a pass
    names the failure, it is a radius."""

    def __init__(self, message, location=None, row=None):
        super().__init__(message)
        self.location = location
        self.row = row


class QuadratureError(HornError, RuntimeError):
    """Adaptive quadrature did not converge within its subdivision budget.

    The best available estimate and its error bound are attached.
    """

    def __init__(self, message, estimate=None, bound=None):
        super().__init__(message)
        self.estimate = estimate
        self.bound = bound


class ConsistencyError(HornError, RuntimeError):
    """An internal cross-check failed (two routes to one quantity disagree)."""


class TipTailError(ConsistencyError):
    """The estimated energy below a profile window is not negligible
    against the bulk energy integral of a scan row."""


class EigenSearchError(HornError, RuntimeError):
    """Eigenvalue bracket search exhausted its budget."""
