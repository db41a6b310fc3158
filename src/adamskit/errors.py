"""Exception taxonomy shared across the package.

``DomainError`` and its subclasses signal mathematically invalid input
(CLI exit code 2); ``QuadratureError`` signals an integration tolerance
that could not be met (exit code 3).
"""


class DomainError(ValueError):
    """Input outside the mathematical domain of an operation."""


class InfeasibleError(DomainError):
    """Weighted-inequality setup whose best constant is infinite."""


class EnergyBoundError(DomainError):
    """Profile violates the unit-energy hypothesis of the exponential functional."""


class MonotonicityError(DomainError):
    """Data that must be nonincreasing is not."""


class DegenerateTrialError(RuntimeError):
    """Every probe trial was degenerate (zero or infinite derivative norm)."""


class QuadratureError(RuntimeError):
    """Adaptive integration failed to reach the requested tolerance.

    ``achieved`` is the summed error estimate, ``interval`` the (lo, hi)
    being integrated and ``panels`` the panel count when it gave up; each
    is None where the raiser does not know it.
    """

    def __init__(
        self,
        message: str,
        achieved: float | None = None,
        interval: tuple[float, float] | None = None,
        panels: int | None = None,
    ):
        super().__init__(message)
        self.achieved = achieved
        self.interval = interval
        self.panels = panels
