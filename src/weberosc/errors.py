"""Exception hierarchy shared by all weberosc modules."""


class WeberOscError(Exception):
    """Base class for every error raised by this package."""


class DomainError(WeberOscError, ValueError):
    """Argument outside the supported domain of an operation."""


class PoleError(DomainError):
    """Hypergeometric lower parameter hit a pole (0, -1, -2, ...)."""


class ConvergenceError(WeberOscError):
    """A series or quadrature failed to meet its tolerance."""


class OverflowRangeError(WeberOscError, OverflowError):
    """A closed-form evaluation left the representable double range.

    Also an ``OverflowError``, as ``DomainError`` is a ``ValueError``."""

    def __init__(self, message, t=None):
        super().__init__(message)
        self.t = t


class DegenerateBasisError(WeberOscError):
    """Wronskian of the fundamental pair is numerically zero."""


class RootNotFoundError(WeberOscError):
    """Bracketing search found no sign change in its window."""


class StepUnderflowError(WeberOscError):
    """ODE integrator step size collapsed (stiffness or blow-up)."""

    def __init__(self, message, t_last=None):
        super().__init__(message)
        self.t_last = t_last


class ConfigError(WeberOscError, ValueError):
    """Invalid physical configuration or run configuration."""
