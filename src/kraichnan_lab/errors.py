"""Exception types shared across the library."""


class KraichnanLabError(Exception):
    """Base class for all library errors."""


class DomainError(KraichnanLabError, ValueError):
    """Argument outside the mathematical domain of an operation."""


class PoleError(DomainError):
    """Evaluation requested at (or within tolerance of) a pole."""


class HigherOrderPole(KraichnanLabError):
    """Residue requested at a pole of order > 1."""


class ToleranceNotReached(KraichnanLabError):
    """Quadrature finished without certifying the requested tolerance; the
    message states the best value and its error estimate."""


class NonFiniteIntegrand(KraichnanLabError):
    """A quadrature value came out NaN or inf (the integrand did somewhere)."""


class CaseOutOfRange(DomainError):
    """Parameter combination outside the case split an operation implements."""


class StabilityViolation(KraichnanLabError):
    """Explicit time step too large for the kernel's loss rates."""


class NegativityError(KraichnanLabError):
    """Spectrum went negative beyond the allowed round-off band."""


class InvalidSampleRate(KraichnanLabError):
    """Too many Monte Carlo samples overflowed to be trustworthy."""


class ConfigError(KraichnanLabError):
    """Experiment configuration failed schema or range validation."""


class ComputeError(KraichnanLabError):
    """An experiment failed during computation (not a config problem)."""


class TruncationWarning(UserWarning):
    """Spectral mass reached the truncated grid boundary; full-space
    comparisons are no longer valid past this time."""
