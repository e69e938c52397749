"""Shared exception types."""


class DomainError(ValueError):
    """Argument outside the mathematical domain of an operation."""


class UnsupportedDimensionError(ValueError):
    """Operation implemented only for a specific dimension."""


class ResolutionError(ValueError):
    """Grid too coarse to resolve the requested feature scale."""


class DiscretizationError(ArithmeticError):
    """A discrete quantity violated a property the continuum guarantees."""


class NonFiniteSampleError(ValueError):
    """NaN or infinity in sampled data."""


class FeasibilityError(RuntimeError):
    """No feasible starting point found for a constrained minimization."""


class ConfigError(ValueError):
    """Invalid experiment configuration."""
