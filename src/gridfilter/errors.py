"""The library's exception classes, one per failure mode."""

__all__ = ["GridFilterError", "ModelDefinitionError", "AssumptionViolationError",
           "DomainError", "ChainConstructionError", "DegenerateUpdateError",
           "BudgetExceededError", "ConfigError"]


class GridFilterError(Exception):
    """Base class for all library errors."""


class ModelDefinitionError(GridFilterError, ValueError):
    """A model or callback output that is inconsistent."""


class AssumptionViolationError(GridFilterError, ValueError):
    """A declared regularity constant is contradicted by probed evaluations."""


class DomainError(GridFilterError, ValueError):
    """An input outside what the library accepts, such as a point outside
    the box or a non-finite observation."""


class ChainConstructionError(GridFilterError, ValueError):
    """Quantized-chain construction produced an invalid row."""


class DegenerateUpdateError(GridFilterError, RuntimeError):
    """All filter weights vanished in a correction step."""


class BudgetExceededError(GridFilterError, ValueError):
    """A brute-force oracle was asked for more work than its stated budget."""


class ConfigError(GridFilterError, ValueError):
    """Run configuration is missing a field or holds an unusable value."""
