"""Exception types raised by the library.

Every scientific failure mode gets its own class so callers (and the CLI exit
code logic) can tell configuration mistakes apart from violated model
assumptions or numerical degeneracy.
"""


class GridFilterError(Exception):
    """Base class for all library errors."""


class ModelDefinitionError(GridFilterError, ValueError):
    """A model callback returned something inconsistent (shape, symmetry,
    positive definiteness, state outside the box)."""


class AssumptionViolationError(GridFilterError, ValueError):
    """A declared regularity constant is contradicted by probed evaluations."""


class DomainError(GridFilterError, ValueError):
    """An input outside what the library accepts: a point outside the
    state-space box, weights of the wrong length, malformed or non-finite
    observations, or a chain or workspace built for another box, model or
    point set."""


class ChainConstructionError(GridFilterError, ValueError):
    """Quantized-chain construction produced an invalid row."""


class DegenerateUpdateError(GridFilterError, RuntimeError):
    """All filter weights vanished in a correction step."""


class BudgetExceededError(GridFilterError, ValueError):
    """A brute-force oracle was asked for more work than its stated budget."""


class ConfigError(GridFilterError, ValueError):
    """Run configuration is missing a field or holds an unusable value."""
