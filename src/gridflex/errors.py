"""Exception hierarchy shared across the package."""


class GridflexError(Exception):
    """Base class for all package errors."""


class InvalidSpecError(GridflexError):
    """A configuration or size parameter violates its contract."""


class ValidationError(GridflexError):
    """Ingested data failed a value-level check, at population `row` if known."""

    def __init__(self, message: str, row: int | None = None):
        super().__init__(message)
        self.row = row


class ReferentialIntegrityError(GridflexError):
    """Joined records reference ids that do not resolve."""


class DomainError(GridflexError):
    """A numeric argument is outside the mathematical domain of an operation."""


class CoverageError(GridflexError):
    """A load series does not span the billing cycle it is charged over."""


class ContractViolation(GridflexError):
    """Caller broke an explicit precondition (e.g. mutated a protected day)."""


class UndefinedMetricError(GridflexError):
    """A ratio metric was requested over an empty or zero denominator."""


class DegeneratePopulationError(GridflexError):
    """An aggregate requires a non-empty / non-zero population slice."""


class InsufficientPopulationError(GridflexError):
    """Too few households for the requested statistic."""


class InfeasibleAllocationError(GridflexError):
    """No subset of households can cover the requested shortfall."""

    def __init__(self, message: str, day: int | None = None):
        super().__init__(message)
        self.day = day


class ShapeError(GridflexError):
    """Tensor/matrix dimensions are inconsistent."""


class NumericalError(GridflexError):
    """Non-finite values or solver failure during numeric work."""


class DegenerateClusteringError(GridflexError):
    """Clustering could not produce the required non-empty clusters."""


class DegenerateSupervisionError(GridflexError):
    """Semi-supervised training needs at least one label per class."""
