"""Exception hierarchy shared across the pipeline."""


class NewsgeoError(Exception):
    """Base class for all pipeline errors."""


class ConfigurationError(NewsgeoError):
    """Bad or inconsistent configuration (unknown key, conflicting map rows, ...)."""


class FormatError(NewsgeoError):
    """Input stream does not look like the expected record format."""


class DataIntegrityError(NewsgeoError):
    """Input data violates an invariant (duplicate ids, out-of-range values)."""


class InsufficientDataError(NewsgeoError):
    """Too few usable observations for the requested fit."""


class SingularDesignError(NewsgeoError):
    """Rank-deficient regression design; names the dependent column."""

    def __init__(self, column: str):
        self.column = column
        super().__init__(f"design matrix is rank deficient: column {column!r} "
                         "is linearly dependent on earlier columns")


class DegenerateVariableError(NewsgeoError):
    """A variable has zero variance where variation is required."""


class UndefinedCorrelationError(NewsgeoError):
    """Correlation undefined (constant input)."""


class DependencyError(NewsgeoError):
    """A pipeline stage is missing an upstream artifact."""
