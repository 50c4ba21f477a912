"""Exception types shared across the package."""


class DuosurvError(Exception):
    """Base class for all package-specific errors."""


class InsufficientEvents(DuosurvError):
    """Raised when a requested event count is never reached by a cohort."""


class DegenerateVariance(DuosurvError):
    """Raised when a standardized statistic is requested but its estimated
    variance is zero."""


class InvalidCorrelation(DuosurvError):
    """Raised when a correlation matrix is not symmetric positive
    semi-definite within tolerance, or an entry is not finite or outside
    [-1, 1]; also when orthant bounds do not fit their matrix or are nan."""


class NoSolution(DuosurvError):
    """Raised when an inflation-factor equation has no root in the allowed
    bracket."""


class ConfigError(DuosurvError):
    """Raised for malformed run configuration (unknown keys, bad types,
    values out of range)."""


class InvalidModel(ConfigError):
    """Raised when model, recruitment or event-target parameters are
    unusable (negative intensities, empty event hazard out of state 0, bad
    frailty shape, event targets below one, counts that are not integers);
    the model and target values raise it when they are built."""


class CutoffOrder(ConfigError):
    """Raised when a cohort reaches the final event target no later than
    the interim one, so the two analyses are out of order."""


class WorkerCrash(DuosurvError):
    """Raised when a worker process dies before returning its replications."""
