"""Exception types shared across the package, and the checks that raise them."""
import numbers


class RegrobustError(Exception):
    """Base class for all errors raised by this package."""


class DimensionError(RegrobustError, ValueError):
    """Array shape does not match what an operation expects."""


class NonFiniteError(RegrobustError, ValueError):
    """An input carried NaN or infinity where finite values are required."""


class ConfigError(RegrobustError, ValueError):
    """A configuration value is missing, malformed, or out of range."""


class DataError(RegrobustError, ValueError):
    """A dataset file or dataset operation is invalid."""


class TrainingDiverged(RegrobustError, RuntimeError):
    """Training produced a non-finite loss or parameters."""


class SearchFailed(RegrobustError, RuntimeError):
    """Hyperparameter search produced no usable trial.

    Carries the full trial log so callers can inspect what was attempted.
    """

    def __init__(self, message, trials):
        super().__init__(message)
        self.trials = trials


def check_count(name: str, value, minimum: int = 1) -> None:
    """Raise ConfigError, naming the field, unless value is an integer >= minimum.

    A bool or a float is rejected even when it is whole, rather than cut to an
    int; numpy integers pass.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise ConfigError(f"{name} must be >= {minimum}, got {value}")


def unique_keys(pairs) -> dict:
    """json.load's object_pairs_hook: the object as a dict, or a ConfigError
    naming a key it repeats, which would otherwise override the first."""
    doc = {}
    for key, value in pairs:
        if key in doc:
            raise ConfigError(f"key {key!r} is repeated in one object")
        doc[key] = value
    return doc
