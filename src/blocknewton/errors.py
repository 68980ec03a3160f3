"""Exception types shared across the package."""


class BlockNewtonError(Exception):
    """Base class for all package errors."""


class DimensionError(BlockNewtonError, ValueError):
    """Shapes of inputs do not chain or match."""


class ConfigError(BlockNewtonError, ValueError):
    """Invalid configuration value (bad gamma, damping, grid, ...)."""


def check_range(name: str, value, ok: bool, expected: str) -> None:
    """Raise ConfigError "name: expected <expected>, got <value>" unless ok."""
    if not ok:
        raise ConfigError(f"{name}: expected {expected}, got {value!r}")


class NumericalBreakdownError(BlockNewtonError, ArithmeticError):
    """A numerical routine produced NaN/Inf or an impossible state."""


class TrainingDivergedError(NumericalBreakdownError):
    """Training loss became non-finite."""
