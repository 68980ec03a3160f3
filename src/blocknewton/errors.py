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


def unknown_key(key: str, allowed: list[str], where: str = "") -> ConfigError:
    """ConfigError "key: unknown key[ for <where>]; expected one of <allowed>"."""
    where = f" for {where}" if where else ""
    return ConfigError(f"{key}: unknown key{where}; expected one of {allowed}")


class NumericalBreakdownError(BlockNewtonError, ArithmeticError):
    """A numerical routine produced NaN/Inf or an impossible state."""


class TrainingDivergedError(NumericalBreakdownError):
    """Training loss became non-finite."""
