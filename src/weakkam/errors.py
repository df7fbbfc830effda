"""Exception hierarchy shared across the toolkit."""

import sys


class WeakKamError(Exception):
    """Base class for all toolkit errors."""


class ConfigError(WeakKamError):
    """Invalid configuration: unknown family, bad grid, infeasible CFL, schema violation."""

    def __init__(self, message, field=None):
        super().__init__(message)
        self.field = field


def config_number(value, field, integer=False):
    """A config entry that must be a finite JSON number (integral if ``integer``).

    Returns it as a float, or an int when ``integer``; anything else (a string,
    None, a list, a boolean, nan, inf or past the float range) is a ConfigError
    naming ``field``.
    """
    if isinstance(value, bool) or not isinstance(value, (int, float)) \
            or not abs(value) <= sys.float_info.max:
        raise ConfigError(f"{field} must be a finite number, got {value!r}", field=field)
    if integer:
        if value != int(value):
            raise ConfigError(f"{field} must be an integer, got {value!r}", field=field)
        return int(value)
    return float(value)


class IntegrationError(WeakKamError):
    """ODE state became non-finite; carries the last valid time."""

    def __init__(self, message, last_valid_time=None):
        super().__init__(message)
        self.last_valid_time = last_valid_time


class OrbitNotFoundError(WeakKamError):
    """Newton shooting failed to converge; carries the final residual."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class NumericalQualityError(WeakKamError):
    """A numerical invariant (symplecticity, estimator agreement) was violated."""


class DegenerateGraphError(WeakKamError):
    """Propagated subspace lost transversality to the vertical."""


class ConvergenceError(WeakKamError):
    """Iteration hit its sweep/period cap; carries the residual trace."""

    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = list(trace) if trace is not None else []


class CompatibilityError(WeakKamError):
    """Anchor values violate the barrier compatibility bound; names the pair."""

    def __init__(self, message, pair=None):
        super().__init__(message)
        self.pair = pair
