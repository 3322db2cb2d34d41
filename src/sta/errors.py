"""Exception types shared across the package."""


class StaError(Exception):
    """Base class for all errors raised by this package."""


class SeriesNotConverged(StaError):
    """Power-series fallback failed to reach tolerance within the term cap."""


class NotInIdeal(StaError):
    """Value does not lie in the expected minimal left ideal."""


class InconsistentParity(StaError):
    """Even/odd decomposition does not reproduce the projected value."""


class NotEven(StaError):
    """Operand has a nonzero odd-grade part where an even one is required."""


class NotRotor(StaError):
    """Field fails the rotor condition u~ u = 1 (u~ the reverse of u)."""


class CurveOutOfChart(StaError):
    """Curve leaves the coordinate box of the chart."""


class KindMismatch(StaError):
    """Product of field kinds that has no defined result."""


class ConfigError(StaError):
    """Scenario configuration failed to parse or validate."""


class UnknownSuite(ConfigError):
    """Requested verification suite does not exist."""
