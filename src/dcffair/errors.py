"""Exception hierarchy.

Two broad families matter for the CLI exit-code contract: input problems
(bad configs, malformed trace files) map to exit code 2, analytical and
domain failures map to exit code 3. The type predicates below are shared
by the config checks that raise ConfigError.
"""

import numbers
import sys


def is_int(value) -> bool:
    """A Python or numpy integer; a bool is not an integer here."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def is_finite(value) -> bool:
    """A finite Python or numpy int or float that a float can hold."""
    return (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max)


class Error(Exception):
    """Base class for all package errors."""


class ConfigError(Error):
    """Invalid or unusable run configuration or missing input file."""


class TraceFormatError(Error):
    """A trace file or record sequence violates its schema or ordering."""


class ModelError(Error):
    """Analytical or domain failure (solver, divergence, instability)."""


class SolverError(ModelError):
    """Fixed-point solver could not bracket or reach the requested tolerance."""


class ConditioningError(ModelError):
    """Conditional distribution requested with zero tagged success mass."""


class TruncationError(ModelError):
    """Pmf truncation could not reach, or violates, the tail tolerance."""


class ConsistencyError(ModelError):
    """Closed-form and recomputed quantities disagree beyond tolerance."""


class UndefinedIndexError(ModelError):
    """Fairness index of the all-zero allocation is undefined."""


class HorizonNotFoundError(ModelError):
    """No window length satisfies the deviation bound within the scan cap."""


class DivergenceError(ModelError):
    """Moment generating function diverges at the requested parameter."""

    def __init__(self, message: str, theta_max: float):
        super().__init__(message)
        self.theta_max = theta_max


class InstabilityError(ModelError):
    """Arrival rate exceeds the guaranteed service rate."""


class EmptyClockError(ModelError):
    """The tagged station never succeeds in the given slot trace."""


class AlignmentError(ModelError):
    """Two packet-indexed series do not cover the same index range."""


class NotEnoughBacklogError(ModelError):
    """Too few backlogged inter-departure samples to form an estimate."""

    def __init__(self, message: str, busy_fraction: float):
        super().__init__(message)
        self.busy_fraction = busy_fraction
