"""Exception types shared across the package."""


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
