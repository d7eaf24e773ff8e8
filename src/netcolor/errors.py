"""Exception types shared across the package, and the enumeration cap."""

# Largest enumeration the package builds in one piece: a joint support of
# the oracle, or a palette listed over range(k) by the engine's
# available_set(). The engine's step() refuses the same palettes.
ENUMERATION_CAP = 10**7


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
    vertex handed to a redraw routine.
    """


class EnumerationLimitError(NetcolorError):
    """Raised when an exact computation would exceed its enumeration cap.

    The message reports the offending size so callers can decide whether
    to raise the cap or switch to Monte Carlo estimation.
    """
