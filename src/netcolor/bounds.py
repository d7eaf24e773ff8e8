"""Closed-form convergence bounds and the envelope-dominance check.

All logarithms are natural. Every frugal bound and the envelope rest on
one rate, mu(), which the two-round happiness floor fixes; nothing here
takes it as a parameter. The guarantees are extremely loose at desk
scale (mu is about 1e-4), so the dominance checker always reports
per-point margins rather than a bare verdict; a trivially-passing check
should look trivial.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, check_int

# Per-two-round success floor for an unhappy frugal player. Its exact
# rational bracketing lives in the oracle module; the float is what the
# closed-form bounds are built from.
TWO_ROUND_FLOOR = 1.0 / (64.0 * math.exp(5.0))

# Multiplier of log(n/delta) in the greedy convergence guarantee. Exposed
# as an opaque comparison constant; nothing here claims it is sharp.
GREEDY_CONSTANT = 1050.0 * math.exp(9.0)


def mu() -> float:
    """Rate of the dominating exponential: -log(1 - 1/(2^6 e^5)), about 0.000105."""
    return -math.log1p(-TWO_ROUND_FLOOR)


@dataclass(frozen=True)
class BoundReport:
    """Frugal convergence bounds for an n-player game, all at rate mu.

    The max of n rate-mu exponentials has mean at most the minimum of
    h(a) = a + n exp(-mu a)/mu, reached at a_n = ln(n)/mu, where it is
    max_expectation_bound = (1 + ln n)/mu; e_t_bound is twice that.
    The fields are in the order `netcolor bounds` prints them.
    """

    n: int
    mu: float
    e_t_bound: float
    var_t_bound: float
    a_n: float
    max_expectation_bound: float


def frugal_bounds(n: int) -> BoundReport:
    """E(T) <= (2/mu)(1 + ln n) and Var(T) <= 4n/mu^2.

    An n whose variance bound is not a finite float (n above about 4.98e299)
    is refused.
    """
    check_int("n", n, 1)
    m = mu()
    return BoundReport(
        n=n,
        mu=m,
        e_t_bound=(2.0 / m) * (1.0 + math.log(n)),
        var_t_bound=_finite(lambda: 4.0 * n / (m * m), "4n/mu^2"),
        a_n=math.log(n) / m,
        max_expectation_bound=(1.0 + math.log(n)) / m,
    )


def greedy_bound(n: int, delta: float) -> float:
    """Round budget C * log(n/delta) sufficient with probability 1 - delta.

    An n/delta past the largest float is refused.
    """
    check_int("n", n, 1)
    if not 0.0 < delta < 1.0:
        raise ConfigError(f"delta must be in (0, 1), got {delta}")
    return GREEDY_CONSTANT * math.log(_finite(lambda: n / delta, "n/delta"))


def _finite(compute, formula: str) -> float:
    """compute(), refused with ConfigError unless it is a finite float."""
    try:
        value = compute()
    except OverflowError:  # an int n past the largest float
        value = math.inf
    if not math.isfinite(value):
        raise ConfigError(f"n is too large: {formula} is not a finite float")
    return value


@dataclass(frozen=True)
class GridPoint:
    t: float
    empirical_survival: float
    envelope_survival: float
    margin: float


@dataclass(frozen=True)
class DominanceReport:
    """Empirical survival of tau samples against exp(-mu t / 2) plus a DKW band.

    margin = envelope + band - empirical at each observed value; a
    negative margin is a violation. The band is uniform in t at
    confidence 1 - alpha, alpha being DOMINANCE_ALPHA.
    """

    grid: tuple[GridPoint, ...]
    violations: int
    sample_size: int
    band: float
    mu: float
    alpha: float


# Miss probability of the DKW band around the empirical survival.
DOMINANCE_ALPHA = 1e-3


def check_dominance(samples) -> DominanceReport:
    """Check P(tau >= t) <= exp(-mu t / 2) + DKW band at every observed t, mu = mu().

    The left-limit survival P(tau >= t) is the right quantity to compare
    at t because the envelope is continuous there. The grid is the
    distinct samples, from np.unique over the sorted samples: t's first
    index there is the count of samples below t.
    """
    values = np.sort(list(samples))
    if not values.size:
        raise ConfigError("samples must be non-empty")
    n = len(values)
    m = mu()
    band = math.sqrt(math.log(2.0 / DOMINANCE_ALPHA) / (2.0 * n))
    ts, below = np.unique(values, return_index=True)
    grid = []
    for t, i in zip(ts.tolist(), below.tolist()):
        survival = (n - i) / n  # fraction of samples >= t
        envelope = math.exp(-m * t / 2.0)
        grid.append(GridPoint(t, survival, envelope, envelope + band - survival))
    violations = sum(p.margin < 0.0 for p in grid)
    return DominanceReport(
        grid=tuple(grid),
        violations=violations,
        sample_size=n,
        band=band,
        mu=m,
        alpha=DOMINANCE_ALPHA,
    )
