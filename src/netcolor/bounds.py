"""Closed-form convergence bounds and the envelope-dominance check.

All logarithms are natural. The guarantees here are extremely loose at
desk scale (mu is about 1e-4), so the dominance checker always reports
per-point margins rather than a bare verdict; a trivially-passing check
should look trivial.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ConfigError

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
    """Frugal convergence bounds for an n-player game."""

    mu: float
    e_t_bound: float
    var_t_bound: float
    n: int


def frugal_bounds(n: int) -> BoundReport:
    """E(T) <= (2/mu)(1 + ln n) and Var(T) <= 4n/mu^2."""
    if n < 1:
        raise ConfigError(f"n must be >= 1, got {n}")
    m = mu()
    return BoundReport(
        mu=m,
        e_t_bound=(2.0 / m) * (1.0 + math.log(n)),
        var_t_bound=4.0 * n / (m * m),
        n=n,
    )


def greedy_bound(n: int, delta: float) -> float:
    """Round budget C * log(n/delta) sufficient with probability 1 - delta."""
    if n < 1:
        raise ConfigError(f"n must be >= 1, got {n}")
    if not 0.0 < delta < 1.0:
        raise ConfigError(f"delta must be in (0, 1), got {delta}")
    return GREEDY_CONSTANT * math.log(n / delta)


@dataclass(frozen=True)
class MaxExpectationBound:
    """Bound on the mean of the max of n rate-mu exponentials."""

    a_n: float
    bound: float


def envelope_max_objective(a: float, n: int, mu_value: float) -> float:
    """h(a) = a + n exp(-mu a)/mu; its minimum over a is the max-expectation bound."""
    return a + n * math.exp(-mu_value * a) / mu_value


def max_expectation_bound(n: int, mu_value: float) -> MaxExpectationBound:
    """Minimize h: a_n = ln(n)/mu, giving E(max) <= (1 + ln n)/mu."""
    if n < 1:
        raise ConfigError(f"n must be >= 1, got {n}")
    if mu_value <= 0.0:
        raise ConfigError(f"mu must be positive, got {mu_value}")
    return MaxExpectationBound(
        a_n=math.log(n) / mu_value,
        bound=(1.0 + math.log(n)) / mu_value,
    )


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
    confidence 1 - alpha.
    """

    grid: tuple[GridPoint, ...]
    violations: int
    sample_size: int
    band: float
    mu: float
    alpha: float


def check_dominance(samples, mu_value: float, *, alpha: float = 1e-3) -> DominanceReport:
    """Check P(tau >= t) <= exp(-mu t / 2) + DKW band at every observed t.

    The left-limit survival P(tau >= t) is the right quantity to compare
    at t because the envelope is continuous there.
    """
    values = list(samples)
    if not values:
        raise ConfigError("samples must be non-empty")
    if not 0.0 < alpha < 1.0:
        raise ConfigError(f"alpha must be in (0, 1), got {alpha}")
    n = len(values)
    band = math.sqrt(math.log(2.0 / alpha) / (2.0 * n))
    values.sort()
    grid = []
    violations = 0
    i = 0
    while i < n:
        t = values[i]
        j = i
        while j < n and values[j] == t:
            j += 1
        survival = (n - i) / n  # fraction of samples >= t
        envelope = math.exp(-mu_value * t / 2.0)
        margin = envelope + band - survival
        if margin < 0.0:
            violations += 1
        grid.append(GridPoint(t, survival, envelope, margin))
        i = j
    return DominanceReport(
        grid=tuple(grid),
        violations=violations,
        sample_size=n,
        band=band,
        mu=mu_value,
        alpha=alpha,
    )
