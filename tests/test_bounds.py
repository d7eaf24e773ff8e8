import dataclasses
import math
import random

import mpmath
import pytest
from hypothesis import given, strategies as st

from netcolor import (
    ConfigError,
    check_dominance,
    frugal_bounds,
    greedy_bound,
    mu,
)
from netcolor.bounds import GREEDY_CONSTANT, TWO_ROUND_FLOOR

mpmath.mp.dps = 60
MP_FLOOR = 1 / (64 * mpmath.e**5)
MP_MU = -mpmath.log(1 - MP_FLOOR)


def rel_err(value, reference) -> float:
    return float(abs(value - reference) / abs(reference))


def test_mu_prints_to_three_significant_digits():
    assert f"{mu():.3g}" == "0.000105"


def test_mu_matches_extended_precision():
    assert rel_err(mu(), MP_MU) <= 1e-12


def test_mu_inverts_the_floor():
    # the cancellation-free form of 1 - exp(-mu); the naive difference
    # only reaches ~4e-13 relative due to float subtraction
    recovered = -math.expm1(-mu())
    assert abs(recovered - TWO_ROUND_FLOOR) / TWO_ROUND_FLOOR <= 1e-15


def test_mu_exceeds_the_floor():
    assert mu() > TWO_ROUND_FLOOR


@pytest.mark.parametrize("n", [1, 2, 10, 1000, 10**6])
def test_frugal_bounds_match_extended_precision(n):
    rep = frugal_bounds(n)
    e_ref = (2 / MP_MU) * (1 + mpmath.log(n))
    v_ref = 4 * n / MP_MU**2
    assert rel_err(rep.e_t_bound, e_ref) <= 1e-12
    assert rel_err(rep.var_t_bound, v_ref) <= 1e-12
    assert rep.mu == mu()
    assert rep.n == n


def test_frugal_bounds_n1():
    rep = frugal_bounds(1)
    assert math.isclose(rep.e_t_bound, 2 / mu(), rel_tol=1e-15)
    assert math.isclose(rep.var_t_bound, 4 / mu() ** 2, rel_tol=1e-15)


def test_frugal_bounds_large_n_formula():
    rep = frugal_bounds(10**6)
    assert math.isclose(rep.e_t_bound, (2 / mu()) * (1 + 6 * math.log(10)), rel_tol=1e-12)


def test_frugal_bounds_rejects_bad_n():
    with pytest.raises(ValueError):
        frugal_bounds(0)


@given(st.integers(1, 10**9))
def test_e_t_bound_monotone(n):
    assert frugal_bounds(n + 1).e_t_bound > frugal_bounds(n).e_t_bound


def test_greedy_constant_value():
    assert rel_err(GREEDY_CONSTANT, 1050 * mpmath.e**9) <= 1e-12
    assert f"{GREEDY_CONSTANT:.4g}" == "8.508e+06"


def test_greedy_bound_log_unit():
    # n/delta = e makes the log factor exactly one
    assert math.isclose(greedy_bound(1, 1 / math.e), GREEDY_CONSTANT, rel_tol=1e-15)


def test_greedy_bound_halving_delta():
    base = greedy_bound(100, 0.1)
    assert math.isclose(greedy_bound(100, 0.05) - base, GREEDY_CONSTANT * math.log(2), rel_tol=1e-12)


@pytest.mark.parametrize("n,delta", [(10, 0.1), (1000, 0.01), (5, 0.5)])
def test_greedy_bound_matches_extended_precision(n, delta):
    ref = 1050 * mpmath.e**9 * mpmath.log(mpmath.mpf(n) / mpmath.mpf(delta))
    assert rel_err(greedy_bound(n, delta), ref) <= 1e-12


def test_bounds_refuse_an_n_past_the_largest_float():
    # 4n/mu^2 was inf at 10**300, and 4.0 * n raised OverflowError at 10**400
    for n in (10**300, 10**400):
        with pytest.raises(ConfigError, match="n is too large: 4n/mu"):
            frugal_bounds(n)
    for n, delta in ((10**400, 0.5), (10**307, 1e-3)):
        with pytest.raises(ConfigError, match="n is too large: n/delta"):
            greedy_bound(n, delta)
    big = frugal_bounds(10**299)
    assert all(math.isfinite(v) for v in dataclasses.astuple(big))
    assert math.isfinite(greedy_bound(10**299, 1e-3))


def test_greedy_bound_validation():
    with pytest.raises(ValueError):
        greedy_bound(0, 0.1)
    with pytest.raises(ValueError):
        greedy_bound(10, 0.0)
    with pytest.raises(ValueError):
        greedy_bound(10, 1.0)


def test_max_expectation_n1():
    got = frugal_bounds(1)
    assert got.a_n == 0.0
    assert math.isclose(got.max_expectation_bound, 1 / mu(), rel_tol=1e-15)


def envelope_max_objective(a: float, n: int) -> float:
    """h(a) = a + n exp(-mu a)/mu; its minimum over a is the max-expectation bound."""
    return a + n * math.exp(-mu() * a) / mu()


@given(st.integers(1, 10**6))
def test_objective_minimized_at_a_n(n):
    best = frugal_bounds(n)
    h_star = envelope_max_objective(best.a_n, n)
    assert math.isclose(h_star, best.max_expectation_bound, rel_tol=1e-12)
    for probe in (best.a_n - 1.0, best.a_n + 1.0):
        assert envelope_max_objective(probe, n) > h_star


@given(st.integers(1, 10**6))
def test_factor_two_relation(n):
    rep = frugal_bounds(n)
    assert math.isclose(2 * rep.max_expectation_bound, rep.e_t_bound, rel_tol=1e-12)


def test_dominance_all_ones():
    report = check_dominance([1] * 500)
    assert report.violations == 0
    assert report.grid[0].empirical_survival == 1.0
    assert report.grid[0].envelope_survival > 0.9999


def test_dominance_envelope_samples_pass():
    # tau drawn from the dominating law itself must sit inside the band
    rng = random.Random(12345)
    m = mu()
    samples = [math.ceil(2 * rng.expovariate(m)) for _ in range(10**4)]
    report = check_dominance(samples)
    assert report.violations == 0
    assert report.sample_size == 10**4


def test_dominance_detects_heavy_tail():
    t = 200_000
    report = check_dominance([t] * 50)
    assert report.violations == 1
    point = report.grid[0]
    assert point.empirical_survival == 1.0
    assert point.envelope_survival + report.band < 1.0
    assert point.margin < 0.0


def test_dominance_rejects_empty():
    with pytest.raises(ValueError):
        check_dominance([])


@given(st.lists(st.integers(1, 10**6), min_size=1, max_size=300))
def test_dominance_survival_steps_down(samples):
    report = check_dominance(samples)
    ts = [p.t for p in report.grid]
    assert ts == sorted(set(ts))
    surv = [p.empirical_survival for p in report.grid]
    assert all(a > b for a, b in zip(surv, surv[1:]))
    assert surv[0] == 1.0
    band = report.band
    for p in report.grid:
        assert math.isclose(p.margin, p.envelope_survival + band - p.empirical_survival)
        # samples come unsorted: the grid must count from the sorted ones
        assert p.empirical_survival == sum(x >= p.t for x in samples) / len(samples)
    assert report.violations == sum(p.margin < 0.0 for p in report.grid)
