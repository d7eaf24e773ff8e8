import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import netcolor.oracle as oracle
from netcolor import (
    ColoringState,
    ContractViolation,
    EnumerationLimitError,
    GameConfig,
    Strategy,
    available_size_distribution,
    complete_graph,
    cycle_graph,
    exact_expected_tau,
    from_edge_list,
    one_round_distribution,
    partition_neighbors,
    path_graph,
    star_graph,
    two_round_floor_holds,
    two_round_happiness_prob,
)
from netcolor.verification import CORPUS, conflicted_colorings

TRIANGLE = complete_graph(3)
S001 = ColoringState((0, 0, 1), 1)


def test_partition_triangle():
    part = partition_neighbors(TRIANGLE, S001, 0)
    assert part.happy == frozenset({2})
    assert part.frozen_colors == frozenset({1})
    assert part.f == 1
    assert part.unhappy_same == frozenset({1})
    assert part.unhappy_diff == frozenset()


def test_partition_rainbow():
    part = partition_neighbors(TRIANGLE, ColoringState((0, 1, 2), 1), 0)
    assert part.happy == frozenset({1, 2})
    assert part.unhappy_same == frozenset()
    assert part.unhappy_diff == frozenset()
    assert part.f == 2


def test_partition_path_all_same():
    part = partition_neighbors(path_graph(3), ColoringState((0, 0, 0), 1), 1)
    assert part.happy == frozenset()
    assert part.f == 0
    assert part.unhappy_same == frozenset({0, 2})
    assert part.unhappy_diff == frozenset()


def test_one_round_edgeless_point_mass():
    g = from_edge_list([], 3)
    d = one_round_distribution(g, S001, Strategy.FRUGAL, 3)
    assert d.exact
    assert d.support == ((ColoringState((0, 0, 1), 2), Fraction(1)),)


def test_one_round_frugal_triangle_uniform():
    d = one_round_distribution(TRIANGLE, S001, Strategy.FRUGAL, 3)
    assert d.exact
    law = {out.colors: p for out, p in d.support}
    assert law == {
        (0, 0, 1): Fraction(1, 4),
        (0, 2, 1): Fraction(1, 4),
        (2, 0, 1): Fraction(1, 4),
        (2, 2, 1): Fraction(1, 4),
    }
    assert all(out.round == 2 for out, _ in d.support)


def test_one_round_greedy_triangle_point_mass():
    d = one_round_distribution(TRIANGLE, S001, Strategy.GREEDY, 3)
    assert d.support == ((ColoringState((2, 2, 1), 2), Fraction(1)),)


def test_one_round_cap_reports_product():
    g = complete_graph(10)
    s = ColoringState((0,) * 10, 1)
    with pytest.raises(EnumerationLimitError, match=str(11**10)):
        one_round_distribution(g, s, Strategy.FRUGAL, 11)


def test_one_round_float_mode_sums_to_one():
    g = complete_graph(6)
    s = ColoringState((0,) * 6, 1)
    d = one_round_distribution(g, s, Strategy.FRUGAL, 7)
    assert not d.exact
    assert len(d.support) == 7**6
    assert abs(d.total() - 1.0) <= 1e-12


@settings(deadline=None, max_examples=50)
@given(st.integers(2, 4), st.integers(0, 3**4 - 1))
def test_one_round_total_is_exactly_one(k, code):
    g = cycle_graph(4)
    colors = tuple((code // 3**v) % 3 % k for v in range(4))
    d = one_round_distribution(g, ColoringState(colors, 1), Strategy.FRUGAL, k)
    assert d.exact
    assert d.total() == 1


def test_available_size_frugal_triangle():
    res = available_size_distribution(TRIANGLE, S001, 0, Strategy.FRUGAL, 3)
    assert res.distribution.as_dict() == {1: Fraction(1, 2), 2: Fraction(1, 2)}
    assert res.f == 1
    assert res.threshold == Fraction(2, 5)
    assert res.prob_at_least == 1
    assert res.floor == Fraction(1, 16)
    assert res.holds


def test_available_size_greedy_triangle():
    res = available_size_distribution(TRIANGLE, S001, 0, Strategy.GREEDY, 4)
    assert res.distribution.as_dict() == {2: Fraction(1, 2), 3: Fraction(1, 2)}
    assert res.threshold == Fraction(3, 5)
    assert res.prob_at_least == 1


def test_available_size_forced_neighbors_point_mass():
    # greedy pools are singletons here, so the next-round size is deterministic
    res = available_size_distribution(TRIANGLE, S001, 0, Strategy.GREEDY, 3)
    assert res.distribution.as_dict() == {2: Fraction(1)}
    assert res.holds


def test_available_size_rejects_happy_vertex():
    with pytest.raises(ContractViolation, match="happy"):
        available_size_distribution(TRIANGLE, S001, 2, Strategy.FRUGAL, 3)


def test_two_round_triangle_exact():
    p = two_round_happiness_prob(TRIANGLE, S001, 0, Strategy.FRUGAL, 3)
    assert p == Fraction(3, 4)


def test_two_round_happy_vertex_is_certain():
    assert two_round_happiness_prob(TRIANGLE, S001, 2, Strategy.FRUGAL, 3) == 1


@pytest.mark.parametrize(
    "g,k,colors",
    [
        (TRIANGLE, 3, (0, 0, 1)),
        (TRIANGLE, 3, (1, 1, 1)),
        (path_graph(3), 2, (0, 0, 0)),
        (path_graph(3), 3, (2, 2, 0)),
        (cycle_graph(4), 3, (0, 0, 1, 1)),
        (complete_graph(4), 4, (3, 3, 3, 3)),
    ],
)
def test_two_round_shortcut_consistency(g, k, colors):
    s = ColoringState(colors, 1)
    for v in range(g.n):
        if not any(colors[u] == colors[v] for u in g.neighbors(v)):
            continue
        fast = two_round_happiness_prob(g, s, v, Strategy.FRUGAL, k, shortcut=True)
        slow = two_round_happiness_prob(g, s, v, Strategy.FRUGAL, k, shortcut=False)
        assert fast == slow


def test_two_round_cache_is_shareable():
    cache = {}
    a = two_round_happiness_prob(TRIANGLE, S001, 0, Strategy.FRUGAL, 3, cache=cache)
    assert cache
    b = two_round_happiness_prob(TRIANGLE, S001, 0, Strategy.FRUGAL, 3, cache=cache)
    assert a == b == Fraction(3, 4)


def test_available_size_memo_checks_happiness_before_the_cache():
    cache = {}
    res = available_size_distribution(TRIANGLE, S001, 0, Strategy.FRUGAL, 3, cache=cache)
    renamed = ColoringState((2, 2, 0), 1)
    assert available_size_distribution(TRIANGLE, renamed, 0, Strategy.FRUGAL, 3, cache=cache) is res

    class Answers(dict):
        """A cache that holds an answer for every key."""

        def get(self, key, default=None):
            return res

    with pytest.raises(ContractViolation, match="happy"):
        available_size_distribution(TRIANGLE, S001, 2, Strategy.FRUGAL, 3, cache=Answers())


MEMO_INSTANCES = [(inst.name, inst.graph, inst.k) for inst in CORPUS] + [
    ("complete4_k4", complete_graph(4), 4),
    ("star5_k5", star_graph(5), 5),
]


@pytest.mark.parametrize("shortcut", [True, False])
@pytest.mark.parametrize("name,g,k", MEMO_INSTANCES, ids=[m[0] for m in MEMO_INSTANCES])
def test_two_round_memo_matches_uncached(name, g, k, shortcut):
    cache = {}
    cases = 0
    for colors in conflicted_colorings(g, k):
        s = ColoringState(colors, 1)
        for v in range(g.n):
            if not any(colors[u] == colors[v] for u in g.neighbors(v)):
                continue
            shared = two_round_happiness_prob(
                g, s, v, Strategy.FRUGAL, k, shortcut=shortcut, cache=cache
            )
            alone = two_round_happiness_prob(g, s, v, Strategy.FRUGAL, k, shortcut=shortcut)
            assert isinstance(shared, Fraction) and shared == alone, (colors, v)
            cases += 1
    assert sum(1 for key in cache if key[0] == "two_round") < cases


FLOOR_INSTANCES = [
    (TRIANGLE, 3, Strategy.FRUGAL),
    (TRIANGLE, 4, Strategy.GREEDY),
    (cycle_graph(4), 3, Strategy.FRUGAL),
    (cycle_graph(4), 4, Strategy.GREEDY),
    (path_graph(3), 3, Strategy.FRUGAL),
    (star_graph(5), 5, Strategy.FRUGAL),
]


@settings(deadline=None, max_examples=60)
@given(st.data())
def test_floor_probabilities_do_not_depend_on_color_names(data):
    g, k, strategy = data.draw(st.sampled_from(FLOOR_INSTANCES))
    colors = tuple(data.draw(st.lists(st.integers(0, k - 1), min_size=g.n, max_size=g.n)))
    rename = data.draw(st.permutations(range(k)))
    renamed = tuple(rename[c] for c in colors)
    s, t = ColoringState(colors, 1), ColoringState(renamed, 1)
    cache = {}
    for v in range(g.n):
        if not any(colors[u] == colors[v] for u in g.neighbors(v)):
            with pytest.raises(ContractViolation, match="happy"):
                available_size_distribution(g, s, v, strategy, k, cache=cache)
            continue
        a = available_size_distribution(g, s, v, strategy, k)
        b = available_size_distribution(g, t, v, strategy, k)
        assert a.distribution == b.distribution and a.prob_at_least == b.prob_at_least
        # the renamed coloring hits the entry of the first
        assert available_size_distribution(g, s, v, strategy, k, cache=cache) == a
        assert available_size_distribution(g, t, v, strategy, k, cache=cache) == b
        assert two_round_happiness_prob(g, s, v, strategy, k) == two_round_happiness_prob(
            g, t, v, strategy, k
        )


def test_two_round_memo_respects_a_smaller_cap(monkeypatch):
    # v = 0 of cycle4 at (0, 0, 1, 1), k = 3: the round-one joint support has
    # 16 outcomes and the largest round-two support 27
    g, s = cycle_graph(4), ColoringState((0, 0, 1, 1), 1)
    monkeypatch.setattr(oracle, "ENUMERATION_CAP", 16)
    cache = {}
    # an empty cache, then the same one holding what the refused call memoized
    for _ in range(2):
        with pytest.raises(EnumerationLimitError, match="round-two joint support 27"):
            two_round_happiness_prob(g, s, 0, Strategy.FRUGAL, 3, cache=cache)
    monkeypatch.setattr(oracle, "ENUMERATION_CAP", 15)
    with pytest.raises(EnumerationLimitError, match="round-one joint support 16"):
        two_round_happiness_prob(g, s, 0, Strategy.FRUGAL, 3, cache=cache)


def test_oracle_refuses_palettes_above_the_enumeration_cap(monkeypatch):
    with monkeypatch.context() as m:
        m.setattr(oracle, "ENUMERATION_CAP", 3)
        # one outcome at k = 3, so only the palette can break the cap
        assert one_round_distribution(TRIANGLE, S001, Strategy.GREEDY, 3).exact
        with pytest.raises(EnumerationLimitError, match="k = 4 "):
            one_round_distribution(TRIANGLE, S001, Strategy.GREEDY, 4)
    k = 2**32 - 1
    with pytest.raises(EnumerationLimitError, match=f"k = {k} "):
        one_round_distribution(TRIANGLE, ColoringState((0, 0, 0), 1), Strategy.FRUGAL, k)


def test_two_round_floor_comparison():
    assert two_round_floor_holds(Fraction(1, 16))
    assert not two_round_floor_holds(Fraction(1, 10**5))
    mid = (oracle.TWO_ROUND_FLOOR_LO + oracle.TWO_ROUND_FLOOR_HI) / 2
    with pytest.raises(ContractViolation, match="bracketing"):
        two_round_floor_holds(mid)
    assert two_round_floor_holds(0.5)


def test_two_round_floor_interval_brackets_the_constant():
    import mpmath

    mpmath.mp.dps = 50
    exact = 1 / (64 * mpmath.e**5)
    lo = mpmath.mpf(oracle.TWO_ROUND_FLOOR_LO.numerator) / oracle.TWO_ROUND_FLOOR_LO.denominator
    hi = mpmath.mpf(oracle.TWO_ROUND_FLOOR_HI.numerator) / oracle.TWO_ROUND_FLOOR_HI.denominator
    assert lo < exact < hi


def test_expected_tau_edgeless():
    g = from_edge_list([], 2)
    res = exact_expected_tau(g, GameConfig(k=1, strategy=Strategy.FRUGAL, seed=0))
    assert res.expected == 1.0
    assert res.reachable_states == 1
    assert res.trapped_states == 0


def test_expected_tau_single_edge_frugal():
    g = path_graph(2)
    res = exact_expected_tau(g, GameConfig(k=2, strategy=Strategy.FRUGAL, seed=0))
    assert abs(res.expected - 2.0) <= 1e-10
    assert res.reachable_states == 4
    assert res.trapped_states == 0


def test_expected_tau_from_given_start():
    g = path_graph(2)
    cfg = GameConfig(k=2, strategy=Strategy.FRUGAL, seed=0, initial=(0, 0))
    res = exact_expected_tau(g, cfg)
    assert abs(res.expected - 3.0) <= 1e-10


def test_expected_tau_triangle_frugal():
    res = exact_expected_tau(TRIANGLE, GameConfig(k=3, strategy=Strategy.FRUGAL, seed=0))
    assert abs(res.expected - 21 / 8) <= 1e-9
    assert res.reachable_states == 27


def test_expected_tau_greedy_trap_from_state():
    cfg = GameConfig(
        k=3, strategy=Strategy.GREEDY, seed=0, enforce_k_bound=False, initial=(0, 0, 1)
    )
    res = exact_expected_tau(TRIANGLE, cfg)
    assert res.expected == math.inf
    assert res.reachable_states == 2
    assert res.trapped_states == 2


def test_expected_tau_greedy_single_edge_trap():
    g = path_graph(2)
    cfg = GameConfig(k=2, strategy=Strategy.GREEDY, seed=0, enforce_k_bound=False)
    res = exact_expected_tau(g, cfg)
    assert res.expected == math.inf
    assert res.trapped_states == 2


def test_expected_tau_state_cap():
    g = path_graph(2)
    cfg = GameConfig(k=400, strategy=Strategy.FRUGAL, seed=0)
    with pytest.raises(EnumerationLimitError, match="160000"):
        exact_expected_tau(g, cfg)


def test_expected_tau_sparse_solve_pins():
    # 1995 and 2061 transient states: the two chains the benchmark solves
    for g, want in ((path_graph(7), 2.900177909149061), (cycle_graph(7), 3.142665499803556)):
        res = exact_expected_tau(g, GameConfig(k=3, strategy=Strategy.FRUGAL, seed=0))
        assert (res.reachable_states, res.trapped_states) == (3**7, 0)
        assert abs(res.expected - want) <= 1e-9


def test_expected_tau_residual_check_can_fail(monkeypatch):
    import scipy.sparse.linalg

    real = scipy.sparse.linalg.spsolve
    cfg = GameConfig(k=3, strategy=Strategy.FRUGAL, seed=0)

    def perturbed(by):
        def solve(a, b):
            x = real(a, b)
            x[0] += by
            return x

        return solve

    monkeypatch.setattr(scipy.sparse.linalg, "spsolve", perturbed(1e-12))
    assert abs(exact_expected_tau(TRIANGLE, cfg).expected - 21 / 8) <= 1e-9
    monkeypatch.setattr(scipy.sparse.linalg, "spsolve", perturbed(1e-6))
    with pytest.raises(ContractViolation, match="residual"):
        exact_expected_tau(TRIANGLE, cfg)


def test_expected_tau_matches_simulation_mean():
    from netcolor import run

    g = path_graph(2)
    cfg_proto = GameConfig(k=2, strategy=Strategy.FRUGAL, seed=0)
    exact = exact_expected_tau(g, cfg_proto).expected
    n = 4000
    taus = []
    for i in range(n):
        r = run(g, GameConfig(k=2, strategy=Strategy.FRUGAL, seed=1000 + i), retention="counts")
        assert r.tau is not None
        taus.append(r.tau)
    mean = sum(taus) / n
    var = sum((t - mean) ** 2 for t in taus) / (n - 1)
    se = (var / n) ** 0.5
    assert abs(mean - exact) <= 3 * se
