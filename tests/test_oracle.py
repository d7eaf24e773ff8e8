import itertools
import math
from fractions import Fraction

import numpy as np

import pytest
from hypothesis import given, settings, strategies as st

import netcolor.oracle as oracle
from netcolor import (
    ColoringState,
    ConfigError,
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
    path_graph,
    star_graph,
    two_round_floor_holds,
    two_round_happiness_prob,
)
from netcolor.verification import CORPUS, conflicted_colorings

TRIANGLE = complete_graph(3)
S001 = ColoringState((0, 0, 1), 1)


def test_partition_triangle():
    # neighbor 2 is happy and holds color 1; neighbor 1 moves
    res = available_size_distribution(TRIANGLE, S001, 0, Strategy.FRUGAL, 3)
    assert res.f == 1


def test_partition_path_all_same():
    # both neighbors of the middle vertex move
    s = ColoringState((0, 0, 0), 1)
    res = available_size_distribution(path_graph(3), s, 1, Strategy.FRUGAL, 3)
    assert res.f == 0


def test_one_round_edgeless_point_mass():
    g = from_edge_list([], 3)
    d = one_round_distribution(g, S001, Strategy.FRUGAL, 3)
    assert d.support == ((ColoringState((0, 0, 1), 2), Fraction(1)),)


def test_one_round_frugal_triangle_uniform():
    d = one_round_distribution(TRIANGLE, S001, Strategy.FRUGAL, 3)
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


def test_one_round_large_support_sums_to_exactly_one():
    g = complete_graph(6)
    s = ColoringState((0,) * 6, 1)
    d = one_round_distribution(g, s, Strategy.FRUGAL, 7)
    assert len(d.support) == 7**6
    total = d.total()
    assert isinstance(total, Fraction) and total == 1


@settings(deadline=None, max_examples=50)
@given(st.integers(2, 4), st.integers(0, 3**4 - 1))
def test_one_round_total_is_exactly_one(k, code):
    g = cycle_graph(4)
    colors = tuple((code // 3**v) % 3 % k for v in range(4))
    d = one_round_distribution(g, ColoringState(colors, 1), Strategy.FRUGAL, k)
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


@pytest.mark.parametrize("shortcut", [True, False])
def test_two_round_is_exact_past_ten_thousand_draws(shortcut):
    # 7^5 = 16807 round-one joint draws
    s = ColoringState((0,) * 5, 1)
    p = two_round_happiness_prob(star_graph(5), s, 0, Strategy.FRUGAL, 7, shortcut=shortcut)
    assert p == Fraction(5308416, 5764801)


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


@pytest.mark.parametrize(
    "colors,v,message",
    [
        ((0, 0, 5), 0, "color 5 at vertex 2 outside"),
        ((0, 0, -1), 0, "color -1 at vertex 2 outside"),
        ((0, 0, 1, 1), 0, "4 entries for n=3"),
        ((0, 0), 0, "2 entries for n=3"),
        ((0, 0, 1), 3, "vertex 3 outside"),
        ((0, 0, 1), -1, "vertex -1 outside"),
        # 1.5 lies in [0, 3): it was read as a fourth color, for 8/9
        ((0, 0, 1.5), 0, "color 1.5 at vertex 2 is not an integer"),
    ],
)
def test_oracle_refuses_what_is_not_a_state_of_the_game(monkeypatch, colors, v, message):
    """Refused before any cache lookup, happiness shortcut or enumeration."""

    def reached(*args, **kwargs):
        raise AssertionError("the oracle went past its input check")

    class Reached(dict):
        get = reached

    monkeypatch.setattr(oracle, "_is_unhappy", reached)
    monkeypatch.setattr(oracle, "_joint_draws", reached)
    s = ColoringState(colors, 1)
    with pytest.raises(ConfigError, match=message):
        available_size_distribution(TRIANGLE, s, v, Strategy.FRUGAL, 3, cache=Reached())
    with pytest.raises(ConfigError, match=message):
        two_round_happiness_prob(TRIANGLE, s, v, Strategy.FRUGAL, 3, cache=Reached())
    if 0 <= v < 3:  # the one-round law takes no vertex
        with pytest.raises(ConfigError, match=message):
            one_round_distribution(TRIANGLE, s, Strategy.FRUGAL, 3)


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


def brute_size_law(g, s, v, strategy, k):
    """The size law by listing every joint draw of v's closed neighborhood.

    The enumeration available_size_distribution used before its dynamic
    program; kept as the reference the program must reproduce exactly.
    """
    colors = s.colors
    nbrs = g.neighbors(v)
    movers = sorted(u for u in set(nbrs) | {v} if oracle._is_unhappy(g, colors, u))
    avails, size = oracle._joint_draws(g, colors, movers, strategy, k, "joint support")
    pos = {u: i for i, u in enumerate(movers)}
    own_at = pos[v]
    moving = [pos[u] for u in nbrs if u in pos]
    # the colors of the happy neighbors, which stay put
    fixed = {colors[u] for u in nbrs if u not in pos}
    counts: dict[int, int] = {}
    for draws in itertools.product(*avails):
        c_new = fixed.union([draws[i] for i in moving])
        a_size = k - len(c_new) + (draws[own_at] in c_new)
        counts[a_size] = counts.get(a_size, 0) + 1
    f = len(fixed)
    threshold = Fraction(k - f, 5)
    prob = Fraction(sum(c for sz, c in counts.items() if sz >= threshold), size)
    return oracle.AvailableSizeCheck(
        distribution=oracle.Distribution(
            support=tuple((sz, Fraction(c, size)) for sz, c in sorted(counts.items())),
        ),
        threshold=threshold,
        prob_at_least=prob,
        floor=oracle.AVAILABLE_SIZE_FLOOR,
        f=f,
        holds=prob >= oracle.AVAILABLE_SIZE_FLOOR,
    )


def size_law_or_refusal(law, *args):
    try:
        return law(*args)
    except ContractViolation as exc:
        # greedy at k <= max degree: a mover whose neighbors hold every color
        assert "empty available set" in str(exc)
        return str(exc)


def assert_size_law_matches_brute_force(g, colors, strategy, k) -> int:
    """Compare at every unhappy vertex of colors; returns how many were compared."""
    s = ColoringState(tuple(colors), 1)
    compared = 0
    for v in range(g.n):
        if any(colors[u] == colors[v] for u in g.neighbors(v)):
            want = size_law_or_refusal(brute_size_law, g, s, v, strategy, k)
            got = size_law_or_refusal(available_size_distribution, g, s, v, strategy, k)
            assert got == want, (colors, v)
            compared += 1
    return compared


@pytest.mark.parametrize("strategy", list(Strategy))
@pytest.mark.parametrize("name,g,k", MEMO_INSTANCES, ids=[m[0] for m in MEMO_INSTANCES])
def test_size_law_matches_brute_force_on_every_corpus_case(name, g, k, strategy):
    compared = sum(
        assert_size_law_matches_brute_force(g, colors, strategy, k)
        for colors in conflicted_colorings(g, k)
    )
    assert compared > 0


@st.composite
def small_colored_graphs(draw):
    n = draw(st.integers(2, 6))
    pairs = list(itertools.combinations(range(n), 2))
    edges = draw(st.lists(st.sampled_from(pairs), min_size=1, unique=True))
    k = draw(st.integers(2, 4))
    colors = draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n))
    return from_edge_list(edges, n), colors, k


@settings(deadline=None, max_examples=150)
@given(small_colored_graphs(), st.sampled_from(list(Strategy)))
def test_size_law_matches_brute_force_on_small_graphs(case, strategy):
    g, colors, k = case
    assert_size_law_matches_brute_force(g, colors, strategy, k)


@pytest.mark.parametrize("strategy,k", [(Strategy.FRUGAL, 11), (Strategy.GREEDY, 12)])
def test_size_law_matches_brute_force_past_the_exact_support_cap(strategy, k):
    # every vertex of K4 moves with 11 options: 14641 joint draws, and the
    # probabilities stay exact
    g, colors = complete_graph(4), (0, 0, 0, 0)
    res = available_size_distribution(g, ColoringState(colors, 1), 0, strategy, k)
    assert isinstance(res.prob_at_least, Fraction)
    assert assert_size_law_matches_brute_force(g, colors, strategy, k) == 4


def test_size_law_is_exact_on_the_star6_center():
    # 6^6 = 46656 joint draws; the threshold 6/5 exceeds 1 and the tail
    # is below 1, so the tail is not trivially 0 or 1
    s = ColoringState((0,) * 6, 1)
    res = available_size_distribution(star_graph(6), s, 0, Strategy.FRUGAL, 6)
    assert res.threshold == Fraction(6, 5)
    assert res.prob_at_least == Fraction(319, 324)


def test_size_law_refuses_a_support_too_long_to_print():
    # 2000 movers with 2000 options each: the joint support has 6602 digits
    g = star_graph(2000)
    s = ColoringState((0,) * 2000, 1)
    with pytest.raises(EnumerationLimitError, match=r"joint support ~10\^6602\.1 exceeds"):
        available_size_distribution(g, s, 0, Strategy.FRUGAL, 2000)


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
        assert one_round_distribution(TRIANGLE, S001, Strategy.GREEDY, 3).total() == 1
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


def test_two_round_floor_refuses_a_double_below_the_bracket():
    # the double nearest the upper bracket end lies below the lower one
    below = float(oracle.TWO_ROUND_FLOOR_HI)
    assert below == 0.00010528042186071042 and below < oracle.TWO_ROUND_FLOOR_LO
    assert two_round_floor_holds(below) is False


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
    for g, want in ((path_graph(7), 2.900177909149061), (cycle_graph(7), 3.142665499851203)):
        res = exact_expected_tau(g, GameConfig(k=3, strategy=Strategy.FRUGAL, seed=0))
        assert (res.reachable_states, res.trapped_states) == (3**7, 0)
        assert abs(res.expected - want) <= 1e-12


def test_expected_tau_residual_check_can_fail(monkeypatch):
    import scipy.sparse.linalg

    real = scipy.sparse.linalg.spsolve
    cfg = GameConfig(k=3, strategy=Strategy.FRUGAL, seed=0)

    def perturbed(by):
        def solve(a, b, **options):
            x = real(a, b, **options)
            x[0] += by
            return x

        return solve

    monkeypatch.setattr(scipy.sparse.linalg, "spsolve", perturbed(1e-12))
    assert abs(exact_expected_tau(TRIANGLE, cfg).expected - 21 / 8) <= 1e-9
    monkeypatch.setattr(scipy.sparse.linalg, "spsolve", perturbed(1e-6))
    with pytest.raises(ContractViolation, match="residual"):
        exact_expected_tau(TRIANGLE, cfg)


def test_expected_tau_refuses_a_transition_that_lowers_happiness(monkeypatch):
    real = oracle._successor_codes
    cfg = GameConfig(k=3, strategy=Strategy.FRUGAL, seed=0, initial=(0, 0, 1))
    assert exact_expected_tau(path_graph(3), cfg).trapped_states == 0

    def corrupted(*args):
        codes = real(*args)
        codes[0] = 0  # (0, 0, 0): nobody is happy
        return codes

    # the first move from (0, 0, 1), in which vertex 2 is happy
    monkeypatch.setattr(oracle, "_successor_codes", corrupted)
    with pytest.raises(ContractViolation, match=r"\(0, 0, 1\) -> \(0, 0, 0\) lowers the happy count"):
        exact_expected_tau(path_graph(3), cfg)


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


def expected_tau_by_dfs(g, cfg):
    """The absorbing chain built state by state in Python.

    The construction exact_expected_tau used before its numpy build: a
    depth-first search over the reachable colorings, a reverse walk from
    the proper ones and the same sparse solve. Kept as the reference the
    numpy build must reproduce.
    """
    from scipy.sparse import csr_array
    from scipy.sparse.linalg import spsolve

    n, k = g.n, cfg.k
    if cfg.initial is not None:
        init = [(tuple(cfg.initial), 1.0)]
    else:
        w = 1.0 / k**n
        init = [(c, w) for c in itertools.product(range(k), repeat=n)]
    transitions, absorbing, rev = {}, set(), {}
    stack = [c for c, _ in init]
    seen = set(stack)
    while stack:
        state = stack.pop()
        movers = oracle._unhappy_list(g, state)
        if not movers:
            absorbing.add(state)
            continue
        options, size = oracle._next_colorings(g, state, movers, cfg.strategy, k, "transition fan-out")
        succ = list(itertools.product(*options))
        transitions[state] = (succ, 1.0 / size)
        for t in succ:
            rev.setdefault(t, []).append(state)
            if t not in seen:
                seen.add(t)
                stack.append(t)
    co = set(absorbing)
    frontier = list(absorbing)
    while frontier:
        for s_prev in rev.get(frontier.pop(), ()):
            if s_prev not in co:
                co.add(s_prev)
                frontier.append(s_prev)
    trapped = len(seen) - len(co)
    if trapped:
        return oracle.ExpectedTau(math.inf, len(seen), trapped)
    transient = sorted(transitions)
    index = {state: i for i, state in enumerate(transient)}
    m = len(transient)
    if m == 0:
        return oracle.ExpectedTau(1.0, len(seen), 0)
    rows, cols, vals = list(range(m)), list(range(m)), [1.0] * m
    for state, (succ, p) in transitions.items():
        for t in succ:
            if t in index:
                rows.append(index[state])
                cols.append(index[t])
                vals.append(-p)
    x = spsolve(csr_array((vals, (rows, cols)), shape=(m, m)), np.ones(m))
    expected = 1.0
    for state, w in init:
        if state in index:
            expected += w * float(x[index[state]])
    return oracle.ExpectedTau(expected, len(seen), 0)


CHAIN_CASES = [
    (path_graph(2), 2, Strategy.FRUGAL),
    (path_graph(3), 2, Strategy.FRUGAL),
    (path_graph(3), 3, Strategy.GREEDY),
    (path_graph(4), 2, Strategy.GREEDY),
    (TRIANGLE, 3, Strategy.FRUGAL),
    (TRIANGLE, 3, Strategy.GREEDY),
    (TRIANGLE, 4, Strategy.GREEDY),
    (cycle_graph(4), 3, Strategy.FRUGAL),
    (cycle_graph(4), 3, Strategy.GREEDY),
    (cycle_graph(5), 3, Strategy.FRUGAL),
    (star_graph(4), 4, Strategy.FRUGAL),
    (star_graph(4), 5, Strategy.GREEDY),
    (from_edge_list([(0, 1), (2, 3)], 5), 3, Strategy.FRUGAL),
]


CHAIN_STARTS = [
    (g, k, strategy, initial)
    for g, k, strategy in CHAIN_CASES
    for initial in (None, (0,) * g.n, tuple(v % 2 for v in range(g.n)))
] + [
    # greedy K3 at k = 3: a proper start, and the trapped (0, 0, 1) orbit
    (TRIANGLE, 3, Strategy.GREEDY, (0, 1, 2)),
    (TRIANGLE, 3, Strategy.GREEDY, (0, 0, 1)),
]


@pytest.mark.parametrize(
    "g,k,strategy,initial",
    CHAIN_STARTS,
    ids=[f"{g!r}-k{k}-{st.value}-{initial}" for g, k, st, initial in CHAIN_STARTS],
)
def test_expected_tau_matches_the_python_chain(g, k, strategy, initial):
    cfg = GameConfig(k=k, strategy=strategy, seed=0, enforce_k_bound=False, initial=initial)
    try:
        want = expected_tau_by_dfs(g, cfg)
    except ContractViolation:
        # greedy below max degree + 1 reaches a mover with no color left;
        # the two searches may meet different such colorings first
        with pytest.raises(ContractViolation, match="empty available set"):
            exact_expected_tau(g, cfg)
        return
    got = exact_expected_tau(g, cfg)
    assert (got.reachable_states, got.trapped_states) == (want.reachable_states, want.trapped_states)
    if math.isinf(want.expected):
        assert got.expected == math.inf
    else:
        assert abs(got.expected - want.expected) <= 1e-12


def test_expected_tau_counts_only_reachable_states():
    # greedy K3 at k = 3 from a proper start: the (0, 0, 1) orbit and its
    # renamings are trapped, but no move leads there
    proper = GameConfig(k=3, strategy=Strategy.GREEDY, seed=0, enforce_k_bound=False, initial=(0, 1, 2))
    assert exact_expected_tau(TRIANGLE, proper) == oracle.ExpectedTau(1.0, 1, 0)
    everywhere = GameConfig(k=3, strategy=Strategy.GREEDY, seed=0, enforce_k_bound=False)
    assert exact_expected_tau(TRIANGLE, everywhere).trapped_states > 0
    # the center of this star has no greedy move at (0, 0, 1, 2), which no
    # path from the proper start reaches
    star = GameConfig(k=3, strategy=Strategy.GREEDY, seed=0, enforce_k_bound=False, initial=(0, 1, 1, 1))
    assert exact_expected_tau(star_graph(4), star) == oracle.ExpectedTau(1.0, 1, 0)
    stuck = GameConfig(k=3, strategy=Strategy.GREEDY, seed=0, enforce_k_bound=False, initial=(0, 0, 1, 2))
    with pytest.raises(ContractViolation, match=r"empty available set at vertex 0 in coloring \(0, 0, 1, 2\)"):
        exact_expected_tau(star_graph(4), stuck)


def test_expected_tau_refuses_fan_out_before_expanding(monkeypatch):
    def expand(*args):
        raise AssertionError("successors expanded before the fan-out check")

    monkeypatch.setattr(oracle, "_successor_codes", expand)
    monkeypatch.setattr(oracle, "ENUMERATION_CAP", 26)
    # (0, 0, 0) has 3 x 3 x 3 frugal successors
    with pytest.raises(EnumerationLimitError, match="transition fan-out 27 exceeds enumeration cap 26"):
        exact_expected_tau(TRIANGLE, GameConfig(k=3, strategy=Strategy.FRUGAL, seed=0))


def test_expected_tau_refuses_a_level_of_too_many_transitions(monkeypatch):
    # path2 under frugal: each of the k clashing colorings moves to all k^2
    # colorings, so the first level holds k^3 transitions
    got = exact_expected_tau(path_graph(2), GameConfig(k=100, strategy=Strategy.FRUGAL, seed=0))
    assert abs(got.expected - (1 + 1 / 99)) <= 1e-12
    monkeypatch.setattr(oracle, "_successor_codes", lambda *args: pytest.fail("level expanded"))
    with pytest.raises(EnumerationLimitError, match="level of 31554496 transitions exceeds enumeration cap"):
        exact_expected_tau(path_graph(2), GameConfig(k=316, strategy=Strategy.FRUGAL, seed=0))


def test_expected_tau_refuses_a_state_space_too_long_to_print():
    with pytest.raises(EnumerationLimitError, match=r"state space k\^n = 3\^10000 exceeds state cap"):
        exact_expected_tau(path_graph(10000), GameConfig(k=3, strategy=Strategy.FRUGAL, seed=0))
