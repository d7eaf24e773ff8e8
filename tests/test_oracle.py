import functools
import itertools
import math
import tracemalloc
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


def test_size_law_threshold_subtracts_the_happy_neighbors_colors():
    # leaves 1 and 2 are happy, so f = 2 and the threshold is (7 - 2)/5 = 1:
    # every size counts. A threshold of k/5 that ignored f would drop size 1
    # and give 2377/2401; on every corpus case both thresholds are <= 1.
    s = ColoringState((0, 1, 2, 0, 0, 0, 0), 1)
    res = available_size_distribution(star_graph(7), s, 0, Strategy.FRUGAL, 7)
    assert (res.f, res.threshold, res.prob_at_least) == (2, 1, 1)
    assert res.distribution.as_dict() == {
        1: Fraction(24, 2401), 2: Fraction(432, 2401), 3: Fraction(1164, 2401),
        4: Fraction(100, 343), 5: Fraction(81, 2401),
    }


def test_size_floor_holds_at_equality(monkeypatch):
    # the star6 center's tail is 319/324: a floor equal to it is met, one
    # just above it is not
    s = ColoringState((0,) * 6, 1)
    tail = Fraction(319, 324)
    monkeypatch.setattr(oracle, "AVAILABLE_SIZE_FLOOR", tail)
    res = available_size_distribution(star_graph(6), s, 0, Strategy.FRUGAL, 6)
    assert res.prob_at_least == res.floor == tail and res.holds
    monkeypatch.setattr(oracle, "AVAILABLE_SIZE_FLOOR", tail + Fraction(1, 10**12))
    assert not available_size_distribution(star_graph(6), s, 0, Strategy.FRUGAL, 6).holds


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
    # the law counts an outcome that leaves v happy as happy; playing round
    # two from it too must give the same value
    s = ColoringState(colors, 1)
    for v in range(g.n):
        if not any(colors[u] == colors[v] for u in g.neighbors(v)):
            continue
        law = two_round_happiness_prob(g, s, v, Strategy.FRUGAL, k)
        assert law == two_round_by_loop(g, s, v, Strategy.FRUGAL, k, shortcut=False)


@pytest.mark.parametrize("cached", [True, False])
def test_two_round_is_exact_past_ten_thousand_draws(cached):
    # 7^5 = 16807 round-one joint draws, and k = 7 exceeds the 2-ball
    s = ColoringState((0,) * 5, 1)
    cache = {} if cached else None
    p = two_round_happiness_prob(star_graph(5), s, 0, Strategy.FRUGAL, 7, cache=cache)
    assert p == Fraction(5308416, 5764801)


def test_two_round_law_stays_within_its_table_budget():
    # 4 * 51^3 = 530,604 round-one outcomes, each a table row of 52 vertices
    # by 51 colors: about 1.4e9 cells in one piece
    s = ColoringState((0, 0, 0, 0, *range(1, 48)), 1)
    tracemalloc.start()
    try:
        p = two_round_happiness_prob(star_graph(51), s, 0, Strategy.FRUGAL, 51)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the value the round-two listing gave
    assert p == Fraction(17576000000, 17596287801)
    assert peak <= 64 * 2**20


def test_two_round_cache_is_shareable():
    cache = {}
    a = two_round_happiness_prob(TRIANGLE, S001, 0, Strategy.FRUGAL, 3, cache=cache)
    assert cache
    b = two_round_happiness_prob(TRIANGLE, S001, 0, Strategy.FRUGAL, 3, cache=cache)
    assert a == b == Fraction(3, 4)


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
        # 1.5 lies in [0, 3) and would be used as an index
        ((0, 0, 1), 1.5, "vertex 1.5 is not an integer"),
    ],
)
def test_oracle_refuses_what_is_not_a_state_of_the_game(monkeypatch, colors, v, message):
    """Refused before any cache lookup, happiness shortcut or enumeration."""

    def reached(*args, **kwargs):
        raise AssertionError("the oracle went past its input check")

    class Reached(dict):
        get = reached

    monkeypatch.setattr(oracle, "_is_unhappy", reached)
    monkeypatch.setattr(oracle, "_draws", reached)
    s = ColoringState(colors, 1)
    with pytest.raises(ConfigError, match=message):
        available_size_distribution(TRIANGLE, s, v, Strategy.FRUGAL, 3)
    with pytest.raises(ConfigError, match=message):
        two_round_happiness_prob(TRIANGLE, s, v, Strategy.FRUGAL, 3, cache=Reached())
    if v in range(3):  # the one-round law takes no vertex
        with pytest.raises(ConfigError, match=message):
            one_round_distribution(TRIANGLE, s, Strategy.FRUGAL, 3)
    # k = 2.5 passes 0 <= c < k for every color, and range(2.5) would raise TypeError
    with pytest.raises(ConfigError, match="k must be an integer, got 2.5"):
        available_size_distribution(TRIANGLE, S001, 0, Strategy.FRUGAL, 2.5)
    with pytest.raises(ConfigError, match="k must be an integer, got 2.5"):
        two_round_happiness_prob(TRIANGLE, S001, 0, Strategy.FRUGAL, 2.5, cache=Reached())
    with pytest.raises(ConfigError, match="k must be an integer, got 2.5"):
        one_round_distribution(TRIANGLE, S001, Strategy.FRUGAL, 2.5)


MEMO_INSTANCES = [(inst.name, inst.graph, inst.k) for inst in CORPUS] + [
    ("complete4_k4", complete_graph(4), 4),
    ("star5_k5", star_graph(5), 5),
]


@functools.cache
def uncached_two_round(name):
    """Each conflicted coloring of instance `name`, its unhappy vertices and
    their uncached two-round values, computed once for both orders."""
    g, k = next((g, k) for n, g, k in MEMO_INSTANCES if n == name)
    rows = []
    for colors in conflicted_colorings(g, k):
        s = ColoringState(colors, 1)
        movers = oracle._unhappy_list(g, colors)
        rows.append((s, movers, [two_round_happiness_prob(g, s, v, Strategy.FRUGAL, k)
                                 for v in movers]))
    return rows


@pytest.mark.parametrize("reverse", [True, False])
@pytest.mark.parametrize("name,g,k", MEMO_INSTANCES, ids=[m[0] for m in MEMO_INSTANCES])
def test_two_round_memo_matches_uncached(name, g, k, reverse):
    # in reverse order another member of each class fills its entry
    rows = uncached_two_round(name)
    cache = {}
    cases = 0
    for s, movers, alone in reversed(rows) if reverse else rows:
        for v, want in zip(movers, alone):
            shared = two_round_happiness_prob(g, s, v, Strategy.FRUGAL, k, cache=cache)
            assert isinstance(shared, Fraction) and shared == want, (s.colors, v)
            cases += 1
    assert sum(1 for key in cache if key[0] == "two_round") < cases


def two_round_by_loop(g, s, v, strategy, k, *, shortcut=True, cache=None):
    """two_round_happiness_prob by Python loops over both rounds' joint draws.

    The enumeration two_round_happiness_prob used before it listed the
    round-one outcomes in numpy and counted round two; kept as the
    reference whose values, refusals and "two_round" cache entries, in
    order, it must reproduce. shortcut=False plays round two also from
    the outcomes that leave v happy, where monotonicity says it must stay
    happy. Each round-two count is memoized under ("round_two", v,
    strategy, k, relabeled 2-ball coloring).
    """
    colors = s.colors
    if not oracle._is_unhappy(g, colors, v):
        return Fraction(1)
    if cache is None:
        cache = {}
    key = ("two_round", v, strategy, k, oracle._relabel(colors))
    hit = cache.get(key)
    if hit is not None:
        return hit
    ball1 = [v, *g.neighbors(v)]
    ball2 = sorted({w for u in ball1 for w in (u, *g.neighbors(u))})
    movers1 = [u for u in ball2 if oracle._is_unhappy(g, colors, u)]
    _, avails1, size1 = oracle._draws(g, colors, movers1, strategy, k, "round-one joint support")
    happy = 0
    favourable: dict[int, int] = {}
    work = list(colors)
    for draws in itertools.product(*avails1):
        for u, c in zip(movers1, draws):
            work[u] = c
        if shortcut and not oracle._is_unhappy(g, work, v):
            happy += 1
            continue
        sub = ("round_two", v, strategy, k, oracle._relabel([work[u] for u in ball2]))
        counts = cache.get(sub)
        if counts is None:
            counts = cache[sub] = second_round_by_listing(g, work, v, ball1, strategy, k)
        count, size2 = counts
        favourable[size2] = favourable.get(size2, 0) + count
    den = math.lcm(*favourable)
    num = happy * den + sum(c * (den // size2) for size2, c in favourable.items())
    prob = Fraction(num, size1 * den)
    cache[key] = prob
    return prob


def second_round_by_listing(g, colors1, v, ball1, strategy, k) -> tuple[int, int]:
    """(draws leaving v happy, all draws) of one more round from colors1, within ball1."""
    movers = [u for u in ball1 if oracle._is_unhappy(g, colors1, u)]
    _, avails, size = oracle._draws(g, colors1, movers, strategy, k, "round-two joint support")
    pos = {u: i for i, u in enumerate(movers)}
    own_at = pos.get(v)
    moving = [pos[u] for u in g.neighbors(v) if u in pos]
    count = 0
    for draws in itertools.product(*avails):
        own = colors1[v] if own_at is None else draws[own_at]
        if all(draws[i] != own for i in moving):
            count += 1
    return count, size


TWO_ROUND_BALLS = [(name, g, k, None) for name, g, k in MEMO_INSTANCES] + [
    # The 2-ball of leaf 1 is all 17 vertices, as many as the colors. Leaf 1
    # shares color 0 with the center.
    ("star17_k17", star_graph(17), 17, [(0, 0, *range(1, 16)), (0, 0, 0, *range(1, 15))]),
    # palettes wider than every 2-ball: the colors no one in the ball holds
    ("path3_k6", path_graph(3), 6, None),
    ("cycle4_k7", cycle_graph(4), 7, None),
    ("complete4_k9", complete_graph(4), 9, None),
    ("star5_k8", star_graph(5), 8, None),
]


@functools.cache
def two_round_cases(name):
    g, k, colorings = next((g, k, c) for n, g, k, c in TWO_ROUND_BALLS if n == name)
    cases = [
        (ColoringState(colors, 1), v)
        for colors in colorings or conflicted_colorings(g, k)
        for v in oracle._unhappy_list(g, colors)
    ]
    return g, k, cases


# Each side runs every case once per setting; the items of
# test_two_round_matches_the_loop pair the settings up. The law has no
# shortcut and the loop no chunk.
@functools.cache
def loop_over_cases(name, strategy, shortcut):
    """The reference loop's result on each case of ball `name`, and its cache."""
    g, k, cases = two_round_cases(name)
    cache = {}
    loop = functools.partial(two_round_by_loop, shortcut=shortcut, cache=cache)
    return [size_law_or_refusal(loop, g, s, v, strategy, k) for s, v in cases], cache


@functools.cache
def law_over_cases(name, strategy, chunk):
    """The law's result on each case of ball `name`, and its cache."""
    g, k, cases = two_round_cases(name)
    cache = {}
    law = functools.partial(two_round_happiness_prob, cache=cache)
    got = []
    with pytest.MonkeyPatch.context() as mp:
        for s, v in cases:
            if chunk is not None:
                # round one spans several chunks of `chunk` outcomes, each
                # outcome a table of |N[v]| * min(k, |2-ball|) cells
                ball = {w for u in (v, *g.neighbors(v)) for w in (u, *g.neighbors(u))}
                mp.setattr(oracle, "ROW_CHUNK", chunk * (1 + g.degree(v)) * min(k, len(ball)))
            got.append(size_law_or_refusal(law, g, s, v, strategy, k))
    return got, cache


@pytest.mark.parametrize("chunk", [None, 7])
@pytest.mark.parametrize("shortcut", [True, False])
@pytest.mark.parametrize("strategy", list(Strategy))
@pytest.mark.parametrize("name,g,k,colorings", TWO_ROUND_BALLS, ids=[m[0] for m in TWO_ROUND_BALLS])
def test_two_round_matches_the_loop(name, g, k, colorings, strategy, shortcut, chunk):
    want, want_cache = loop_over_cases(name, strategy, shortcut)
    got, got_cache = law_over_cases(name, strategy, chunk)
    _, _, cases = two_round_cases(name)
    for (s, v), a, b in zip(cases, got, want, strict=True):
        assert a == b, (s.colors, v)
    assert got_cache
    assert list(got_cache.items()) == [kv for kv in want_cache.items() if kv[0][0] == "two_round"]


def test_relabel_rows_is_relabel_row_by_row():
    rows = list(itertools.product(range(4), repeat=5))
    got = oracle._relabel_rows(np.array(rows)).tolist()
    assert got == [list(oracle._relabel(row)) for row in rows]


@pytest.mark.parametrize("strategy", list(Strategy))
def test_option_table_covers_only_the_columns_of_its_mask(strategy):
    # read along the arcs out of the first m vertices, a mask of those m
    # columns gives the full table's first m rows, as the two-round law
    # uses it on v's closed neighborhood; k runs below and above m
    rng = np.random.default_rng(27)
    for g in (path_graph(5), cycle_graph(6), star_graph(5), complete_graph(4)):
        src, dst = g.arcs()
        for k in (2, 3, g.n + 2):
            colors = rng.integers(0, k, size=(8, g.n))
            unhappy = oracle._unhappy_mask((src, dst), colors)
            full = oracle._option_table((src, dst), colors, unhappy, strategy, k)
            for m in range(1, g.n + 1):
                out = src < m
                part = oracle._option_table((src[out], dst[out]), colors, unhappy[:, :m], strategy, k)
                assert part.shape == (len(colors), m, k)
                assert np.array_equal(part, full[:, :m]), (g, k, m)


@settings(deadline=None, max_examples=100)
@given(st.integers(1, 6), st.integers(1, 5), st.data())
def test_relabel_rows_gives_the_smallest_member_of_each_class(n, k, data):
    row = st.lists(st.integers(0, k - 1), min_size=n, max_size=n)
    rows = data.draw(st.lists(row, min_size=1, max_size=4))
    fixed = tuple(sorted(data.draw(st.sets(st.integers(0, k - 1)))))
    free = [c for c in range(k) if c not in fixed]
    renamings = [
        dict(zip(free, perm)) | {c: c for c in fixed} for perm in itertools.permutations(free)
    ]
    got = oracle._relabel_rows(np.array(rows), fixed).tolist()
    for colors, smallest in zip(rows, got):
        assert tuple(smallest) == min(tuple(p[c] for c in colors) for p in renamings)


def brute_size_law(g, s, v, strategy, k):
    """The size law by listing every joint draw of v's closed neighborhood.

    The enumeration available_size_distribution used before its dynamic
    program; kept as the reference the program must reproduce exactly.
    """
    colors = s.colors
    nbrs = g.neighbors(v)
    movers = sorted(u for u in set(nbrs) | {v} if oracle._is_unhappy(g, colors, u))
    _, avails, size = oracle._draws(g, colors, movers, strategy, k, "joint support")
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
    for v in range(g.n):
        if not any(colors[u] == colors[v] for u in g.neighbors(v)):
            with pytest.raises(ContractViolation, match="happy"):
                available_size_distribution(g, s, v, strategy, k)
            continue
        a = available_size_distribution(g, s, v, strategy, k)
        b = available_size_distribution(g, t, v, strategy, k)
        assert a.distribution == b.distribution and a.prob_at_least == b.prob_at_least
        assert two_round_happiness_prob(g, s, v, strategy, k) == two_round_happiness_prob(
            g, t, v, strategy, k
        )


def test_two_round_memo_respects_a_smaller_cap(monkeypatch):
    # v = 0 of cycle4 at (0, 0, 1, 1), k = 3: the round-one joint support has
    # 16 outcomes and the largest round-two support 27
    g, s = cycle_graph(4), ColoringState((0, 0, 1, 1), 1)
    monkeypatch.setattr(oracle, "ENUMERATION_CAP", 16)
    cache = {}
    # a refused call memoizes nothing, so the same cache refuses again
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


def test_a_support_past_the_cap_is_refused_before_any_set_is_listed(monkeypatch):
    # frugal at k = 10^7 from (0, 0, 1): vertices 0 and 1 each keep 10^7 - 1
    # colors, a joint support of 99,999,980,000,001 that listing both sets
    # over range(k) took seconds to find
    def listed(*args):
        raise AssertionError("an available set was listed")

    monkeypatch.setattr(oracle, "_available", listed)
    k, past = 10**7, "99999980000001 exceeds enumeration cap 10000000"
    with pytest.raises(EnumerationLimitError, match=f"^joint support {past}$"):
        one_round_distribution(TRIANGLE, S001, Strategy.FRUGAL, k)
    with pytest.raises(EnumerationLimitError, match=f"^round-one joint support {past}$"):
        two_round_happiness_prob(TRIANGLE, S001, 0, Strategy.FRUGAL, k)
    with pytest.raises(EnumerationLimitError, match=f"^joint support {past}$"):
        available_size_distribution(TRIANGLE, S001, 0, Strategy.FRUGAL, k)


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
        _, avails, size = oracle._draws(g, state, movers, cfg.strategy, k, "transition fan-out")
        options = [(c,) for c in state]
        for u, a in zip(movers, avails):
            options[u] = a
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
    # 3125 colorings in 52 classes
    (complete_graph(5), 5, Strategy.FRUGAL, None),
    # from the all-zero start only colors 1 and 2 are interchangeable
    (path_graph(7), 3, Strategy.FRUGAL, (0,) * 7),
    (cycle_graph(7), 3, Strategy.FRUGAL, (0,) * 7),
    # greedy path4 at k = 3 reaches 4 and 9 proper classes and 6 trapped
    # colorings: the trap search starts from several sources
    (path_graph(4), 3, Strategy.GREEDY, None),
    (path_graph(4), 3, Strategy.GREEDY, (0,) * 4),
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


def chain_comparison_fails(*start) -> bool:
    try:
        test_expected_tau_matches_the_python_chain(*start)
    except (AssertionError, pytest.fail.Exception):
        return True
    return False


def test_a_rule_fault_breaking_color_symmetry_fails_the_chain_comparison(monkeypatch):
    # Both statements of the rules drop color 0 from every available set of
    # two or more colors: no set empties, but renaming colors no longer
    # commutes with the rules, so the chain does not lump onto classes. An
    # unlumped chain agrees with the reference under this fault.
    real_available, real_table = oracle._available, oracle._option_table

    def available(*args):
        avail = real_available(*args)
        return avail[1:] if len(avail) >= 2 and avail[0] == 0 else avail

    def option_table(*args):
        allowed = real_table(*args).copy()
        allowed[:, :, 0] &= allowed.sum(axis=2) < 2
        return allowed

    monkeypatch.setattr(oracle, "_available", available)
    monkeypatch.setattr(oracle, "_option_table", option_table)
    assert oracle._available({0}, 0, Strategy.FRUGAL, 3) == (1, 2)
    assert any(chain_comparison_fails(*start) for start in CHAIN_STARTS)


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


def test_expected_tau_refuses_an_empty_set_before_any_fan_out(monkeypatch):
    # greedy 4-star at k = 3: the (0, 0, 0, 0) class's fan-out of 16 comes
    # first in code order, but an empty set anywhere in the level is refused first
    monkeypatch.setattr(oracle, "ENUMERATION_CAP", 15)
    uniform = GameConfig(k=3, strategy=Strategy.GREEDY, seed=0, enforce_k_bound=False)
    with pytest.raises(ContractViolation, match=r"empty available set at vertex 0 in coloring \(0, 0, 1, 2\)"):
        exact_expected_tau(star_graph(4), uniform)
    zeros = GameConfig(k=3, strategy=Strategy.GREEDY, seed=0, enforce_k_bound=False, initial=(0,) * 4)
    with pytest.raises(EnumerationLimitError, match="transition fan-out 16 exceeds enumeration cap 15"):
        exact_expected_tau(star_graph(4), zeros)


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
