import random

import pytest
from hypothesis import given, settings, strategies as st

from netcolor import (
    ColoringState,
    ContractViolation,
    GameConfig,
    IllegalPaletteError,
    RoundRecord,
    Strategy,
    available_set,
    complete_graph,
    erdos_renyi,
    from_edge_list,
    initial_state,
    is_happy,
    is_proper,
    neighbor_colors,
    path_graph,
    run,
    star_graph,
    step,
    stick_set,
    unhappy_vertices,
)
from netcolor.oracle import _unhappy_list

TRIANGLE = complete_graph(3)


def cfg(k, strategy, seed=0, **kw):
    return GameConfig(k=k, strategy=strategy, seed=seed, **kw)


def test_min_colors():
    assert Strategy.GREEDY.min_colors(4) == 6
    assert Strategy.FRUGAL.min_colors(4) == 5


def test_is_happy_examples():
    rainbow = ColoringState((0, 1, 2), 1)
    assert is_happy(TRIANGLE, rainbow, 0)
    s = ColoringState((0, 0, 1), 1)
    assert is_happy(TRIANGLE, s, 2)
    assert not is_happy(TRIANGLE, s, 0)
    edgeless = from_edge_list([], 3)
    assert is_happy(edgeless, s, 1)


def test_neighbor_colors_examples():
    s = ColoringState((0, 0, 1), 1)
    assert neighbor_colors(TRIANGLE, s, 0) == frozenset({0, 1})
    star = star_graph(4)
    all_two = ColoringState((0, 2, 2, 2), 1)
    assert neighbor_colors(star, all_two, 0) == frozenset({2})
    edgeless = from_edge_list([], 2)
    assert neighbor_colors(edgeless, s, 1) == frozenset()


def test_available_set_examples():
    s = ColoringState((0, 0, 1), 1)
    assert available_set(TRIANGLE, s, 0, Strategy.FRUGAL, 3) == frozenset({0, 2})
    assert available_set(TRIANGLE, s, 0, Strategy.GREEDY, 3) == frozenset({2})
    assert available_set(TRIANGLE, s, 0, Strategy.GREEDY, 4) == frozenset({2, 3})


def test_available_set_rejects_happy_vertex():
    s = ColoringState((0, 0, 1), 1)
    with pytest.raises(ContractViolation, match="happy"):
        available_set(TRIANGLE, s, 2, Strategy.FRUGAL, 3)
    assert stick_set(s, 2) == frozenset({1})


def test_available_set_empty_greedy_raises():
    # center sees every color, so the greedy pool is empty at this k
    star = star_graph(4)
    s = ColoringState((0, 0, 1, 2), 1)
    with pytest.raises(ContractViolation, match="empty available set"):
        available_set(star, s, 0, Strategy.GREEDY, 3)


def test_initial_state_given():
    rng = random.Random(0)
    s = initial_state(TRIANGLE, cfg(3, Strategy.FRUGAL, initial=(0, 1, 2)), rng)
    assert s.colors == (0, 1, 2)
    assert s.round == 1


def test_initial_state_validation():
    g = TRIANGLE
    with pytest.raises(ValueError, match="entries"):
        cfg(3, Strategy.FRUGAL, initial=(0, 1)).validate(g)
    with pytest.raises(ValueError, match="outside"):
        cfg(3, Strategy.FRUGAL, initial=(0, 1, 3)).validate(g)


def test_initial_state_singleton_palette():
    g = from_edge_list([], 4)
    s = initial_state(g, cfg(1, Strategy.FRUGAL), random.Random(5))
    assert s.colors == (0, 0, 0, 0)


def test_initial_state_seed_determinism():
    a = initial_state(TRIANGLE, cfg(3, Strategy.FRUGAL), random.Random(11))
    b = initial_state(TRIANGLE, cfg(3, Strategy.FRUGAL), random.Random(11))
    assert a == b


def test_config_validation():
    with pytest.raises(ValueError, match="k must be"):
        cfg(0, Strategy.FRUGAL).validate(TRIANGLE)
    # one randrange(k) try must fit in one 32-bit word
    with pytest.raises(ValueError, match="k must be"):
        cfg(2**32, Strategy.FRUGAL).validate(TRIANGLE)
    cfg(2**32 - 1, Strategy.FRUGAL).validate(TRIANGLE)
    with pytest.raises(ValueError, match="max_rounds"):
        cfg(3, Strategy.FRUGAL, max_rounds=0).validate(TRIANGLE)
    with pytest.raises(IllegalPaletteError):
        cfg(2, Strategy.FRUGAL).validate(TRIANGLE)
    with pytest.raises(IllegalPaletteError):
        cfg(3, Strategy.GREEDY).validate(TRIANGLE)
    cfg(3, Strategy.GREEDY, enforce_k_bound=False).validate(TRIANGLE)


def test_step_edgeless_unchanged():
    g = from_edge_list([], 4)
    s = ColoringState((0, 0, 0, 0), 1)
    nxt, rec = step(g, s, cfg(2, Strategy.FRUGAL), random.Random(0))
    assert nxt.colors == s.colors
    assert nxt.round == 2
    assert rec.unhappy == frozenset()
    assert rec.happy_count == 4


def test_step_greedy_forced_moves():
    # both conflicted vertices have a one-color pool, so the move is forced
    s = ColoringState((0, 0, 1), 1)
    c = cfg(3, Strategy.GREEDY, enforce_k_bound=False)
    for seed in (0, 1, 99):
        nxt, rec = step(TRIANGLE, s, c, random.Random(seed))
        assert nxt.colors == (2, 2, 1)
        assert rec.unhappy == frozenset({0, 1})


def test_step_frugal_triangle_support():
    s = ColoringState((0, 0, 1), 1)
    c = cfg(3, Strategy.FRUGAL)
    seen = set()
    rng = random.Random(123)
    for _ in range(200):
        nxt, _ = step(TRIANGLE, s, c, rng)
        assert nxt.colors[2] == 1
        assert nxt.colors[0] in (0, 2) and nxt.colors[1] in (0, 2)
        seen.add(nxt.colors)
    assert seen == {(0, 0, 1), (0, 2, 1), (2, 0, 1), (2, 2, 1)}


def test_run_edgeless_immediate():
    g = from_edge_list([], 6)
    r = run(g, cfg(1, Strategy.FRUGAL))
    assert r.tau == 1
    assert r.min_available is None
    assert len(r.history) == 1
    assert r.history[0].happy_count == 6


def test_run_converges_and_final_is_proper():
    r = run(TRIANGLE, cfg(3, Strategy.FRUGAL, seed=2024))
    assert r.tau is not None
    assert r.tau == r.final_state.round
    assert is_proper(TRIANGLE, r.final_state.colors)
    assert r.history[-1].happy_count == 3
    assert [rec.round for rec in r.history] == list(range(1, r.tau + 1))


def test_run_determinism():
    c = cfg(3, Strategy.FRUGAL, seed=77)
    assert run(TRIANGLE, c) == run(TRIANGLE, c)


def test_run_retention_counts():
    c = cfg(3, Strategy.FRUGAL, seed=5)
    full = run(TRIANGLE, c, retention="full")
    counts = run(TRIANGLE, c, retention="counts")
    assert counts.tau == full.tau
    assert all(rec.unhappy is None for rec in counts.history)
    assert [rec.happy_count for rec in counts.history] == [
        rec.happy_count for rec in full.history
    ]
    with pytest.raises(ValueError, match="retention"):
        run(TRIANGLE, c, retention="everything")


def test_run_paranoid_matches_plain():
    c = cfg(4, Strategy.GREEDY, seed=31)
    assert run(TRIANGLE, c, paranoid=True) == run(TRIANGLE, c)


def test_run_timeout_is_a_value():
    c = cfg(
        3, Strategy.GREEDY, seed=1, max_rounds=50,
        enforce_k_bound=False, initial=(0, 0, 1),
    )
    r = run(TRIANGLE, c)
    assert r.tau is None
    assert r.final_state.round == 50
    assert len(r.history) == 50


def test_greedy_two_cycle_trace():
    # forced alternation between the two conflicted states
    c = cfg(3, Strategy.GREEDY, seed=8, enforce_k_bound=False, initial=(0, 0, 1))
    state = ColoringState((0, 0, 1), 1)
    rng = random.Random(8)
    for _ in range(200):
        nxt, _ = step(TRIANGLE, state, c, rng)
        expected = (2, 2, 1) if state.colors == (0, 0, 1) else (0, 0, 1)
        assert nxt.colors == expected
        state = nxt


@st.composite
def graph_and_config(draw):
    n = draw(st.integers(2, 7))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), max_size=len(pairs)))
    g = from_edge_list(edges, n)
    strategy = draw(st.sampled_from(list(Strategy)))
    k = strategy.min_colors(g.max_degree()) + draw(st.integers(0, 2))
    seed = draw(st.integers(0, 2**32))
    return g, GameConfig(k=k, strategy=strategy, seed=seed, max_rounds=500)


@settings(deadline=None, max_examples=60)
@given(graph_and_config())
def test_happiness_is_monotone(gc):
    g, c = gc
    r = run(g, c, paranoid=True)
    for prev, cur in zip(r.history, r.history[1:]):
        assert cur.unhappy <= prev.unhappy
        assert cur.happy_count >= prev.happy_count
    if r.tau is not None:
        assert is_proper(g, r.final_state.colors)
        assert r.history[-1].happy_count == g.n
    if r.min_available is not None:
        assert r.min_available >= 2


def assert_run_matches_steps(g, c):
    r = run(g, c)
    rng = random.Random(c.seed)
    state = initial_state(g, c, rng)
    unhappy = frozenset(unhappy_vertices(g, state))
    records = [RoundRecord(1, unhappy, g.n - len(unhappy))]
    while records[-1].unhappy and state.round < c.max_rounds:
        state, rec = step(g, state, c, rng)
        records.append(rec)
    assert r.final_state == state
    assert list(r.history) == records
    expected_tau = state.round if not records[-1].unhappy else None
    assert r.tau == expected_tau


@settings(deadline=None, max_examples=40)
@given(graph_and_config())
def test_run_matches_stepwise_reference(gc):
    assert_run_matches_steps(*gc)


@pytest.mark.parametrize("strategy", list(Strategy))
@pytest.mark.parametrize("n, p", [(40, 0.15), (120, 0.05)])
def test_run_matches_stepwise_reference_on_vectorized_scans(n, p, strategy):
    # n >= VECTOR_SCAN_MIN, so the scans take the numpy path.
    g = erdos_renyi(n, p, seed=n)
    for seed in range(5):
        c = GameConfig(
            k=strategy.min_colors(g.max_degree()), strategy=strategy, seed=seed, max_rounds=500
        )
        assert_run_matches_steps(g, c)


@pytest.mark.parametrize("n", [2, 31, 32, 200])
def test_scans_agree_with_oracle_twin(n):
    g = erdos_renyi(n, min(1.0, 6 / n), seed=n)
    rng = random.Random(n)
    for k in (2, 4, 8):
        colors = tuple(rng.randrange(k) for _ in range(n))
        expected = _unhappy_list(g, colors)
        assert unhappy_vertices(g, ColoringState(colors, 1)) == expected
        assert is_proper(g, colors) == (not expected)


@settings(deadline=None, max_examples=40)
@given(graph_and_config())
def test_greedy_always_changes_color(gc):
    g, c = gc
    if c.strategy is not Strategy.GREEDY:
        c = GameConfig(k=c.k + 1, strategy=Strategy.GREEDY, seed=c.seed, max_rounds=200)
    rng = random.Random(c.seed)
    state = initial_state(g, c, rng)
    for _ in range(30):
        movers = unhappy_vertices(g, state)
        if not movers:
            break
        nxt, _ = step(g, state, c, rng)
        for v in movers:
            assert nxt.colors[v] != state.colors[v]
        state = nxt
