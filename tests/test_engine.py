import math
import pickle
import random
import re
import sys
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from netcolor import (
    ColoringState,
    ConfigError,
    ContractViolation,
    EnumerationLimitError,
    GameConfig,
    History,
    IllegalPaletteError,
    RoundRecord,
    Strategy,
    complete_graph,
    erdos_renyi,
    from_edge_list,
    initial_state,
    is_proper,
    path_graph,
    run,
    step,
    unhappy_vertices,
)
from netcolor import engine, verification
from netcolor.oracle import _available, _unhappy_list
from netcolor.verification import AGREEMENT_CHUNK, AGREEMENT_INSTANCES, one_round_counts

TRIANGLE = complete_graph(3)


def cfg(k, strategy, seed=0, **kw):
    return GameConfig(k=k, strategy=strategy, seed=seed, **kw)


def test_min_colors():
    assert Strategy.GREEDY.min_colors(4) == 6
    assert Strategy.FRUGAL.min_colors(4) == 5


def test_run_and_step_draw_by_rank_at_the_largest_palette():
    # range(2**32 - 1) would take tens of GB; the rounds draw by rank and never list it
    k = 2**32 - 1
    c = cfg(k, Strategy.FRUGAL, initial=(0, 0, 0))
    played = run(TRIANGLE, c)
    assert played.tau == 2
    s = ColoringState((0, 0, 0), 1)
    assert step(TRIANGLE, s, c, random.Random(c.seed)) == (played.final_state, played.history[1])


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
    # 1.5 lies in [0, 3) but is no color: run() would play it as a fourth one
    with pytest.raises(ConfigError, match="color 1.5 at vertex 2 is not an integer"):
        cfg(3, Strategy.FRUGAL, initial=(0, 0, 1.5)).validate(g)
    with pytest.raises(ConfigError, match="color 1.0 at vertex 2 is not an integer"):
        run(g, cfg(3, Strategy.FRUGAL, initial=(0, 0, 1.0)))
    # numpy integers are integers
    assert run(g, cfg(3, Strategy.FRUGAL, initial=tuple(np.arange(3)))).tau == 1


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
    # a trial's History must have an index-sized length
    with pytest.raises(ConfigError, match="max_rounds must be <="):
        cfg(3, Strategy.FRUGAL, max_rounds=sys.maxsize + 1).validate(TRIANGLE)
    cfg(3, Strategy.FRUGAL, max_rounds=sys.maxsize).validate(TRIANGLE)
    # random.Random(-s) is random.Random(s)
    with pytest.raises(ValueError, match="seed must be >= 0"):
        cfg(3, Strategy.FRUGAL, seed=-1).validate(TRIANGLE)
    cfg(3, Strategy.FRUGAL, seed=0).validate(TRIANGLE)
    # randrange(2.0) is deprecated, seed 1.5 plays a stream no integer seed
    # gives, and max_rounds=2.5 would time out after 3 rounds
    for field, value in (("k", 3.0), ("seed", 1.5), ("max_rounds", 2.5), ("k", "3")):
        with pytest.raises(ConfigError, match=f"{field} must be an integer, got {value!r}"):
            cfg(**{"k": 3, "strategy": Strategy.FRUGAL, field: value}).validate(TRIANGLE)
    played = run(TRIANGLE, cfg(np.int64(3), Strategy.FRUGAL, seed=np.uint32(1),
                               max_rounds=np.int64(50)))
    assert played == run(TRIANGLE, cfg(3, Strategy.FRUGAL, seed=1, max_rounds=50))
    with pytest.raises(IllegalPaletteError):
        cfg(2, Strategy.FRUGAL).validate(TRIANGLE)
    with pytest.raises(IllegalPaletteError):
        cfg(3, Strategy.GREEDY).validate(TRIANGLE)
    cfg(3, Strategy.GREEDY, enforce_k_bound=False).validate(TRIANGLE)


K40 = complete_graph(40)


@pytest.mark.parametrize("call", [
    # k = 0: the bulk draws would reject every word and never return
    lambda rng: initial_state(TRIANGLE, cfg(0, Strategy.FRUGAL), rng),
    # k = 2**40: a randrange(k) try no longer fits one 32-bit word
    lambda rng: initial_state(TRIANGLE, cfg(2**40, Strategy.FRUGAL), rng),
    lambda rng: initial_state(TRIANGLE, cfg(3, Strategy.FRUGAL, initial=(0, 9)), rng),
    lambda rng: step(TRIANGLE, ColoringState((0, 0, 1), 1), cfg(2, Strategy.FRUGAL), rng),
    lambda rng: step(TRIANGLE, ColoringState((0, 0, 3), 1), cfg(3, Strategy.FRUGAL), rng),
    # 39 unhappy vertices: the numpy round
    lambda rng: step(K40, ColoringState((0,) * 39 + (40,), 1), cfg(40, Strategy.FRUGAL), rng),
    lambda rng: step(TRIANGLE, ColoringState((0, 0, 1), 1),
                     cfg(3, Strategy.FRUGAL, max_rounds=sys.maxsize + 1), rng),
    lambda rng: initial_state(TRIANGLE, cfg(3.0, Strategy.FRUGAL), rng),
    lambda rng: initial_state(TRIANGLE, cfg(3, Strategy.FRUGAL, initial=(0, 0, 1.5)), rng),
    lambda rng: step(TRIANGLE, ColoringState((0, 0, 1.5), 1), cfg(3, Strategy.FRUGAL), rng),
    lambda rng: step(TRIANGLE, ColoringState((0, 0, 1), 1), cfg(3, Strategy.FRUGAL, seed=1.5),
                     rng),
    lambda rng: step(TRIANGLE, ColoringState((0, 0, 1), 1),
                     cfg(3, Strategy.FRUGAL, max_rounds=2.5), rng),
], ids=["k=0", "k=2**40", "short-initial", "illegal-palette", "state-color>=k",
        "state-color>=k-vector-round", "max_rounds>sys.maxsize", "k=3.0", "initial-color=1.5",
        "state-color=1.5", "seed=1.5", "max_rounds=2.5"])
def test_initial_state_and_step_refuse_what_run_refuses(call):
    rng = random.Random(7)
    before = rng.getstate()
    with pytest.raises((ConfigError, IllegalPaletteError)):
        call(rng)
    assert rng.getstate() == before


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


def test_run_timeout_is_a_value():
    c = cfg(
        3, Strategy.GREEDY, seed=1, max_rounds=50,
        enforce_k_bound=False, initial=(0, 0, 1),
    )
    r = run(TRIANGLE, c)
    assert r.tau is None
    assert r.final_state.round == 50
    assert len(r.history) == 50


@pytest.mark.parametrize("vector_min", [engine.VECTOR_ROUND_MIN, 1])
def test_happy_vertex_turning_unhappy_raises(vector_min, monkeypatch):
    # vertex 1 clashes with vertex 0 but is handed over as happy; under
    # Frugal at k = 2 vertex 0's only color is its own, a forced move
    monkeypatch.setattr(engine, "VECTOR_ROUND_MIN", vector_min)
    rng = random.Random(0)
    before = rng.getstate()
    with pytest.raises(ContractViolation, match="^happy vertex 1 lost happiness in round 2$"):
        engine._play_round(TRIANGLE, [0, 0, 1], [0], cfg(2, Strategy.FRUGAL), rng, 1)
    assert rng.getstate() == before


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
    r = run(g, c)
    for prev, cur in zip(r.history, r.history[1:]):
        assert cur.unhappy <= prev.unhappy
        assert cur.happy_count >= prev.happy_count
    if r.tau is not None:
        assert is_proper(g, r.final_state.colors)
        assert r.history[-1].happy_count == g.n
    if r.min_available is not None:
        assert r.min_available >= 2


def reference_round(g, colors, c, rng, rnd):
    """(next colors, set sizes) of one round by the oracle's twin of the rules.

    Each unhappy vertex in ascending order lists its set with
    oracle._available and takes entry rng.randrange(size) of it, or its
    only entry without touching the stream.
    """
    nxt = list(colors)
    sizes = []
    for v in _unhappy_list(g, colors):
        avail = _available(colors, g.neighbors(v), colors[v], c.strategy, c.k)
        if not avail:
            raise ContractViolation(f"empty available set at vertex {v} in round {rnd}")
        sizes.append(len(avail))
        nxt[v] = avail[rng.randrange(len(avail))] if len(avail) > 1 else avail[0]
    return tuple(nxt), sizes


def stepwise_reference(g, c):
    """(final state, history, tau, min_available) played with reference_round."""
    rng = random.Random(c.seed)
    colors = c.initial if c.initial is not None else tuple(rng.randrange(c.k) for _ in range(g.n))
    unhappy = frozenset(_unhappy_list(g, colors))
    records = [RoundRecord(1, unhappy, g.n - len(unhappy))]
    sizes = []
    rnd = 1
    while unhappy and rnd < c.max_rounds:
        colors, drawn = reference_round(g, colors, c, rng, rnd)
        sizes += drawn
        rnd += 1
        unhappy = frozenset(_unhappy_list(g, colors))
        records.append(RoundRecord(rnd, unhappy, g.n - len(unhappy)))
    tau = None if unhappy else rnd
    return ColoringState(colors, rnd), records, tau, min(sizes, default=None)


def assert_run_matches_steps(g, c, retention="full"):
    try:
        state, records, tau, low = stepwise_reference(g, c)
    except ContractViolation as exc:
        with pytest.raises(ContractViolation, match=f"^{re.escape(str(exc))}$"):
            run(g, c, retention=retention)
        return
    if retention == "counts":
        records = [RoundRecord(rec.round, None, rec.happy_count) for rec in records]
    r = run(g, c, retention=retention)
    assert (r.final_state, list(r.history), r.tau, r.min_available) == (state, records, tau, low)
    assert {type(x) for x in r.final_state.colors} <= {int}


@settings(deadline=None, max_examples=40)
@given(graph_and_config())
def test_run_matches_stepwise_reference(gc):
    assert_run_matches_steps(*gc)
    # every round of these small graphs through the numpy round as well
    with mock.patch.object(engine, "VECTOR_ROUND_MIN", 1):
        assert_run_matches_steps(*gc)


@settings(deadline=None, max_examples=40)
@given(graph_and_config())
def test_step_matches_reference_round(gc):
    g, c = gc
    colors = tuple(random.Random(c.seed).randrange(c.k) for _ in range(g.n))
    for vector_min in (engine.VECTOR_ROUND_MIN, 1):
        rng, ref = random.Random(c.seed), random.Random(c.seed)
        with mock.patch.object(engine, "VECTOR_ROUND_MIN", vector_min):
            nxt, rec = step(g, ColoringState(colors, 3), c, rng)
        expected, _ = reference_round(g, colors, c, ref, 3)
        assert nxt == ColoringState(expected, 4) and rng.getstate() == ref.getstate()
        assert rec.unhappy == frozenset(_unhappy_list(g, expected))


# Starts for the stacked sampler: draws in every copy, forced moves that
# leave the stream alone, happy vertices between unhappy ones, and a proper
# coloring with no round to play.
STACKED_STARTS = [inst[1:] for inst in AGREEMENT_INSTANCES] + [
    (TRIANGLE, (0, 0, 1), Strategy.GREEDY, 3),
    (erdos_renyi(9, 0.4, seed=2), (0, 1, 1, 0, 2, 3, 2, 4, 0), Strategy.FRUGAL, 5),
    (TRIANGLE, (0, 1, 2), Strategy.FRUGAL, 3),
]


@pytest.mark.parametrize("g, colors, strategy, k", STACKED_STARTS)
@pytest.mark.parametrize(
    "trials, chunk",
    [(5, 8), (8, 8), (21, 8), (AGREEMENT_CHUNK - 1, AGREEMENT_CHUNK),
     (AGREEMENT_CHUNK, AGREEMENT_CHUNK), (2 * AGREEMENT_CHUNK + 7, AGREEMENT_CHUNK)],
)
def test_stacked_rounds_match_sequential_reference_rounds(g, colors, strategy, k, trials, chunk,
                                                           monkeypatch):
    monkeypatch.setattr(verification, "AGREEMENT_CHUNK", chunk)
    c = GameConfig(k=k, strategy=strategy, seed=trials, enforce_k_bound=False)
    rng, ref = random.Random(trials), random.Random(trials)
    counts = one_round_counts(g, colors, c, rng, trials)
    expected = {}
    for _ in range(trials):
        nxt, _ = reference_round(g, colors, c, ref, 1)
        expected[nxt] = expected.get(nxt, 0) + 1
    assert list(counts.items()) == list(expected.items())  # in order of first appearance
    assert rng.getstate() == ref.getstate()


def test_stacked_outcome_codes_reach_int64_and_are_refused_past_it():
    # two unhappy vertices: outcome codes run up to k**2 - 1
    colors = (0, 0, 1)
    k = math.isqrt(2**63 - 1)
    c = GameConfig(k=k, strategy=Strategy.FRUGAL, seed=3)
    rng, ref = random.Random(3), random.Random(3)
    counts = one_round_counts(TRIANGLE, colors, c, rng, 50)
    expected = {}
    for _ in range(50):
        nxt, _ = step(TRIANGLE, ColoringState(colors, 1), c, ref)
        expected[nxt.colors] = expected.get(nxt.colors, 0) + 1
    assert list(counts.items()) == list(expected.items())
    assert rng.getstate() == ref.getstate()
    before = rng.getstate()
    with pytest.raises(EnumerationLimitError, match=f"{k + 1}\\^2 .* exceed int64"):
        one_round_counts(TRIANGLE, colors, GameConfig(k=k + 1, strategy=Strategy.FRUGAL, seed=3),
                         rng, 50)
    assert rng.getstate() == before


@pytest.mark.parametrize("strategy", list(Strategy))
@pytest.mark.parametrize("n, p", [(40, 0.15), (120, 0.05)])
def test_run_matches_stepwise_reference_on_vectorized_scans(n, p, strategy):
    # n >= VECTOR_SCAN_MIN, so the scans take the numpy path; at n = 120 the
    # rounds start above VECTOR_ROUND_MIN unhappy vertices and fall below it.
    g = erdos_renyi(n, p, seed=n)
    for k in (strategy.min_colors(g.max_degree()), 1000, 2**32 - 1):
        for seed in range(5):
            c = GameConfig(k=k, strategy=strategy, seed=seed, max_rounds=500)
            assert_run_matches_steps(g, c)


def disjoint(parts, n):
    """Disjoint union of graphs on n vertices each, given as edge lists."""
    edges = [(i * n + a, i * n + b) for i, part in enumerate(parts) for a, b in part]
    return from_edge_list(edges, n * len(parts))


K3 = ((0, 1), (0, 2), (1, 2))
STAR4 = ((0, 1), (0, 2), (0, 3))


@pytest.mark.parametrize(
    "g, strategy, k, initial, max_rounds",
    [
        # greedy two-cycles: 2 unhappy vertices per triangle in every round
        pytest.param(disjoint([K3] * 16, 3), Strategy.GREEDY, 3, (0, 0, 1) * 16, 30,
                     id="greedy-trap-at-threshold"),
        pytest.param(disjoint([K3] * 15 + [((0, 1),)], 3), Strategy.GREEDY, 3,
                     (0, 0, 1) * 15 + (0, 0, 2), 30, id="greedy-trap-falls-below-threshold"),
        # forced (stream-free) moves mixed with real draws below the threshold
        pytest.param(disjoint([K3] * 14 + [((0, 1),)], 3), Strategy.GREEDY, 3,
                     (0, 0, 1) * 14 + (0, 0, 2), 30, id="greedy-trap-below-threshold"),
        # the last center sees all three colors: an empty greedy set
        pytest.param(disjoint([STAR4] * 16, 4), Strategy.GREEDY, 3, (0, 0, 1, 1) * 15 + (0, 0, 1, 2),
                     10, id="greedy-palette-covered-vector"),
        pytest.param(disjoint([STAR4] * 2, 4), Strategy.GREEDY, 3, (0, 0, 1, 1, 0, 0, 1, 2),
                     10, id="greedy-palette-covered-scalar"),
        pytest.param(erdos_renyi(60, 0.1, seed=3), Strategy.FRUGAL, 1000, (0,) * 60, 500,
                     id="frugal-k1000-all-equal"),
        pytest.param(erdos_renyi(60, 0.1, seed=3), Strategy.GREEDY, 1000, (7,) * 60, 500,
                     id="greedy-k1000-all-equal"),
    ],
)
@pytest.mark.parametrize("vector_rounds", [False, True])
def test_run_matches_stepwise_reference_on_crafted_starts(g, strategy, k, initial, max_rounds,
                                                         vector_rounds, monkeypatch):
    # vector_rounds plays every round, however few redraw, through the numpy round
    if vector_rounds:
        monkeypatch.setattr(engine, "VECTOR_ROUND_MIN", 1)
    c = GameConfig(k=k, strategy=strategy, seed=4, max_rounds=max_rounds,
                   enforce_k_bound=False, initial=initial)
    assert_run_matches_steps(g, c)


@pytest.mark.parametrize("strategy", list(Strategy))
@pytest.mark.parametrize("copies", [1, 12])
def test_largest_palette_redraws_by_rank(copies, strategy):
    # range(k) would hold 2**32 - 1 colors; ranks need none of them
    g = disjoint([K3] * copies, 3)
    k = 2**32 - 1
    c = GameConfig(k=k, strategy=strategy, seed=9, initial=(0,) * g.n)
    r = run(g, c)
    ref = random.Random(9)
    if strategy is Strategy.FRUGAL:
        expected = tuple(ref.randrange(k) for _ in range(g.n))
    else:
        expected = tuple(1 + ref.randrange(k - 1) for _ in range(g.n))
    assert r.tau == 2
    assert r.final_state.colors == expected
    assert r.min_available == (k if strategy is Strategy.FRUGAL else k - 1)


@pytest.mark.parametrize(
    "seed, bounds",
    [
        (21, [2] * 50),
        (21, [3, 2**32 - 1, 17, 2, 1000, 2**31 + 1, 5] * 40),
        (21, [9]),
        # the first word of seed 0 as a 32-bit bound: that word is rejected
        (0, [random.Random(0).getrandbits(32), 6]),
        # equal bounds, read in bulk: the largest bound (no shift), one that
        # rejects about half its words, a single value, and seed 0's
        # rejected first word as every bound
        (21, [2**32 - 1] * 30),
        (21, [2**31 + 1] * 30),
        (5, [7]),
        (0, [random.Random(0).getrandbits(32)] * 12),
    ],
)
def test_randrange_each_matches_randrange_calls(seed, bounds):
    rng, ref = random.Random(seed), random.Random(seed)
    drawn = engine._randrange_each(rng, np.array(bounds, dtype=np.int64))
    assert drawn.tolist() == [ref.randrange(b) for b in bounds]
    assert rng.getstate() == ref.getstate()


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


# Forced orbits: starts whose rounds stop drawing and come back to a
# coloring, so run() skips whole periods. Each case is (graph, strategy, k,
# initial, seed, orbit entry, period): the coloring of round `entry` recurs
# every `period` rounds, and run() must equal step() at every max_rounds up
# to entry + 3 periods + 1. No case has a period above 2, because a forced
# orbit cannot: a forced frugal player keeps its color, and for greedy the
# count of (u, v) neighbor pairs where u's color equals v's color of the
# round before strictly falls whenever a player does not take back its color
# of two rounds before (its forced color is the only one no neighbor holds),
# so on an orbit every player repeats with period 1 or 2. The eight-vertex
# case instead makes the cycle finder move its anchor twice before it meets
# the repeat.
FORCED_STARTS = [
    pytest.param(TRIANGLE, Strategy.GREEDY, 3, (0, 0, 1), 0, 1, 2, id="greedy-k3-period-2"),
    pytest.param(
        from_edge_list([(0, 2), (0, 4), (0, 5), (1, 3), (1, 5), (1, 7), (2, 3), (5, 7)], 8),
        Strategy.GREEDY, 3, (1, 0, 1, 0, 2, 2, 2, 0), 0, 4, 2,
        id="greedy-8-vertices-entry-4",
    ),
    pytest.param(TRIANGLE, Strategy.FRUGAL, 2, (0, 0, 1), 0, 1, 1, id="frugal-k2-fixed-point"),
    # the edge draws in rounds 1-7 while the triangle alternates
    pytest.param(
        disjoint([K3, ((0, 1),)], 3), Strategy.GREEDY, 3, (0, 0, 1, 0, 0, 0), 3, 8, 2,
        id="trapped-triangle-beside-drawing-edge",
    ),
    # K6 less two edges: rounds 1-8 are forced and drawing in turn, so the
    # coloring of round 2 recurs at rounds 4, 6 and 8 each time across a
    # draw; rounds 9-13 draw while their colorings alternate; the forced
    # orbit starts at round 14
    pytest.param(
        from_edge_list([(u, v) for u in range(6) for v in range(u + 1, 6)
                        if (u, v) not in ((1, 2), (3, 5))], 6),
        Strategy.GREEDY, 3, (0, 1, 0, 1, 0, 0), 1, 14, 2,
        id="forced-runs-broken-by-draws",
    ),
]


@pytest.mark.parametrize("g, strategy, k, initial, seed, entry, period", FORCED_STARTS)
@pytest.mark.parametrize("retention", ["full", "counts"])
@pytest.mark.parametrize("vector_rounds", [False, True])
def test_fast_forward_matches_stepwise_reference(g, strategy, k, initial, seed, entry, period,
                                                 retention, vector_rounds, monkeypatch):
    if vector_rounds:
        monkeypatch.setattr(engine, "VECTOR_ROUND_MIN", 1)
    for max_rounds in range(1, entry + 3 * period + 2):
        c = GameConfig(k=k, strategy=strategy, seed=seed, max_rounds=max_rounds,
                       enforce_k_bound=False, initial=initial)
        assert_run_matches_steps(g, c, retention)


@pytest.mark.parametrize("g, strategy, k, initial, seed, entry, period", FORCED_STARTS[:2])
def test_fast_forward_engages(g, strategy, k, initial, seed, entry, period, monkeypatch):
    calls = 0
    played = engine._scalar_round

    def counted(*args):
        nonlocal calls
        calls += 1
        return played(*args)

    monkeypatch.setattr(engine, "_scalar_round", counted)
    c = GameConfig(k=k, strategy=strategy, seed=seed, max_rounds=10**6,
                   enforce_k_bound=False, initial=initial)
    r = run(g, c, retention="counts")
    assert calls < 50
    # round 10**6 of the orbit repeats round `same`
    same = entry + (10**6 - entry) % period
    last = run(g, GameConfig(k=k, strategy=strategy, seed=seed, max_rounds=same,
                             enforce_k_bound=False, initial=initial))
    assert r.tau is None and r.final_state.colors == last.final_state.colors
    assert r.final_state.round == len(r.history) == 10**6
    assert r.history[-1] == RoundRecord(10**6, None, last.history[-1].happy_count)
    assert r.history.count_range(-1, None).tolist() == last.history.count_range(-1, None).tolist()
    assert r.min_available == 1


def test_trapped_history_stores_only_played_rounds():
    c = GameConfig(k=3, strategy=Strategy.GREEDY, seed=0, max_rounds=10**6 + 1,
                   enforce_k_bound=False, initial=(0, 0, 1))
    h = run(TRIANGLE, c).history
    # rounds 1-4 are stored: the entry and one period of 2, which every later round repeats
    assert h.skip == (2, 10**6 + 1) and len(h) == 10**6 + 1 and len(h._stored) == 4
    assert len(h.count_range(0, 10)) == 10
    assert h[-1] == RoundRecord(10**6 + 1, frozenset({0, 1}), 1)
    counts = h.count_range(0, len(h))
    assert counts.tolist() == [2] * (10**6 + 1) and h.sets == (frozenset({0, 1}),)
    played = History(3, [0] * (10**6 + 1), h.sets)
    assert played.skip is None and played == h and hash(played) == hash(h)
    assert History(3, counts) != h  # counts retention against full retention


def test_history_fields_are_read_only():
    c = GameConfig(k=3, strategy=Strategy.GREEDY, seed=0, max_rounds=10**6 + 1,
                   enforce_k_bound=False, initial=(0, 0, 1))
    h = run(TRIANGLE, c).history
    for name, value in (("skip", None), ("sets", None), ("n", 4)):
        with pytest.raises(AttributeError):
            setattr(h, name, value)
    assert len(h) == 10**6 + 1 and h.skip == (2, 10**6 + 1) and h.n == 3
    assert pickle.loads(pickle.dumps(h)) == h


def test_last_record_of_a_trapped_history_reads_no_whole_array():
    c = GameConfig(k=3, strategy=Strategy.GREEDY, seed=0, max_rounds=10**6,
                   enforce_k_bound=False, initial=(0, 0, 1))
    h = run(TRIANGLE, c).history
    tracemalloc.start()
    try:
        last = h[-1]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert last == RoundRecord(10**6, frozenset({0, 1}), 1)
    assert peak < 2**20


@st.composite
def compact_histories(draw):
    """A History with a skip, its stored entry per round and its unhappy counts."""
    period = draw(st.integers(1, 5))
    at = draw(st.integers(period, 12))
    length = draw(st.integers(at, at + 7 * period - 1))
    sets = draw(st.sampled_from([None, (frozenset(), frozenset({0}), frozenset({1, 2}))]))
    top = 9 if sets is None else len(sets) - 1
    stored = draw(st.lists(st.integers(0, top), min_size=at, max_size=at))
    # the rounds past the stored ones follow the last stored period
    rounds = stored + [stored[at - period + i % period] for i in range(length - at)]
    counts = rounds if sets is None else [len(sets[i]) for i in rounds]
    return History(9, stored, sets, (period, length)), rounds, counts


@settings(max_examples=200, deadline=None)
@given(compact_histories(), st.integers(-70, 70), st.integers(-70, 70))
def test_count_range_is_a_slice_of_the_built_counts(case, lo, hi):
    h, rounds, counts = case
    assert h.count_range(lo, hi).tolist() == counts[lo:hi] and len(h) == len(counts)
    played = History(9, rounds, h.sets)
    records = list(played)
    assert list(h) == records and [h[i] for i in range(-len(h), len(h))] == records * 2
    assert h == played and hash(h) == hash(played)
    assert pickle.loads(pickle.dumps(h)) == h


def test_history_is_an_immutable_sequence():
    c = GameConfig(k=3, strategy=Strategy.GREEDY, seed=0, max_rounds=7,
                   enforce_k_bound=False, initial=(0, 0, 1))
    full, counts = run(TRIANGLE, c), run(TRIANGLE, c, retention="counts")
    records = [RoundRecord(i, frozenset({0, 1}), 1) for i in range(1, 8)]
    assert list(full.history) == records and len(full.history) == 7
    assert full.history[-1] == full.history[6] == records[6]
    assert full.history[2:5] == tuple(records[2:5]) and full.history[::-3] == tuple(records[::-3])
    assert full.history.sets == (frozenset({0, 1}),)  # one distinct set, seven rounds
    with pytest.raises(IndexError):
        full.history[7]
    assert counts.history[0] == RoundRecord(1, None, 1) and counts.history != full.history
    assert full.history == run(TRIANGLE, c).history
    assert len({full.history, run(TRIANGLE, c).history}) == 1
    assert pickle.loads(pickle.dumps(full)) == full
    with pytest.raises(TypeError):
        full.history[0] = records[0]
    with pytest.raises(ValueError):
        counts.history.count_range(0, 3)[0] = 0
