import dataclasses
import json
import random
from fractions import Fraction

import pytest

import netcolor.engine as engine
import netcolor.oracle as oracle
from netcolor import (
    ColoringState,
    ConfigError,
    GameConfig,
    Strategy,
    available_size_distribution,
    complete_graph,
    run,
    two_round_happiness_prob,
    verification,
)
from netcolor.cli import main
from netcolor.verification import (
    AGREEMENT_INSTANCES,
    CORPUS,
    DEFAULT_SEED,
    FAST_CORPUS,
    check_available_size_floor,
    check_engine_agreement,
    check_envelope_dominance,
    check_two_round_floor,
    chi_square_agreement,
    conflicted_colorings,
    corpus_for,
    one_round_counts,
    run_all,
)


def test_corpus_shape():
    assert [inst.name for inst in CORPUS] == [
        "triangle_k3", "path3_k2", "path3_k3", "cycle4_k3", "star4_k4"
    ]
    for inst in CORPUS:
        # path3_k2 deliberately saturates the palette (k == max degree);
        # the floors must survive even that squeeze
        floor_gap = 0 if inst.name == "path3_k2" else 1
        assert inst.k >= inst.graph.max_degree() + floor_gap
    assert FAST_CORPUS == CORPUS[:2]
    assert corpus_for("full") == CORPUS
    with pytest.raises(ValueError, match="level"):
        corpus_for("medium")


def test_conflicted_coloring_counts():
    by_name = {inst.name: inst for inst in CORPUS}
    # total colorings minus proper colorings, counted by hand
    assert len(list(conflicted_colorings(*_gk(by_name["triangle_k3"])))) == 27 - 6
    assert len(list(conflicted_colorings(*_gk(by_name["path3_k2"])))) == 8 - 2
    assert len(list(conflicted_colorings(*_gk(by_name["star4_k4"])))) == 256 - 108
    tri = by_name["triangle_k3"]
    for colors in conflicted_colorings(tri.graph, tri.k):
        assert any(colors[u] == colors[v] for u, v in tri.graph.edges())


def _gk(inst):
    return inst.graph, inst.k


def test_available_size_floor_full_corpus():
    res = check_available_size_floor("full")
    assert res.passed
    assert res.details["checked"] == 612
    assert res.details["violations"] == []


def test_two_round_floor_full_corpus():
    res = check_two_round_floor("full")
    assert res.passed
    assert res.details["checked"] == 612
    assert res.details["violations"] == []
    assert res.details["min_prob"] == str(Fraction(9, 16))


def test_floor_checks_report_every_violation(monkeypatch, capsys):
    # a size-law floor no probability clears, and a two-round floor only certainty clears
    monkeypatch.setattr(oracle, "AVAILABLE_SIZE_FLOOR", Fraction(2))
    monkeypatch.setattr(verification, "two_round_floor_holds", lambda prob: prob >= 1)
    size, two = check_available_size_floor("fast"), check_two_round_floor("fast")
    assert size.passed is False and two.passed is False
    assert len(size.details["violations"]) == size.details["checked"]
    assert two.details["violations"]
    by_name = {inst.name: inst for inst in FAST_CORPUS}
    for res, keys in ((size, {"threshold"}), (two, set())):
        for violation in res.details["violations"]:
            assert set(violation) == {"instance", "coloring", "vertex", "prob"} | keys
            inst = by_name[violation["instance"]]
            state = ColoringState(tuple(violation["coloring"]), 1)
            args = (inst.graph, state, violation["vertex"], Strategy.FRUGAL, inst.k)
            if keys:
                law = available_size_distribution(*args)
                assert violation["prob"] == str(law.prob_at_least)
                assert violation["threshold"] == str(law.threshold)
            else:
                assert Fraction(violation["prob"]) == two_round_happiness_prob(*args) < 1
    assert main(["verify", "--level", "fast"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert [c["passed"] for c in payload["checks"]] == [False, False, True, True]


def test_fast_level_is_a_subset():
    fast = check_available_size_floor("fast")
    full = check_available_size_floor("full")
    assert fast.passed
    assert 0 < fast.details["checked"] < full.details["checked"]


def test_chi_square_report_fields():
    name, g, colors, strategy, k = AGREEMENT_INSTANCES[0]
    rep = chi_square_agreement(g, colors, strategy, k, trials=20000)
    assert rep["passed"]
    assert rep["unseen_outcomes"] == []
    assert rep["chi2"] <= rep["chi2_threshold"]
    assert rep["max_abs_z"] <= 4.0
    assert rep["dof"] == 3  # four equally likely outcomes
    # a negative sample would pass with a negative chi2, and an empty one divide by zero
    for trials in (-5, 0):
        with pytest.raises(ConfigError, match="trials must be >= 1"):
            chi_square_agreement(g, colors, strategy, k, trials=trials)
    # a proper start is counted without drawing, so it must be refused up front
    rng = random.Random(0)
    before = rng.getstate()
    with pytest.raises(ConfigError, match="trials must be >= 0"):
        one_round_counts(g, (0, 1, 2), GameConfig(k=k, strategy=strategy, seed=0), rng, -5)
    assert rng.getstate() == before
    assert one_round_counts(g, colors, GameConfig(k=k, strategy=strategy, seed=0), rng, 0) == {}


@pytest.mark.parametrize(
    "colors,message",
    [
        ((0, 0, 5), "color 5 at vertex 2 outside"),
        ((0, 0, -1), "color -1 at vertex 2 outside"),
        ((0, 0, 1, 2), "4 entries for n=3"),
        ((0, 0), "2 entries for n=3"),
        ((0, 0, 1.5), "color 1.5 at vertex 2 is not an integer"),
    ],
)
def test_agreement_refuses_what_is_not_a_state_of_the_game(colors, message):
    name, g, _, strategy, k = AGREEMENT_INSTANCES[0]
    with pytest.raises(ConfigError, match=message):
        chi_square_agreement(g, colors, strategy, k, trials=100)
    rng = random.Random(0)
    before = rng.getstate()
    with pytest.raises(ConfigError, match=message):
        one_round_counts(g, colors, GameConfig(k=k, strategy=strategy, seed=0), rng, 100)
    assert rng.getstate() == before


def test_agreement_covers_both_strategies():
    strategies = {inst[3] for inst in AGREEMENT_INSTANCES}
    assert strategies == {Strategy.FRUGAL, Strategy.GREEDY}
    res = check_engine_agreement()
    assert res.passed
    assert set(res.details) == {"triangle_k3_frugal", "triangle_k4_greedy"}


def drop_last_candidate(real):
    """_draw_ranks as if every set of two or more colors lost its largest."""

    def patched(rng, sizes):
        if isinstance(sizes, list):
            return real(rng, [s - (s > 1) for s in sizes])
        return real(rng, sizes - (sizes > 1))

    return patched


def test_greedy_sampling_fault_is_caught(monkeypatch):
    """A fault that keeps Greedy's own color out of its excluded set, as
    Frugal does, is invisible to the Frugal instance; the Greedy instance
    must fail it. The same patch changes what campaigns play."""
    c = GameConfig(k=4, strategy=Strategy.GREEDY, seed=0, initial=(0, 0, 1))
    clean = run(complete_graph(3), c)
    monkeypatch.setattr(engine, "_keeps_own", lambda strategy: True)
    frugal_name, g, colors, strategy, k = AGREEMENT_INSTANCES[0]
    assert chi_square_agreement(g, colors, strategy, k, trials=10000)["passed"]
    greedy_name, g, colors, strategy, k = AGREEMENT_INSTANCES[1]
    rep = chi_square_agreement(g, colors, strategy, k, trials=10000)
    assert not rep["passed"]
    assert rep["unseen_outcomes"]  # kept-color outcomes have probability zero
    assert run(complete_graph(3), c) != clean


def test_biased_sampling_fault_is_caught(monkeypatch):
    """Dropping the last candidate skews the law without new outcomes."""
    # the faulty run never converges: both players always take color 0
    c = GameConfig(k=3, strategy=Strategy.FRUGAL, seed=0, max_rounds=100, initial=(0, 0, 1))
    clean = run(complete_graph(3), c)
    monkeypatch.setattr(engine, "_draw_ranks", drop_last_candidate(engine._draw_ranks))
    name, g, colors, strategy, k = AGREEMENT_INSTANCES[0]
    rep = chi_square_agreement(g, colors, strategy, k, trials=10000)
    assert not rep["passed"]
    assert run(complete_graph(3), c) != clean


def test_envelope_dominance_check():
    res = check_envelope_dominance()
    assert res.passed
    assert res.details["violations"] == 0
    assert res.details["sample_size"] == 2000
    assert res.details["min_margin"] > 0


def test_envelope_dominance_reports_a_timed_out_trial(monkeypatch, capsys):
    real_run = verification.run

    def fourth_trial_times_out(g, cfg, **kwargs):
        result = real_run(g, cfg, **kwargs)
        return dataclasses.replace(result, tau=None) if cfg.seed == DEFAULT_SEED + 3 else result

    monkeypatch.setattr(verification, "run", fourth_trial_times_out)
    res = check_envelope_dominance()
    assert res.passed is False
    assert res.details == {"error": "trial 3 timed out"}
    assert main(["verify", "--level", "fast"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert [c["passed"] for c in payload["checks"]] == [True, True, True, False]


def test_run_all_fast():
    passed, report = run_all("fast")
    assert passed is True
    assert [c["name"] for c in report] == [
        "available_size_floor",
        "two_round_happiness_floor",
        "engine_oracle_agreement",
        "envelope_dominance",
    ]
    for check in report:
        assert check["passed"] is True
        assert isinstance(check["details"], dict)
