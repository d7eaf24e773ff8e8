"""Acceptance gate: the package's headline guarantees, end to end.

Each test prints one summary line to the real stdout, bypassing pytest's
capture, so a full run leaves an auditable PASS/FAIL transcript; the
same condition is asserted so any violation fails the build. The nine
checks cover: frugal convergence at the minimum legal palette, the
greedy two-cycle below it, both exact probability floors, constant
reproduction against extended precision, envelope dominance, sampled
engine vs enumerated oracle agreement (with fault injection), the run
invariants plus bitwise reproducibility, and the exact expected
convergence round against Monte Carlo.
"""

import math
import random
import statistics
import time
from fractions import Fraction

import numpy as np
import pytest
from mpmath import mp, mpf

import netcolor.engine as engine
from netcolor import (
    ColoringState,
    ExperimentSpec,
    GameConfig,
    Strategy,
    check_dominance,
    complete_graph,
    cycle_graph,
    exact_expected_tau,
    from_edge_list,
    frugal_bounds,
    generate,
    greedy_bound,
    initial_state,
    mu,
    run,
    run_campaign,
    step,
    two_round_happiness_prob,
)
from netcolor.bounds import GREEDY_CONSTANT
from netcolor.verification import (
    check_available_size_floor,
    check_two_round_floor,
    chi_square_agreement,
)

mp.dps = 60
MP_FLOOR = 1 / (mpf(2) ** 6 * mp.e**5)
MP_MU = -mp.log(1 - MP_FLOOR)
MP_C = 1050 * mp.e**9

TRIALS = 10**4
MAX_ROUNDS = 10**4
BASE_SEED = 20260814
TRIANGLE = complete_graph(3)


def _report(capsys, num: int, slug: str, passed: bool, detail: str = "") -> None:
    verdict = "PASS" if passed else "FAIL"
    suffix = f" ({detail})" if detail else ""
    line = f"ACCEPTANCE {num} {slug}: {verdict}{suffix}"
    # capsys.disabled() suspends fd-level capture, so the transcript
    # reaches the real stdout on passing runs too
    with capsys.disabled():
        print(line, flush=True)
    assert passed, line


def _campaign_specs() -> dict[str, ExperimentSpec]:
    er = generate("erdos_renyi", 1000, p=0.008, seed=42)
    graphs = {
        "triangle_k3": (TRIANGLE, "full"),
        "cycle4_k3": (cycle_graph(4), "full"),
        "complete5_k5": (complete_graph(5), "full"),
        "er1000_k19": (er, "counts"),
    }
    return {
        name: ExperimentSpec(
            graph=g,
            k=g.max_degree() + 1,
            strategy=Strategy.FRUGAL,
            trials=TRIALS,
            base_seed=BASE_SEED,
            max_rounds=MAX_ROUNDS,
            retention=retention,
        )
        for name, (g, retention) in graphs.items()
    }


@pytest.fixture(scope="module")
def campaigns():
    """The four minimum-palette frugal campaigns shared by several checks."""
    start = time.perf_counter()
    out = {
        name: (spec, run_campaign(spec))
        for name, spec in _campaign_specs().items()
    }
    out["_wall"] = time.perf_counter() - start
    return out


def _items(campaigns):
    return [(k, v) for k, v in campaigns.items() if k != "_wall"]


def test_1_frugal_converges_at_minimum_palette(campaigns, capsys):
    er_spec = campaigns["er1000_k19"][0]
    bad = [] if er_spec.k == er_spec.graph.max_degree() + 1 == 19 else ["er palette != 19"]
    for name, (spec, res) in _items(campaigns):
        s = res.summary
        if s.timeouts != 0 or s.converged != spec.trials:
            bad.append(f"{name}: {s.timeouts} timeouts")
    means = ", ".join(
        f"{name} mean_tau={res.summary.mean_tau:.3g}" for name, (_, res) in _items(campaigns)
    )
    _report(
        capsys,
        1,
        "frugal-convergence-at-min-palette",
        not bad,
        f"4x{TRIALS} trials, 0 timeouts, {means}, wall {campaigns['_wall']:.1f}s"
        if not bad
        else "; ".join(bad),
    )


def test_2_greedy_two_cycle_below_minimum_palette(capsys):
    cfg = GameConfig(
        k=3, strategy=Strategy.GREEDY, seed=7, max_rounds=MAX_ROUNDS,
        enforce_k_bound=False, initial=(0, 0, 1),
    )
    outcomes = []
    for seed in (7, 99, BASE_SEED):
        r = run(TRIANGLE, GameConfig(
            k=3, strategy=Strategy.GREEDY, seed=seed, max_rounds=MAX_ROUNDS,
            enforce_k_bound=False, initial=(0, 0, 1),
        ))
        outcomes.append((r.tau, r.final_state.colors, r.history))
    never_converges = all(tau is None for tau, _, _ in outcomes)
    seed_free = len(set(outcomes)) == 1  # forced moves cannot depend on the stream

    rng = random.Random(cfg.seed)
    s = initial_state(TRIANGLE, cfg, rng)
    exact_cycle = True
    for rnd in range(2, MAX_ROUNDS + 1):
        s, rec = step(TRIANGLE, s, cfg, rng)
        want = (2, 2, 1) if rnd % 2 == 0 else (0, 0, 1)
        if s.colors != want or rec.unhappy != frozenset({0, 1}):
            exact_cycle = False
            break
    _report(
        capsys,
        2,
        "greedy-two-cycle-below-min-palette",
        never_converges and seed_free and exact_cycle,
        f"no convergence in {MAX_ROUNDS} rounds; exact (0,0,1)<->(2,2,1) alternation, seed-independent",
    )


def test_3_available_size_tail_floor_exact(capsys):
    res = check_available_size_floor("full")
    ok = res.passed and res.details["checked"] == 612
    _report(
        capsys,
        3,
        "available-size-tail-floor",
        ok,
        f"{res.details['checked']} unhappy-vertex cases, "
        f"{len(res.details['violations'])} violations, exact rationals",
    )


def test_4_two_round_happiness_floor_exact(capsys):
    res = check_two_round_floor("full")
    pinned = two_round_happiness_prob(
        TRIANGLE, ColoringState((0, 0, 1), 1), 0, Strategy.FRUGAL, 3
    )
    ok = res.passed and res.details["checked"] == 612 and pinned == Fraction(3, 4)
    _report(
        capsys,
        4,
        "two-round-happiness-floor",
        ok,
        f"{res.details['checked']} cases, 0 violations, worst={res.details['min_prob']}, "
        f"triangle pinned case={pinned}",
    )


def test_5_constants_match_extended_precision(capsys):
    errs = [abs((mpf(mu()) - MP_MU) / MP_MU)]
    for n in (2, 10, 1000, 10**6):
        rep = frugal_bounds(n)
        errs.append(abs((mpf(rep.e_t_bound) - 2 * (1 + mp.log(n)) / MP_MU) / rep.e_t_bound))
        errs.append(abs((mpf(rep.var_t_bound) - 4 * n / MP_MU**2) / rep.var_t_bound))
    for n, delta in ((10, 0.01), (1000, 1e-6), (10**6, 0.5)):
        ref = MP_C * mp.log(mpf(n) / mpf(delta))
        errs.append(abs((mpf(greedy_bound(n, delta)) - ref) / ref))
    errs.append(abs((mpf(GREEDY_CONSTANT) - MP_C) / MP_C))
    worst = float(max(errs))
    ok = f"{mu():.3g}" == "0.000105" and worst <= 1e-12
    _report(
        capsys,
        5,
        "constant-reproduction",
        ok,
        f"mu prints 0.000105, max rel err vs 60-digit reference {worst:.2e}",
    )


def test_6_envelope_dominates_every_campaign(campaigns, capsys):
    bad = []
    details = []
    for name, (spec, res) in _items(campaigns):
        bound = frugal_bounds(spec.graph.n).e_t_bound
        mean = res.summary.mean_tau
        taus = [r.tau for r in res.results]
        rep = check_dominance(taus)
        min_margin = min(p.margin for p in rep.grid)
        details.append(f"{name}: mean/bound={mean / bound:.2e}, min margin={min_margin:.4f}")
        if mean > bound or rep.violations != 0:
            bad.append(f"{name}: mean={mean}, bound={bound}, violations={rep.violations}")
    _report(capsys, 6, "exponential-envelope-dominance", not bad,
            "; ".join(details) if not bad else "; ".join(bad))


def test_7_engine_agrees_with_oracle_and_faults_are_caught(monkeypatch, capsys):
    # distinct seeds: both laws are uniform over four outcomes, so equal
    # seeds would make the two statistics identical rather than independent
    frugal = chi_square_agreement(
        TRIANGLE, (0, 0, 1), Strategy.FRUGAL, 3, trials=10**5, seed=BASE_SEED
    )
    greedy = chi_square_agreement(
        TRIANGLE, (0, 0, 1), Strategy.GREEDY, 4, trials=10**5, seed=BASE_SEED + 1
    )

    real = engine._draw_ranks

    def truncated(rng, sizes):
        # every set of two or more colors loses its largest
        if isinstance(sizes, list):
            return real(rng, [s - (s > 1) for s in sizes])
        return real(rng, sizes - (sizes > 1))

    def greedy_keeps_color(strategy):
        return True

    # each fault must also change what campaigns play, not only the check;
    # under the first, both players of the frugal game always take color 0
    frugal_cfg = GameConfig(k=3, strategy=Strategy.FRUGAL, seed=BASE_SEED, max_rounds=100,
                            initial=(0, 0, 1))
    greedy_cfg = GameConfig(k=4, strategy=Strategy.GREEDY, seed=BASE_SEED, initial=(0, 0, 1))
    clean_frugal, clean_greedy = run(TRIANGLE, frugal_cfg), run(TRIANGLE, greedy_cfg)
    with monkeypatch.context() as m:
        m.setattr(engine, "_draw_ranks", truncated)
        biased = chi_square_agreement(TRIANGLE, (0, 0, 1), Strategy.FRUGAL, 3, trials=10**4)
        biased_run = run(TRIANGLE, frugal_cfg)
    with monkeypatch.context() as m:
        m.setattr(engine, "_keeps_own", greedy_keeps_color)
        widened = chi_square_agreement(TRIANGLE, (0, 0, 1), Strategy.GREEDY, 4, trials=10**4)
        widened_run = run(TRIANGLE, greedy_cfg)

    ok = (
        frugal["passed"]
        and greedy["passed"]
        and not biased["passed"]
        and not widened["passed"]
        and widened["unseen_outcomes"]
        and biased_run != clean_frugal
        and widened_run != clean_greedy
    )
    _report(
        capsys,
        7,
        "oracle-engine-agreement",
        ok,
        f"clean chi2 frugal={frugal['chi2']:.2f} greedy={greedy['chi2']:.2f} "
        f"(threshold {frugal['chi2_threshold']:.2f}); both injected faults caught",
    )


def test_8_invariants_and_bitwise_reproducibility(campaigns, tmp_path, capsys):
    bad = []
    for name, (spec, res) in _items(campaigns):
        for r in res.results:
            if r.min_available is not None and r.min_available < 2:
                bad.append(f"{name}: available set shrank to {r.min_available}")
                break
        if spec.retention == "full":
            for r in res.results:
                for a, b in zip(r.history, r.history[1:]):
                    if not b.unhappy <= a.unhappy:
                        bad.append(f"{name}: unhappy set grew in trial seed {r.seed}")
                        break
        else:
            for r in res.results:
                counts = [rec.happy_count for rec in r.history]
                if any(b < a for a, b in zip(counts, counts[1:])):
                    bad.append(f"{name}: happy count dropped in trial seed {r.seed}")
                    break

    for name, (spec, res) in _items(campaigns):
        if name == "er1000_k19":
            continue
        edges = spec.graph.edges()
        for r in res.results:
            colors = r.final_state.colors
            if any(colors[u] == colors[v] for u, v in edges):
                bad.append(f"{name}: improper final coloring at seed {r.seed}")
                break
    er_spec, er_res = campaigns["er1000_k19"]
    edge_arr = np.asarray(er_spec.graph.edges(), dtype=np.int64)
    finals = np.asarray([r.final_state.colors for r in er_res.results], dtype=np.int16)
    clashes = int((finals[:, edge_arr[:, 0]] == finals[:, edge_arr[:, 1]]).sum())
    if clashes:
        bad.append(f"er1000_k19: {clashes} monochromatic final edges")

    for name, (spec, res) in _items(campaigns):
        if run_campaign(spec).results != res.results:
            bad.append(f"{name}: re-run differs")
    first, second = tmp_path / "a.csv", tmp_path / "b.csv"
    tri_spec = campaigns["triangle_k3"][0]
    run_campaign(tri_spec, out=str(first))
    run_campaign(tri_spec, out=str(second))
    if first.read_bytes() != second.read_bytes():
        bad.append("triangle trial CSV bytes differ between runs")

    _report(
        capsys,
        8,
        "run-invariants-and-reproducibility",
        not bad,
        f"{4 * TRIALS} trials: min available >= 2, happiness monotone, "
        "all finals proper, re-runs bitwise identical"
        if not bad
        else "; ".join(bad),
    )


def test_9_exact_expected_tau_matches_monte_carlo(capsys):
    cases = [
        ("single_edge_k2", from_edge_list([(0, 1)], 2), 2, 2.0),
        ("triangle_k3", TRIANGLE, 3, 21 / 8),
    ]
    bad = []
    details = []
    for name, g, k, frozen in cases:
        exact = exact_expected_tau(g, GameConfig(k=k, strategy=Strategy.FRUGAL, seed=0))
        res = run_campaign(
            ExperimentSpec(
                graph=g, k=k, strategy=Strategy.FRUGAL, trials=10**5,
                base_seed=777, retention="counts",
            )
        )
        taus = [r.tau for r in res.results]
        mean = statistics.fmean(taus)
        se = statistics.stdev(taus) / math.sqrt(len(taus))
        z = abs(mean - exact.expected) / se
        details.append(f"{name}: exact={exact.expected:.6f}, mc={mean:.4f}, z={z:.2f}")
        # the chain solver promises residual <= 1e-10, not the last ulp
        if not math.isclose(exact.expected, frozen, rel_tol=1e-9) or z > 3.0:
            bad.append(f"{name}: exact={exact.expected}, frozen={frozen}, z={z:.2f}")
    _report(capsys, 9, "exact-expected-tau-crosscheck", not bad,
            "; ".join(details if not bad else bad))
