"""Built-in verification suites driven by the `verify` CLI subcommand.

Three families of checks:
  * exact floors: over every conflicted coloring of a small corpus, the
    available-set-size tail probability clears 1/16 and the two-round
    happiness probability clears 1/(2^6 e^5), both in exact arithmetic;
  * engine/oracle agreement: chi-square between rounds of the campaign
    engine, sampled over stacked copies of a graph, and the enumerated
    one-round law;
  * envelope dominance on a fresh campaign of tau samples.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

import numpy as np

from .bounds import check_dominance
from .engine import (
    ColoringState,
    GameConfig,
    Strategy,
    _vector_round,
    check_coloring,
    run,
    unhappy_vertices,
)
from .errors import ConfigError, EnumerationLimitError, check_int
from .graph import Graph, complete_graph, cycle_graph, path_graph, star_graph
from .oracle import (
    _unhappy_list,
    available_size_distribution,
    one_round_distribution,
    two_round_floor_holds,
    two_round_happiness_prob,
)

DEFAULT_SEED = 20260814


@dataclass(frozen=True)
class CorpusInstance:
    name: str
    graph: Graph
    k: int


# Small enough for exact enumeration, varied enough to exercise frozen
# neighbors, saturated palettes (path3 at k=2), and hub topologies.
CORPUS = (
    CorpusInstance("triangle_k3", complete_graph(3), 3),
    CorpusInstance("path3_k2", path_graph(3), 2),
    CorpusInstance("path3_k3", path_graph(3), 3),
    CorpusInstance("cycle4_k3", cycle_graph(4), 3),
    CorpusInstance("star4_k4", star_graph(4), 4),
)

FAST_CORPUS = CORPUS[:2]

# The corpus of each verify level.
LEVELS = {"fast": FAST_CORPUS, "full": CORPUS}


def corpus_for(level: str):
    if level not in LEVELS:
        raise ConfigError(f"level must be one of {tuple(LEVELS)}, got {level!r}")
    return LEVELS[level]


def conflicted_colorings(g: Graph, k: int):
    """Every coloring with at least one monochromatic edge."""
    edges = g.edges()
    for colors in itertools.product(range(k), repeat=g.n):
        if any(colors[u] == colors[v] for u, v in edges):
            yield colors


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    details: dict

    def to_dict(self) -> dict:
        return {"name": self.name, "passed": self.passed, "details": self.details}


def _floor_scan(level: str, law, holds, fields) -> tuple[list, list[dict]]:
    """law at every unhappy vertex of every conflicted coloring of the level's corpus.

    law is called as ``law(graph, state, v, Strategy.FRUGAL, k, cache=cache)``
    with one fresh cache per instance. Returns (every value of law, in
    order; one violation record per value failing holds, which gives its
    instance, coloring and vertex followed by ``fields(value)``).
    """
    values = []
    violations = []
    for inst in corpus_for(level):
        cache: dict = {}
        for colors in conflicted_colorings(inst.graph, inst.k):
            state = ColoringState(colors, 1)
            for v in _unhappy_list(inst.graph, colors):
                value = law(inst.graph, state, v, Strategy.FRUGAL, inst.k, cache=cache)
                values.append(value)
                if not holds(value):
                    violations.append({"instance": inst.name, "coloring": list(colors),
                                       "vertex": v, **fields(value)})
    return values, violations


def check_available_size_floor(level: str = "full") -> CheckResult:
    """Exact tail floor on |available set| after one round, corpus-wide."""
    laws, violations = _floor_scan(
        level, available_size_distribution, lambda law: law.holds,
        lambda law: {"prob": str(law.prob_at_least), "threshold": str(law.threshold)},
    )
    return CheckResult(
        name="available_size_floor",
        passed=not violations,
        details={"level": level, "checked": len(laws), "violations": violations},
    )


def check_two_round_floor(level: str = "full") -> CheckResult:
    """Exact two-round happiness floor, corpus-wide, with the worst case reported."""
    probs, violations = _floor_scan(
        level, two_round_happiness_prob, two_round_floor_holds, lambda prob: {"prob": str(prob)}
    )
    return CheckResult(
        name="two_round_happiness_floor",
        passed=not violations,
        details={
            "level": level,
            "checked": len(probs),
            "violations": violations,
            "min_prob": str(min(probs, default=None)),
        },
    )


# Copies of the graph played in one stacked round: bounds the memory of
# a round whatever the number of trials.
AGREEMENT_CHUNK = 4096


def one_round_counts(
    g: Graph, colors: tuple[int, ...], cfg: GameConfig, rng: random.Random, trials: int
) -> dict[tuple[int, ...], int]:
    """Next colorings of trials independent rounds from colors, counted.

    The rounds are the campaign engine's: each chunk of up to
    AGREEMENT_CHUNK trials is one :func:`_vector_round` over that many
    stacked copies of g, built as CSR arrays, with colors tiled across
    them. The stream is
    read in ascending vertex order, which is copy by copy, so the counts
    and the final state of rng are those of trials sequential rounds.
    Outcomes are keyed in order of first appearance.

    Only the unhappy vertices move, so a copy's outcome is coded as one
    int64: their new colors read as digits in base k. When k^m codes for m
    unhappy vertices would not fit, EnumerationLimitError is raised before
    anything is drawn.
    """
    check_int("trials", trials, 0)
    n, k = g.n, cfg.k
    check_coloring(g, colors, k)
    unhappy = np.array(unhappy_vertices(g, ColoringState(colors, 1)), dtype=np.intp)
    if not unhappy.size:
        return {tuple(colors): trials} if trials else {}
    if k ** unhappy.size >= 2**63:
        raise EnumerationLimitError(
            f"outcome codes k^m = {k}^{unhappy.size} for {unhappy.size} unhappy vertices "
            "exceed int64"
        )
    place = k ** np.arange(unhappy.size - 1, -1, -1, dtype=np.int64)
    offsets, dst = g.offsets(), g.arcs()[1]
    base = np.array(colors, dtype=np.int64)
    counts: dict[tuple[int, ...], int] = {}
    for done in range(0, trials, AGREEMENT_CHUNK):
        copies = np.arange(min(AGREEMENT_CHUNK, trials - done))[:, None]
        stacked_offsets = np.append(offsets[:-1] + len(dst) * copies, len(dst) * len(copies))
        nxt = np.tile(base, len(copies))
        _vector_round(stacked_offsets, (dst + n * copies).ravel(), nxt,
                      (unhappy + n * copies).ravel(), cfg, rng, 1)
        nxt = nxt.reshape(len(copies), n)
        _, first, num = np.unique(nxt[:, unhappy] @ place, return_index=True, return_counts=True)
        order = np.argsort(first)
        for key, count in zip(map(tuple, nxt[first[order]].tolist()), num[order].tolist()):
            counts[key] = counts.get(key, 0) + count
    return counts


# Significance level of the chi-square test in chi_square_agreement.
AGREEMENT_ALPHA = 1e-3


def chi_square_agreement(
    g: Graph,
    colors: tuple[int, ...],
    strategy: Strategy,
    k: int,
    *,
    trials: int = 10**5,
    seed: int = DEFAULT_SEED,
) -> dict:
    """Rounds sampled by :func:`one_round_counts` vs the enumerated law.

    Fails on any outcome the law assigns probability zero, on a
    chi-square statistic above the AGREEMENT_ALPHA critical value, or on
    any per-outcome |z| above 4.
    """
    check_int("trials", trials, 1)
    # the seed is checked as a game's; any palette the law takes is sampled, legal or not
    cfg = GameConfig(k=k, strategy=strategy, seed=seed, enforce_k_bound=False)
    cfg.validate(g)
    dist = one_round_distribution(g, ColoringState(colors, 1), strategy, k)
    expected = {out.colors: float(p) for out, p in dist.support}
    counts = one_round_counts(g, colors, cfg, random.Random(seed), trials)

    unseen = [c for c in counts if c not in expected]
    stat = 0.0
    max_abs_z = 0.0
    for out, p in expected.items():
        obs = counts.get(out, 0)
        exp = trials * p
        stat += (obs - exp) ** 2 / exp
        spread = (trials * p * (1.0 - p)) ** 0.5
        z = 0.0 if spread == 0.0 else (obs - exp) / spread
        max_abs_z = max(max_abs_z, abs(z))
    dof = max(1, len(expected) - 1)
    # Imported here: scipy.special costs every command that never runs
    # this check about 0.3 s of start-up.
    from scipy.special import chdtri

    threshold = float(chdtri(dof, AGREEMENT_ALPHA))
    passed = not unseen and stat <= threshold and max_abs_z <= 4.0
    return {
        "strategy": strategy.value,
        "k": k,
        "trials": trials,
        "chi2": stat,
        "chi2_threshold": threshold,
        "dof": dof,
        "max_abs_z": max_abs_z,
        "unseen_outcomes": [list(c) for c in unseen],
        "passed": passed,
    }


# The agreement suite needs a Greedy instance too: a fault that only
# distorts Greedy sampling would be invisible to a Frugal-only test.
AGREEMENT_INSTANCES = (
    ("triangle_k3_frugal", complete_graph(3), (0, 0, 1), Strategy.FRUGAL, 3),
    ("triangle_k4_greedy", complete_graph(3), (0, 0, 1), Strategy.GREEDY, 4),
)


def check_engine_agreement(seed: int = DEFAULT_SEED) -> CheckResult:
    """chi_square_agreement on each AGREEMENT_INSTANCES entry, instance i at seed + i."""
    per_instance = {}
    ok = True
    for i, (name, g, colors, strategy, k) in enumerate(AGREEMENT_INSTANCES):
        rep = chi_square_agreement(g, colors, strategy, k, seed=seed + i)
        per_instance[name] = rep
        ok = ok and rep["passed"]
    return CheckResult(
        name="engine_oracle_agreement", passed=ok, details=per_instance
    )


# Trials of the frugal triangle campaign check_envelope_dominance samples.
ENVELOPE_TRIALS = 2000


def check_envelope_dominance(seed: int = DEFAULT_SEED) -> CheckResult:
    """Taus of ENVELOPE_TRIALS frugal triangle trials, seed + i, must sit under the envelope."""
    g = complete_graph(3)
    taus = []
    for i in range(ENVELOPE_TRIALS):
        r = run(g, GameConfig(k=3, strategy=Strategy.FRUGAL, seed=seed + i), retention="counts")
        if r.tau is None:
            return CheckResult(
                name="envelope_dominance",
                passed=False,
                details={"error": f"trial {i} timed out"},
            )
        taus.append(r.tau)
    report = check_dominance(taus)
    return CheckResult(
        name="envelope_dominance",
        passed=report.violations == 0,
        details={
            "sample_size": report.sample_size,
            "violations": report.violations,
            "band": report.band,
            "min_margin": min(p.margin for p in report.grid),
            "max_tau": max(taus),
        },
    )


def run_all(level: str = "fast", seed: int = DEFAULT_SEED) -> tuple[bool, list[dict]]:
    """The whole verify suite; returns (all_passed, per-check report).

    A bad seed is refused before any check runs; the campaign of
    check_envelope_dominance would refuse it only after the others.
    """
    check_int("seed", seed, 0)
    checks = [
        check_available_size_floor(level),
        check_two_round_floor(level),
        check_engine_agreement(seed=seed),
        check_envelope_dominance(seed=seed),
    ]
    return all(c.passed for c in checks), [c.to_dict() for c in checks]
