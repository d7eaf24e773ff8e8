"""Monte Carlo campaigns: seeded trial batches, summaries, and CSV output.

Trial i always uses seed base_seed + i, so any subset of a campaign can
be reproduced in isolation and parallel execution is byte-identical to
sequential execution.
"""

from __future__ import annotations

import hashlib
import json
import math
import statistics
import time
from dataclasses import dataclass

import numpy as np

from .bounds import frugal_bounds
from .engine import (DEFAULT_MAX_ROUNDS, HISTORY_BLOCK, GameConfig, Strategy,
                     TrialResult, is_proper, run)
from .errors import ConfigError, ContractViolation, check_int
from .graph import Graph, format_edge_list, generate_sizes, int_rows

# Each k rule's palette size less the graph's max degree.
_K_RULE_OFFSETS = {"delta+1": 1, "delta+2": 2}
K_RULES = tuple(_K_RULE_OFFSETS)


def resolve_k(g: Graph, strategy: Strategy, k: int | None = None, k_rule: str | None = None) -> int:
    """Turn an explicit k or a rule, one of K_RULES, into a palette size for this graph.

    A rule adds its offset to the max degree. With neither given, the
    strategy's minimum legal palette is used.
    """
    if k is not None and k_rule is not None:
        raise ConfigError("give either k or k_rule, not both")
    if k is not None:
        return k
    if k_rule is None:
        return strategy.min_colors(g.max_degree())
    if k_rule not in _K_RULE_OFFSETS:
        raise ConfigError(f"unknown k rule {k_rule!r}; choose from {K_RULES}")
    return g.max_degree() + _K_RULE_OFFSETS[k_rule]


@dataclass(frozen=True)
class ExperimentSpec:
    """A resolved campaign: graph, palette, strategy, and trial plan."""

    graph: Graph
    k: int
    strategy: Strategy
    trials: int
    base_seed: int
    max_rounds: int = DEFAULT_MAX_ROUNDS
    retention: str = "counts"
    allow_illegal_k: bool = False
    initial: tuple[int, ...] | None = None

    def validate(self) -> None:
        check_int("trials", self.trials, 1)
        self.trial_config(0).validate(self.graph)

    def trial_config(self, trial: int) -> GameConfig:
        return GameConfig(
            k=self.k,
            strategy=self.strategy,
            seed=self.base_seed + trial,
            max_rounds=self.max_rounds,
            enforce_k_bound=not self.allow_illegal_k,
            initial=self.initial,
        )

    def content_hash(self) -> str:
        """Stable digest of everything that determines campaign output."""
        payload = json.dumps(
            {
                "graph": hashlib.sha256(format_edge_list(self.graph).encode()).hexdigest(),
                "k": self.k,
                "strategy": self.strategy.value,
                "trials": self.trials,
                "base_seed": self.base_seed,
                "max_rounds": self.max_rounds,
                "retention": self.retention,
                "initial": list(self.initial) if self.initial is not None else None,
            },
            sort_keys=True,
        )
        return hashlib.sha256(payload.encode()).hexdigest()


@dataclass(frozen=True)
class CampaignSummary:
    """Aggregate view of one campaign.

    tau statistics cover converged trials only; the converged count says
    how many that is. Timeout trials contribute the mean residual unhappy
    count instead.
    """

    n: int
    delta: int
    k: int
    strategy: str
    trials: int
    converged: int
    timeouts: int
    mean_tau: float | None
    median_tau: float | None
    q95_tau: float | None
    max_tau: int | None
    mean_final_unhappy_on_timeout: float | None
    wall_time: float
    spec_hash: str

    def to_dict(self) -> dict:
        return dict(self.__dict__)

    def human_line(self) -> str:
        """One-line summary, 4 significant digits."""
        mt = "n/a" if self.mean_tau is None else f"{self.mean_tau:.4g}"
        q = "n/a" if self.q95_tau is None else f"{self.q95_tau:.4g}"
        return (
            f"n={self.n} k={self.k} {self.strategy}: {self.converged}/{self.trials} converged, "
            f"mean_tau={mt} q95={q} timeouts={self.timeouts} ({self.wall_time:.4g}s)"
        )


@dataclass(frozen=True)
class CampaignResult:
    summary: CampaignSummary
    results: tuple[TrialResult, ...]


_WORKER: dict = {}


def _init_worker(spec: ExperimentSpec) -> None:
    _WORKER["spec"] = spec


def _run_indexed(trial: int) -> TrialResult:
    spec: ExperimentSpec = _WORKER["spec"]
    return run(spec.graph, spec.trial_config(trial), retention=spec.retention)


def run_campaign(
    spec: ExperimentSpec,
    *,
    jobs: int = 1,
    out: str | None = None,
    rounds_out: str | None = None,
) -> CampaignResult:
    """Execute every trial of the spec, in order or across a worker pool.

    Output is identical either way because each trial is a pure function
    of (graph, base_seed + index). Every converged trial's final coloring
    is re-validated as proper.
    """
    spec.validate()
    check_int("jobs", jobs, 1)
    start = time.perf_counter()
    if jobs == 1:
        results = [
            run(spec.graph, spec.trial_config(i), retention=spec.retention)
            for i in range(spec.trials)
        ]
    else:
        from concurrent.futures import ProcessPoolExecutor  # worker pools only

        chunk = max(1, spec.trials // (jobs * 8))
        with ProcessPoolExecutor(
            max_workers=jobs, initializer=_init_worker, initargs=(spec,)
        ) as pool:
            results = list(pool.map(_run_indexed, range(spec.trials), chunksize=chunk))
    wall = time.perf_counter() - start

    for i, r in enumerate(results):
        if r.tau is not None and not is_proper(spec.graph, r.final_state.colors):
            raise ContractViolation(f"trial {i} converged but its coloring is not proper")

    summary = summarize(spec, results, wall)
    if out is not None:
        write_trials_csv(out, results)
    if rounds_out is not None:
        write_rounds_csv(rounds_out, results)
    return CampaignResult(summary=summary, results=tuple(results))


def summarize(spec: ExperimentSpec, results, wall_time: float) -> CampaignSummary:
    taus = [r.tau for r in results if r.tau is not None]
    timeouts = [r for r in results if r.tau is None]
    residuals = [spec.graph.n - r.history[-1].happy_count for r in timeouts]
    return CampaignSummary(
        n=spec.graph.n,
        delta=spec.graph.max_degree(),
        k=spec.k,
        strategy=spec.strategy.value,
        trials=spec.trials,
        converged=len(taus),
        timeouts=len(timeouts),
        mean_tau=statistics.fmean(taus) if taus else None,
        median_tau=float(statistics.median(taus)) if taus else None,
        q95_tau=float(quantile_95(taus)) if taus else None,
        max_tau=max(taus) if taus else None,
        mean_final_unhappy_on_timeout=statistics.fmean(residuals) if residuals else None,
        wall_time=wall_time,
        spec_hash=spec.content_hash(),
    )


def quantile_95(values) -> float:
    """Empirical 0.95 quantile: smallest x with at least 95% of mass at or below.

    That is numpy's inverted_cdf method, which returns a sample, never an
    interpolation between two.
    """
    return np.quantile(values, 0.95, method="inverted_cdf")


def write_trials_csv(path: str, results) -> None:
    """Per-trial CSV, schema trial,seed,tau,timeout,rounds_run; stable bytes."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("trial,seed,tau,timeout,rounds_run\n")
        for i, r in enumerate(results):
            tau = "" if r.tau is None else str(r.tau)
            timeout = "true" if r.tau is None else "false"
            fh.write(f"{i},{r.seed},{tau},{timeout},{r.final_state.round}\n")


def write_rounds_csv(path: str, results) -> None:
    """Long-format per-round unhappy counts: trial,round,unhappy_count.

    Rows are read from each history with History.count_range and written
    a bounded piece at a time, so memory stays O(HISTORY_BLOCK + SPAN)
    even for a trial whose forced orbit was skipped: trials of fewer than
    SPAN rounds whole, gathered into blocks of at least HISTORY_BLOCK
    rows, a longer one in fixed-width pieces of at most SPAN rows.
    """
    with open(path, "wb") as fh:
        fh.write(b"trial,round,unhappy_count\n")
        for rows in _round_rows(results):
            fh.write(rows)


# A trial of at least SPAN rounds is written in pieces whose round numbers
# all have the same digits: rounds [10^(d-1), 10^d) for d = 1..4, then
# one aligned span [a * SPAN, (a + 1) * SPAN) at a time, each round of
# span a being the digits of a followed by the four digits of its offset.
SPAN = 10**4


def _round_rows(results):
    """Yield the rows of every trial's rounds, in order, as bytes-like objects.

    Whole trials of fewer than SPAN rounds go into a block for `int_rows`,
    yielded once it holds at least HISTORY_BLOCK rows or a longer trial
    comes, which goes through `_long_trial_rows`.
    """
    pending, filled = [], 0  # (trial, counts) of the next block, and its rows
    for i, r in enumerate(results):
        rounds = len(r.history)
        if rounds < SPAN:
            pending.append((i, r.history.count_range(0, rounds)))
            filled += rounds
        if pending and (filled >= HISTORY_BLOCK or rounds >= SPAN):
            yield int_rows(_block_columns(pending))
            pending, filled = [], 0
        if rounds >= SPAN:
            yield from _long_trial_rows(i, r.history)
    if pending:
        yield int_rows(_block_columns(pending))


def _long_trial_rows(trial: int, history):
    """Yield the rows of a trial of at least SPAN rounds, one `_span_rows` piece at a time.

    Rounds 1..SPAN - 1 are four pieces, one per number of digits, then
    each span follows. A span is instead copied from the one before it,
    by `_copy_span`, when that one lies wholly after the stored rounds,
    the skipped orbit's period divides SPAN and its counts have one
    width, and both span numbers have as many digits: the two spans then
    hold the same counts at every offset.
    """
    prefix = b"%d," % trial
    head = history.count_range(0, SPAN - 1)
    for d in range(1, 5):
        first = 10 ** (d - 1)
        yield _span_rows(prefix, d, first, head[first - 1 : 10 * first - 1])
    rounds, stored = len(history), history.stored_rounds
    period = history.skip[0] if history.skip is not None else 0
    repeats = (period > 0 and SPAN % period == 0
               and _width(history.count_range(stored - period, stored)) is not None)
    rows, lead = None, b""
    for a in range(1, rounds // SPAN + 1):
        lo, number = a * SPAN - 1, b"%d" % a  # lo: the index of round a * SPAN
        hi = min(lo + SPAN, rounds)
        if repeats and lo - SPAN >= stored and len(number) == len(lead):
            rows = _copy_span(rows, len(prefix), number, hi - lo)
        else:
            rows = _span_rows(prefix + number, 4, 0, history.count_range(lo, hi))
        lead = number
        yield rows


def _block_columns(pending):
    """The trial, round and count columns of whole trials, each from round 1."""
    trials, counts = zip(*pending)
    lengths = np.array([len(c) for c in counts])
    starts = np.cumsum(lengths) - lengths  # row of each trial's round 1
    rounds = np.arange(1, lengths.sum() + 1) - np.repeat(starts, lengths)
    return np.repeat(trials, lengths), rounds, np.concatenate(counts)


# "0000".."9999": the four ASCII digits of each offset in a span, one row each
_OFFSET_DIGITS = np.stack(
    np.meshgrid(*[np.arange(48, 58, dtype=np.uint8)] * 4, indexing="ij"), axis=-1
).reshape(SPAN, 4)


def _width(counts: np.ndarray) -> int | None:
    """The number of digits every count has, or None when they differ."""
    width = len(str(int(counts.max())))
    return width if len(str(int(counts.min()))) == width else None


def _span_rows(prefix: bytes, digits: int, first_offset: int, counts) -> bytes | bytearray:
    """Row j: prefix, the last `digits` digits of offset first_offset + j, ",", counts[j].

    The prefix is "trial," followed by the round's leading digits, if
    any. When every count has the same number of digits, every row has
    the same width: the template row "prefix0..0,0..0\\n" is repeated,
    the round digits are copied from _OFFSET_DIGITS into their columns,
    and the count digits are written over the zeros. Otherwise the piece
    goes through `int_rows`.
    """
    m = len(counts)
    width = _width(counts)
    if width is None:
        trial, lead = prefix.split(b",")
        first = int(lead + b"%0*d" % (digits, first_offset))
        return int_rows((np.full(m, int(trial)), np.arange(first, first + m), counts))
    template = prefix + b"0" * digits + b"," + b"0" * width + b"\n"
    row = len(template)
    rows = bytearray(template) * m
    table = np.frombuffer(rows, np.uint8).reshape(m, row)
    # a column at a time: one (m, digits) slice assignment took 3x as long
    for pos, col in enumerate(range(4 - digits, 4), len(prefix)):
        table[:, pos] = _OFFSET_DIGITS[first_offset : first_offset + m, col]
    q = counts
    for pos in range(row - 2, row - 1 - width, -1):
        nxt = q // 10
        table[:, pos] = q - nxt * 10 + 48
        q = nxt
    table[:, row - 1 - width] = q + 48  # the leading digit, below 10
    return rows


def _copy_span(previous: bytearray, at: int, number: bytes, m: int) -> bytearray:
    """A new buffer: the first m rows of the fixed-width span previous, with
    the span number that starts at byte `at` of each row replaced by number."""
    row = len(previous) // SPAN
    rows = previous[: m * row]
    table = np.frombuffer(rows, np.uint8).reshape(m, row)
    for pos, digit in enumerate(number, at):  # a column per digit, as in _span_rows
        table[:, pos] = digit
    return rows


SWEEP_COLUMNS = (
    "n",
    "delta",
    "k",
    "strategy",
    "trials",
    "converged",
    "timeouts",
    "mean_tau",
    "median_tau",
    "q95_tau",
    "max_tau",
    "e_t_bound",
)


def sweep(
    ns,
    family: str,
    strategy: Strategy,
    *,
    k: int | None = None,
    k_rule: str | None = None,
    trials: int = 100,
    base_seed: int = 0,
    p: float | None = None,
    avg_degree: float = 8.0,
    graph_seed: int | None = None,
    max_rounds: int = DEFAULT_MAX_ROUNDS,
    jobs: int = 1,
) -> list[dict]:
    """One campaign per n, plus the closed-form envelope column.

    For erdos_renyi sweeps, a fixed p overrides the default policy of
    holding the expected degree at avg_degree across n; the fixed families
    ignore p and the graph seed. Every size's graph is built by one
    generate_sizes call, so erdos_renyi sizes share one read of the graph
    seed's stream, and every palette and campaign is validated before the
    first campaign runs.
    """
    if p is None and not (math.isfinite(avg_degree) and avg_degree >= 0):
        # min(1.0, inf / n) and min(1.0, nan) are both 1: complete graphs
        raise ConfigError(f"avg_degree must be finite and >= 0, got {avg_degree}")
    ns = list(ns)
    for n in ns:
        check_int("n", n, 1)
    sizes = [(n, p if p is not None else min(1.0, avg_degree / n)) for n in ns]
    specs = []
    for g in generate_sizes(family, sizes, base_seed if graph_seed is None else graph_seed):
        spec = ExperimentSpec(
            graph=g,
            k=resolve_k(g, strategy, k=k, k_rule=k_rule),
            strategy=strategy,
            trials=trials,
            base_seed=base_seed,
            max_rounds=max_rounds,
        )
        spec.validate()
        specs.append(spec)
    rows = []
    for spec in specs:
        summary = run_campaign(spec, jobs=jobs).summary
        row = {c: getattr(summary, c) for c in SWEEP_COLUMNS if c != "e_t_bound"}
        row["e_t_bound"] = frugal_bounds(summary.n).e_t_bound
        rows.append(row)
    return rows


def format_sweep_csv(rows) -> str:
    """Plot-ready CSV table; header always present, even with no rows."""
    lines = [",".join(SWEEP_COLUMNS)]
    for row in rows:
        cells = []
        for c in SWEEP_COLUMNS:
            v = row[c]
            cells.append("" if v is None else str(v))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"
