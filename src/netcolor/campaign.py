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
from .engine import HISTORY_BLOCK, GameConfig, Strategy, TrialResult, is_proper, run
from .errors import ConfigError, ContractViolation
from .graph import Graph, format_edge_list, generate

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
    max_rounds: int = 10**6
    retention: str = "counts"
    allow_illegal_k: bool = False
    initial: tuple[int, ...] | None = None

    def validate(self) -> None:
        if self.trials < 1:
            raise ConfigError(f"trials must be >= 1, got {self.trials}")
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
    start = time.perf_counter()
    if jobs < 1:
        raise ConfigError(f"jobs must be >= 1, got {jobs}")
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

    Rows are read from each history with History.count_range a bounded
    piece at a time and written at once, so memory stays O(HISTORY_BLOCK
    + SPAN) even for a trial whose forced orbit was skipped: rounds below
    SPAN in HISTORY_BLOCK-row blocks across trials, later rounds one span at a time.
    """
    with open(path, "wb") as fh:
        fh.write(b"trial,round,unhappy_count\n")
        for rows in _round_rows(results):
            fh.write(rows)


# From round SPAN on, a trial's rows are written one aligned span
# [a * SPAN, (a + 1) * SPAN) at a time: each round of span a is the
# digits of a followed by the four digits of its offset in the span.
SPAN = 10**4


def _round_rows(results):
    """Yield the rows of every trial's rounds, in order, as bytes-like objects.

    Rounds 1..SPAN - 1 go into blocks of HISTORY_BLOCK rows, the last maybe
    fewer, that run across trials and are formatted by `_csv_rows`; a
    block is also cut where a trial's later rounds start. Those follow
    as one `_span_rows` call per span.
    """
    pending, filled = [], 0  # (trial, first round, counts) pieces of the next block
    for i, r in enumerate(results):
        history, lo = r.history, 0
        rounds = len(history)
        head = min(rounds, SPAN - 1)
        while lo < head:
            piece = history.count_range(lo, min(head, lo + HISTORY_BLOCK - filled))
            pending.append((i, lo + 1, piece))
            filled += len(piece)
            lo += len(piece)
            if filled == HISTORY_BLOCK or lo == head < rounds:
                yield _csv_rows(_block_columns(pending))
                pending, filled = [], 0
        for start in range(SPAN, rounds + 1, SPAN):
            yield _span_rows(i, start // SPAN, history.count_range(start - 1, start - 1 + SPAN))
    if pending:
        yield _csv_rows(_block_columns(pending))


def _block_columns(pending):
    trials, firsts, pieces = zip(*pending)
    lengths = np.array([len(p) for p in pieces])
    starts = np.cumsum(lengths) - lengths  # row of each piece's first round
    rounds = np.arange(lengths.sum()) + np.repeat(np.array(firsts) - starts, lengths)
    return np.repeat(trials, lengths), rounds, np.concatenate(pieces)


# "0000".."9999": the four ASCII digits of each offset in a span, one V4 element each
_OFFSET_DIGITS = (
    np.stack(np.meshgrid(*[np.arange(48, 58, dtype=np.uint8)] * 4, indexing="ij"), axis=-1)
    .reshape(SPAN, 4).view("V4").ravel()
)


def _span_rows(trial: int, a: int, counts: np.ndarray) -> bytes | bytearray:
    """The rows of rounds a * SPAN .. a * SPAN + len(counts) - 1 of one trial, a >= 1.

    When every count has the same number of digits, every row has the same
    width: the template row "trial,a0000,0..0\\n" is repeated, the offset
    digits are copied from _OFFSET_DIGITS as strided V4 elements, and the
    count digits are written over the zeros. Otherwise the span goes
    through `_csv_rows`.
    """
    m = len(counts)
    width = len(str(int(counts.max())))
    if len(str(int(counts.min()))) != width:
        rounds = np.arange(a * SPAN, a * SPAN + m)
        return _csv_rows((np.full(m, trial), rounds, counts))
    template = b"%d,%d0000,%s\n" % (trial, a, b"0" * width)
    row = len(template)
    rows = bytearray(template) * m
    np.ndarray(m, "V4", rows, row - width - 6, (row,))[:] = _OFFSET_DIGITS[:m]
    table = np.frombuffer(rows, np.uint8).reshape(m, row)
    q = counts
    for pos in range(row - 2, row - 1 - width, -1):
        nxt = q // 10
        table[:, pos] = q - nxt * 10 + 48
        q = nxt
    table[:, row - 1 - width] = q + 48  # the leading digit, below 10
    return rows


def _csv_rows(columns) -> bytes:
    """The rows "a,b,...\\n" of equal-length non-negative integer columns.

    The bytes are those of "%d" formatting. Each column's decimal digits
    are written right-aligned into a fixed-width uint8 matrix, with zero
    bytes as padding; one boolean compress then drops the padding.
    """
    columns = [np.asarray(c) for c in columns]
    maxima = [int(c.max()) if len(c) else 0 for c in columns]
    widths = [len(str(m)) for m in maxima]
    table = np.zeros((len(columns[0]), sum(widths) + len(columns)), dtype=np.uint8)
    end = 0
    for c, top, width in zip(columns, maxima, widths):
        q = c.astype(np.uint32 if top < 2**32 else np.uint64)
        for pos in range(end + width - 1, end - 1, -1):
            nxt = q // 10
            digit = (q - nxt * 10).astype(np.uint8)
            # a leading zero stays padding; the units digit is always written
            table[:, pos] = digit + 48 if pos == end + width - 1 else np.where(q, digit + 48, 0)
            q = nxt
        end += width
        table[:, end] = ord(",")
        end += 1
    table[:, -1] = ord("\n")
    flat = table.ravel()
    return flat[flat != 0].tobytes()


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
    max_rounds: int = 10**6,
    jobs: int = 1,
) -> list[dict]:
    """One campaign per n, plus the closed-form envelope column.

    For erdos_renyi sweeps, a fixed p overrides the default policy of
    holding the expected degree at avg_degree across n. Every size is
    checked before the first campaign runs.
    """
    ns = list(ns)
    for n in ns:
        if n < 1:
            raise ConfigError(f"n must be >= 1, got {n}")
    if p is None and not (math.isfinite(avg_degree) and avg_degree >= 0):
        # min(1.0, inf / n) and min(1.0, nan) are both 1: complete graphs
        raise ConfigError(f"avg_degree must be finite and >= 0, got {avg_degree}")
    rows = []
    for n in ns:
        if family == "erdos_renyi":
            pn = p if p is not None else min(1.0, avg_degree / n)
            g = generate(family, n, p=pn, seed=base_seed if graph_seed is None else graph_seed)
        else:
            g = generate(family, n)
        spec = ExperimentSpec(
            graph=g,
            k=resolve_k(g, strategy, k=k, k_rule=k_rule),
            strategy=strategy,
            trials=trials,
            base_seed=base_seed,
            max_rounds=max_rounds,
            retention="counts",
        )
        summary = run_campaign(spec, jobs=jobs).summary
        row = {c: getattr(summary, c) for c in SWEEP_COLUMNS if c != "e_t_bound"}
        row["e_t_bound"] = frugal_bounds(n).e_t_bound
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
