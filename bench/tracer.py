"""Span tracing for the benchmark's traced mode.

The tracer wraps public functions of each netcolor layer from the outside:
every module attribute bound to a wrapped function is pointed at a wrapper
that records a span (name, start, end, parent, run id) and returns the
wrapped function's value unchanged. Wrappers draw no random numbers and
are installed only while a traced pass runs. Spans
live in flat arrays in memory and are written out once the run ends.

A layer's self time is its span's duration minus the time its child spans
cover. Spans named ``bench.*`` are the benchmark's own code; their self
time is the unattributed remainder of a workload.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import sys
import time
from array import array
from collections import defaultdict

import numpy as np

# (module, function) pairs wrapped in traced mode; the span is "module.function".
WRAPPED = (
    ("cli", "main"),
    ("graph", "generate"),
    ("engine", "run"),
    ("engine", "initial_state"),
    ("engine", "unhappy_vertices"),
    ("engine", "step"),
    ("engine", "is_proper"),
    ("campaign", "run_campaign"),
    ("campaign", "sweep"),
    ("campaign", "summarize"),
    ("campaign", "write_trials_csv"),
    ("campaign", "write_rounds_csv"),
    ("campaign", "format_sweep_csv"),
    ("oracle", "one_round_distribution"),
    ("oracle", "available_size_distribution"),
    ("oracle", "two_round_happiness_prob"),
    ("oracle", "exact_expected_tau"),
    ("verification", "run_all"),
    ("verification", "check_available_size_floor"),
    ("verification", "check_two_round_floor"),
    ("verification", "check_engine_agreement"),
    ("verification", "check_envelope_dominance"),
    ("bounds", "check_dominance"),
)

ROOT_SPAN = "bench.pass"
LAYERS = ("cli", "graph", "engine", "campaign", "oracle", "verification", "bounds")


def rebind(old, new) -> None:
    """Point every netcolor module attribute bound to ``old`` at ``new``.

    Modules import functions by name from each other, so patching the
    defining module alone would miss most call sites.
    """
    for name, module in list(sys.modules.items()):
        if name == "netcolor" or name.startswith("netcolor."):
            for attr, value in list(vars(module).items()):
                if value is old:
                    setattr(module, attr, new)


def _count_generate(counts, g) -> None:
    counts["graph.pairs"] += g.n * (g.n - 1) // 2
    counts["graph.edges"] += g.edge_count


def _count_run(counts, trial) -> None:
    counts["engine.rounds"] += trial.final_state.round


def _count_chain(counts, tau) -> None:
    counts["oracle.chain_states"] += tau.reachable_states


def _count_cases(counts, check) -> None:
    counts["verification.cases_checked"] += check.details.get("checked", 0)


# Counts taken from a wrapped function's return value, at the same boundary.
COUNTERS = {
    "graph.generate": _count_generate,
    "engine.run": _count_run,
    "oracle.exact_expected_tau": _count_chain,
    "verification.check_available_size_floor": _count_cases,
    "verification.check_two_round_floor": _count_cases,
}


class Tracer:
    """Records spans while a traced pass runs; one run id per pass."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("H")
        self.parent = array("q")
        self.run_of = array("H")
        self.start = array("d")
        self.end = array("d")
        self.labels: list[str] = []
        self.counts: list[dict] = []
        self._stack: list[int] = []
        self._installed: list[tuple] = []

    def _id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, nid: int) -> int:
        i = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.run_of.append(len(self.labels) - 1)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def _close(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, fn):
        nid = self._id(name)
        count = COUNTERS.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = tracer._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(i)
            if count is not None:
                count(tracer.counts[-1], result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every function in WRAPPED that the package still defines."""
        for module, func in WRAPPED:
            mod = sys.modules.get(f"netcolor.{module}")
            fn = getattr(mod, func, None)
            if fn is None:
                continue
            traced = self._wrap(f"{module}.{func}", fn)
            rebind(fn, traced)
            self._installed.append((fn, traced))

    def uninstall(self) -> None:
        while self._installed:
            fn, traced = self._installed.pop()
            rebind(traced, fn)

    def start_run(self, label: str) -> None:
        """Record the spans that follow under a new run id; the pass opens the ROOT_SPAN itself."""
        self.labels.append(label)
        self.counts.append(defaultdict(int))

    @contextlib.contextmanager
    def span(self, name: str):
        """A span for a stretch of benchmark code; name it ``bench.*``."""
        i = self._open(self._id(name))
        try:
            yield
        finally:
            self._close(i)

    def layer_metrics(self, run_id: int) -> dict[str, float]:
        """Per-layer times and counts of one traced pass."""
        name = np.frombuffer(self.name, dtype=np.uint16)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        has_parent = parent >= 0
        covered = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        own = dur - covered
        sel = np.frombuffer(self.run_of, dtype=np.uint16) == run_id
        parent_name = np.where(has_parent, name[np.maximum(parent, 0)], -1)

        def mask(span, under=None):
            nid = self._ids.get(span)
            if nid is None:
                return np.zeros_like(sel)
            m = sel & (name == nid)
            if under is not None:
                pid = self._ids.get(under, -2)
                m &= parent_name == pid
            return m

        def total(span, under=None):
            return float(dur[mask(span, under)].sum())

        def self_time(span):
            return float(own[mask(span)].sum())

        def calls(span):
            return int(mask(span).sum())

        counts = self.counts[run_id]
        run_ms = dur[mask("engine.run")] * 1e3
        p50, p99 = np.percentile(run_ms, [50, 99]) if run_ms.size else (0.0, 0.0)
        run_s = total("engine.run")
        initial = total("engine.initial_state", under="engine.run")
        scan = total("engine.unhappy_vertices", under="engine.run")
        generate_s = total("graph.generate")
        def own_under(prefix):
            ids = [i for i, n in enumerate(self.names) if n.startswith(prefix)]
            return float(own[sel & np.isin(name, ids)].sum())

        return {
            "cli.self_s": self_time("cli.main"),
            "graph.generate_s": generate_s,
            "graph.pairs_per_s": counts["graph.pairs"] / generate_s if generate_s else 0.0,
            "graph.edges": counts["graph.edges"],
            "engine.run_s": run_s,
            "engine.run_calls": calls("engine.run"),
            "engine.run_ms_p50": float(p50),
            "engine.run_ms_p99": float(p99),
            "engine.initial_state_s": initial,
            "engine.unhappy_scan_s": scan,
            "engine.round_loop_s": run_s - initial - scan,
            "engine.rounds": counts["engine.rounds"],
            "engine.step_s": total("engine.step"),
            "engine.step_calls": calls("engine.step"),
            "campaign.self_s": self_time("campaign.run_campaign") + self_time("campaign.sweep"),
            "campaign.is_proper_s": total("engine.is_proper"),
            "campaign.is_proper_calls": calls("engine.is_proper"),
            "campaign.summarize_s": total("campaign.summarize"),
            "campaign.write_csv_s": total("campaign.write_trials_csv")
            + total("campaign.write_rounds_csv")
            + total("campaign.format_sweep_csv"),
            "oracle.one_round_s": total("oracle.one_round_distribution"),
            "oracle.available_size_s": total("oracle.available_size_distribution"),
            "oracle.available_size_calls": calls("oracle.available_size_distribution"),
            "oracle.two_round_s": total("oracle.two_round_happiness_prob"),
            "oracle.two_round_calls": calls("oracle.two_round_happiness_prob"),
            "oracle.expected_tau_dense_s": total(
                "oracle.exact_expected_tau", under="bench.chain.dense"
            ),
            "oracle.expected_tau_iterative_s": total(
                "oracle.exact_expected_tau", under="bench.chain.iterative"
            ),
            "oracle.chain_states": counts["oracle.chain_states"],
            "verification.floors_s": total("verification.check_available_size_floor")
            + total("verification.check_two_round_floor"),
            "verification.agreement_s": total("verification.check_engine_agreement"),
            "verification.dominance_s": total("verification.check_envelope_dominance"),
            "verification.cases_checked": counts["verification.cases_checked"],
            "bounds.check_dominance_s": total("bounds.check_dominance"),
            "trace.wall_s": total(ROOT_SPAN),
            "trace.remainder_s": own_under("bench."),
            "trace.self_sum_s": float(own[sel].sum()),
            "trace.spans": int(sel.sum()),
            **{f"trace.{layer}_self_s": own_under(f"{layer}.") for layer in LAYERS},
        }

    def write(self, path) -> None:
        """Write every span as gzip CSV; times in seconds from the first span."""
        t0 = self.start[0] if self.start else 0.0
        with gzip.open(path, "wt", compresslevel=1, newline="\n") as fh:
            fh.write("run,span,parent,name,start_s,end_s\n")
            for i in range(len(self.start)):
                fh.write(
                    f"{self.labels[self.run_of[i]]},{i},{self.parent[i]},"
                    f"{self.names[self.name[i]]},{self.start[i] - t0:.9f},{self.end[i] - t0:.9f}\n"
                )
