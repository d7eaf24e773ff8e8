"""The benchmark's workloads: inputs, the timed pass, and the correctness gate.

Each workload drives netcolor from outside, through ``netcolor.cli.main``
called in-process and through the public oracle functions, always with one
process (``--jobs 1``). ``prepare`` makes the inputs from the workload seed
and writes nothing. ``run_pass`` is the timed phase. ``check`` decides for
every operation of a pass whether its output is correct: one operation is
one trial, one sweep point, one verify check, one floor case or one chain
instance.

The first pass of a run gets the full check. Later passes of the same run
must reproduce the first pass's outputs byte for byte.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
import statistics
import sys
import time
import traceback
from array import array
from dataclasses import dataclass, field
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
if not (SRC / "netcolor" / "__init__.py").is_file():
    raise ImportError(f"netcolor sources not found under {SRC}")
sys.path.insert(0, str(SRC))

import netcolor  # noqa: E402
from netcolor import bounds, campaign, cli, engine, graph, oracle, verification  # noqa: E402
from netcolor.engine import ColoringState, GameConfig, Strategy  # noqa: E402

if Path(netcolor.__file__).resolve().parent != SRC / "netcolor":
    raise ImportError(f"netcolor was imported from {netcolor.__file__}, not from {SRC}")

from tracer import ROOT_SPAN, rebind  # noqa: E402

GOLDEN = json.loads(Path(__file__).with_name("golden.json").read_text(encoding="utf-8"))

TRIALS_HEADER = "trial,seed,tau,timeout,rounds_run"
ROUNDS_HEADER = "trial,round,unhappy_count"
SWEEP_HEADER = ",".join(campaign.SWEEP_COLUMNS)


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def graph_inputs(g, k: int) -> dict:
    return {"n": g.n, "m": g.edge_count, "delta": g.max_degree(), "k": k}


def quantile_95(values):
    """Smallest x with at least 95% of the values at or below it."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(0.95 * len(ordered)) - 1)]


def parse_json(text: str):
    """The JSON value in text, or None if it is not JSON."""
    try:
        return json.loads(text)
    except ValueError:
        return None


def call_cli(argv: list[str]) -> tuple[int | None, str, str]:
    """Run ``netcolor <argv>`` in this process; returns (exit code, stdout, stderr).

    An exception that escapes the CLI's own handlers gives exit code None.
    """
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:
            traceback.print_exc()
            rc = None
    return rc, out.getvalue(), err.getvalue()


class CampaignCapture:
    """Keeps each (spec, result) pair that run_campaign returns while active.

    The CLI prints a summary and writes CSVs but never shows the final
    colorings; the gate needs them to check that each one is proper.
    """

    def __init__(self):
        self.calls: list[tuple] = []
        self._original = None
        self._capturing = None

    def __enter__(self):
        original = campaign.run_campaign

        def capturing(spec, *args, **kwargs):
            result = original(spec, *args, **kwargs)
            self.calls.append((spec, result))
            return result

        rebind(original, capturing)
        self._original, self._capturing = original, capturing
        return self

    def __exit__(self, *exc):
        rebind(self._capturing, self._original)


def cli_pass(argv: list[str], files: dict, span) -> PassOutput:
    """One timed ``netcolor`` call that runs campaigns; their results are captured."""
    with CampaignCapture() as cap:
        t0 = time.perf_counter()
        with span(ROOT_SPAN):
            rc, out, err = call_cli(argv)
        wall = time.perf_counter() - t0
    return PassOutput(wall, rc, out, err, files, cap.calls)


def check_golden(name: str, seed: int, facts: dict, ops, fails) -> None:
    """Where golden.json pins this workload and seed, every pinned fact must match."""
    for key, want in GOLDEN.get(name, {}).get(str(seed), {}).items():
        if facts.get(key) != want:
            fails.add_all(ops, f"{key} is {facts.get(key)}, pinned {want}")


@dataclass
class PassOutput:
    """What one timed pass produced."""

    wall: float
    rc: int | None = None
    stdout: str = ""
    stderr: str = ""
    files: dict = field(default_factory=dict)
    campaigns: list = field(default_factory=list)
    extra: dict = field(default_factory=dict)


@dataclass
class Verdict:
    """Correctness of one pass, plus the counts the metrics need.

    trials and rounds are the games and rounds the pass played; facts holds
    digests and counts that later passes must reproduce or that the traced
    breakdown reports.
    """

    attempted: int
    failed: int
    trials: int
    rounds: int
    facts: dict = field(default_factory=dict)
    problems: list = field(default_factory=list)


class Failures:
    """Failed operation ids plus the first few reasons."""

    def __init__(self):
        self.ids: set = set()
        self.problems: list[str] = []

    def add(self, op, reason: str) -> None:
        self.ids.add(op)
        if len(self.problems) < 20:
            self.problems.append(f"{op}: {reason}")

    def add_all(self, ops, reason: str) -> None:
        for op in ops:
            self.ids.add(op)
        if len(self.problems) < 20:
            self.problems.append(f"all: {reason}")


def _reproduced(first: Verdict, facts: dict, ops: int, trials: int) -> Verdict:
    """Verdict of a later pass: its digests must equal the first pass's."""
    diff = [k for k in first.facts if k.endswith("sha256") and facts.get(k) != first.facts[k]]
    failed = ops if diff else 0
    problems = [f"all: {', '.join(diff)} differ from the run's first pass"] if diff else []
    merged = {**first.facts, **facts}
    return Verdict(ops, failed, trials, first.rounds, merged, problems)


def colorings_sha256(calls) -> str:
    """Digest of every converged final coloring, in campaign and trial order."""
    h = hashlib.sha256()
    for _, result in calls:
        for r in result.results:
            if r.tau is not None:
                h.update(array("l", r.final_state.colors).tobytes())
    return h.hexdigest()


@dataclass(frozen=True)
class CampaignWorkload:
    """``netcolor run`` on one generated graph, writing both CSVs.

    trapped, when set, fixes how many trials start from a conflicted
    coloring: the base seed is the first one at or above the workload seed
    with exactly that many. Used with greedy on a triangle at k = 3, where
    a conflicted start never converges, so every seed does the same work.
    """

    name: str
    family: str
    n: int
    strategy: str
    trials: int
    max_rounds: int
    p: float | None = None
    graph_seed: int | None = None
    k: int | None = None
    k_rule: str | None = None
    allow_illegal_k: bool = False
    trapped: int | None = None

    def prepare(self, seed: int) -> dict:
        g = graph.generate(self.family, self.n, p=self.p, seed=self.graph_seed)
        strategy = Strategy(self.strategy)
        k = campaign.resolve_k(g, strategy, k=self.k, k_rule=self.k_rule)
        base = seed if self.trapped is None else trapped_base_seed(g, k, seed, self.trials, self.trapped)
        return {"graph": g, "k": k, "base_seed": base, "seed": seed}

    def argv(self, prep: dict, files: dict) -> list[str]:
        argv = ["run", "--family", self.family, "--n", str(self.n)]
        if self.p is not None:
            argv += ["--p", repr(self.p)]
        if self.graph_seed is not None:
            argv += ["--graph-seed", str(self.graph_seed)]
        argv += ["--strategy", self.strategy]
        argv += ["--k", str(self.k)] if self.k is not None else ["--k-rule", self.k_rule]
        if self.allow_illegal_k:
            argv.append("--allow-illegal-k")
        argv += [
            "--max-rounds", str(self.max_rounds),
            "--trials", str(self.trials),
            "--seed", str(prep["base_seed"]),
            "--jobs", "1",
            "--out", str(files["trials_csv"]),
            "--rounds-out", str(files["rounds_csv"]),
        ]
        return argv

    def inputs(self, prep: dict, first: Verdict) -> dict:
        return {
            **graph_inputs(prep["graph"], prep["k"]),
            "family": self.family,
            "strategy": self.strategy,
            "trials": self.trials,
            "max_rounds": self.max_rounds,
            "base_seed": prep["base_seed"],
        }

    def run_pass(self, prep: dict, outdir: Path, span=contextlib.nullcontext) -> PassOutput:
        files = {"trials_csv": outdir / "trials.csv", "rounds_csv": outdir / "rounds.csv"}
        return cli_pass(self.argv(prep, files), files, span)

    def check(self, prep: dict, out: PassOutput, first: Verdict | None) -> Verdict:
        ops = self.trials
        facts = {}
        fails = Failures()
        summary = parse_json(out.stdout) if out.rc == 0 else None
        if not isinstance(summary, dict):
            fails.add_all(range(ops), f"exit code {out.rc}: {out.stderr.strip()[-300:]}")
            return Verdict(ops, ops, ops, 0, facts, fails.problems)
        sans_wall = {k: v for k, v in summary.items() if k != "wall_time"}
        facts["trials_csv_sha256"] = sha256_file(out.files["trials_csv"])
        facts["rounds_csv_sha256"] = sha256_file(out.files["rounds_csv"])
        facts["summary_sha256"] = sha256_text(json.dumps(sans_wall, sort_keys=True))
        facts["colorings_sha256"] = colorings_sha256(out.campaigns)
        facts["spec_hash"] = summary.get("spec_hash")
        if first is not None:
            return _reproduced(first, facts, ops, ops)

        g, k = prep["graph"], prep["k"]
        if len(out.campaigns) != 1 or out.campaigns[0][0].graph != g:
            fails.add_all(range(ops), "the campaign did not run once on the prepared graph")
            return Verdict(ops, ops, ops, 0, facts, fails.problems)
        results = out.campaigns[0][1].results
        rows = check_trials_csv(out.files["trials_csv"], results, prep["base_seed"], self.max_rounds, g, fails)
        rounds_run = sum(r[2] for r in rows.values())
        last_unhappy, redraws = check_rounds_csv(out.files["rounds_csv"], rows, ops, g.n, fails)
        facts["engine.redraws"] = redraws
        facts["campaign.csv_bytes"] = sum(Path(p).stat().st_size for p in out.files.values())

        taus = [r[0] for r in rows.values() if r[0] is not None]
        residual = [last_unhappy[i] for i, r in rows.items() if r[0] is None and i in last_unhappy]
        expect = {
            "n": g.n,
            "delta": g.max_degree(),
            "k": k,
            "strategy": self.strategy,
            "trials": self.trials,
            "converged": len(taus),
            "timeouts": self.trials - len(taus),
            "mean_tau": statistics.fmean(taus) if taus else None,
            "median_tau": float(statistics.median(taus)) if taus else None,
            "q95_tau": float(quantile_95(taus)) if taus else None,
            "max_tau": max(taus) if taus else None,
            "mean_final_unhappy_on_timeout": statistics.fmean(residual) if residual else None,
        }
        for key, want in expect.items():
            if summary.get(key) != want:
                fails.add_all(range(ops), f"summary {key}={summary.get(key)!r}, outputs give {want!r}")
        if self.trapped is not None and expect["timeouts"] != self.trapped:
            fails.add_all(range(ops), f"{expect['timeouts']} timeouts, {self.trapped} trials start conflicted")
        check_golden(self.name, prep["seed"], facts, range(ops), fails)
        return Verdict(ops, len(fails.ids), ops, rounds_run, facts, fails.problems)


def trapped_base_seed(g, k: int, seed: int, trials: int, trapped: int) -> int:
    """First base seed >= seed whose trials include exactly `trapped` conflicted starts.

    Trial i draws its start i.i.d. uniform from [k] in vertex order from
    random.Random(base + i): the package's reproducibility contract.
    """
    base = seed
    while True:
        starts = []
        for i in range(trials):
            rng = random.Random(base + i)
            starts.append(tuple(rng.randrange(k) for _ in range(g.n)))
        if sum(not engine.is_proper(g, c) for c in starts) == trapped:
            return base
        base += 1


def check_trials_csv(path, results, base_seed: int, max_rounds: int, g, fails: Failures) -> dict:
    """Every row must match the trial the campaign returned.

    Returns {trial: (tau, timeout, rounds_run)} for the rows that parsed.
    Converged final colorings must be proper, checked with engine.is_proper.
    """
    rows: dict[int, tuple] = {}
    with open(path, encoding="utf-8", newline="") as fh:
        lines = fh.read().split("\n")
    if lines[0] != TRIALS_HEADER:
        fails.add_all(range(len(results)), f"trials CSV header {lines[0]!r}")
    if lines[-1] != "" or len(lines) != len(results) + 2:
        fails.add_all(range(len(results)), f"trials CSV has {len(lines) - 2} rows for {len(results)} trials")
    for i, r in enumerate(results):
        line = lines[i + 1] if i + 1 < len(lines) else ""
        want_tau = "" if r.tau is None else str(r.tau)
        want_timeout = "true" if r.tau is None else "false"
        want = f"{i},{base_seed + i},{want_tau},{want_timeout},{r.final_state.round}"
        if line != want:
            fails.add(i, f"trials row {line!r}, trial gives {want!r}")
            continue
        if r.seed != base_seed + i:
            fails.add(i, f"seed {r.seed}, expected {base_seed + i}")
        if r.tau is None and r.final_state.round != max_rounds:
            fails.add(i, f"timed out after {r.final_state.round} of {max_rounds} rounds")
        if r.tau is not None:
            if r.tau != r.final_state.round:
                fails.add(i, f"tau {r.tau} but final round {r.final_state.round}")
            if not engine.is_proper(g, r.final_state.colors):
                fails.add(i, "converged to a coloring that is not proper")
        rows[i] = (r.tau, r.tau is None, r.final_state.round)
    return rows


def check_rounds_csv(path, rows: dict, trials: int, n: int, fails: Failures) -> tuple[dict, int]:
    """Rounds 1..rounds_run per trial, in order; the last is 0 unhappy iff converged.

    Returns each trial's last unhappy count and the redraws: the unhappy
    counts summed over every round but each trial's last.
    """
    last: dict[int, int] = {}
    seen: dict[int, int] = {}
    redraws = 0
    with open(path, encoding="utf-8", newline="") as fh:
        header = fh.readline()
        if header != ROUNDS_HEADER + "\n":
            fails.add_all(range(trials), f"rounds CSV header {header!r}")
        for line in fh:
            parts = line.rstrip("\n").split(",")
            try:
                trial, rnd, unhappy = (int(x) for x in parts)
                ok = len(parts) == 3 and line.endswith("\n") and ",".join(parts) == f"{trial},{rnd},{unhappy}"
            except ValueError:
                ok = False
            if not ok or not 0 <= trial < trials:
                fails.add_all(range(trials), f"rounds CSV line {line!r}")
                continue
            if rnd != seen.get(trial, 0) + 1 or not 0 <= unhappy <= n:
                fails.add(trial, f"rounds CSV line {line.strip()!r} out of order or range")
            if trial in last:
                if last[trial] == 0:
                    fails.add(trial, "a round follows a proper coloring")
                redraws += last[trial]
            seen[trial] = rnd
            last[trial] = unhappy
    for trial, (tau, timeout, rounds_run) in rows.items():
        if seen.get(trial) != rounds_run:
            fails.add(trial, f"{seen.get(trial)} rounds in the rounds CSV, {rounds_run} in the trials CSV")
        elif (last[trial] == 0) == timeout:
            fails.add(trial, f"last round has {last[trial]} unhappy, timeout={timeout}")
    return last, redraws


@dataclass(frozen=True)
class SweepWorkload:
    """``netcolor sweep`` over ER graphs of growing n at a fixed expected degree."""

    name: str
    ns: tuple[int, ...]
    avg_degree: float
    strategy: str
    k_rule: str
    trials: int
    max_rounds: int

    def prepare(self, seed: int) -> dict:
        return {"seed": seed}

    def argv(self, prep: dict, out_csv) -> list[str]:
        return [
            "sweep",
            "--family", "erdos_renyi",
            "--n", ",".join(str(n) for n in self.ns),
            "--avg-degree", repr(self.avg_degree),
            "--strategy", self.strategy,
            "--k-rule", self.k_rule,
            "--trials", str(self.trials),
            "--seed", str(prep["seed"]),
            "--graph-seed", str(prep["seed"]),
            "--max-rounds", str(self.max_rounds),
            "--jobs", "1",
            "--out", str(out_csv),
        ]

    def inputs(self, prep: dict, first: Verdict) -> dict:
        points = first.facts.get("points")
        return {
            "family": "erdos_renyi",
            "avg_degree": self.avg_degree,
            "strategy": self.strategy,
            "trials": self.trials,
            "max_rounds": self.max_rounds,
            "graph_seed": prep["seed"],
            "points": points or [{"n": n} for n in self.ns],
        }

    def run_pass(self, prep: dict, outdir: Path, span=contextlib.nullcontext) -> PassOutput:
        files = {"sweep_csv": outdir / "sweep.csv"}
        return cli_pass(self.argv(prep, files["sweep_csv"]), files, span)

    def check(self, prep: dict, out: PassOutput, first: Verdict | None) -> Verdict:
        ops = len(self.ns)
        trials = ops * self.trials
        fails = Failures()
        if out.rc != 0:
            fails.add_all(range(ops), f"exit code {out.rc}: {out.stderr.strip()[-300:]}")
            return Verdict(ops, ops, trials, 0, {}, fails.problems)
        facts = {
            "sweep_csv_sha256": sha256_file(out.files["sweep_csv"]),
            "colorings_sha256": colorings_sha256(out.campaigns),
        }
        if first is not None:
            return _reproduced(first, facts, ops, trials)

        text = Path(out.files["sweep_csv"]).read_text(encoding="utf-8")
        lines = text.split("\n")
        if lines[0] != SWEEP_HEADER or lines[-1] != "" or len(lines) != ops + 2:
            fails.add_all(range(ops), f"sweep CSV is not a header plus {ops} rows")
        if len(out.campaigns) != ops:
            fails.add_all(range(ops), f"{len(out.campaigns)} campaigns ran for {ops} sizes")
        rounds = 0
        points = []
        for i, (spec, result) in enumerate(out.campaigns[:ops]):
            g = spec.graph
            runs = result.results
            taus = [r.tau for r in runs if r.tau is not None]
            rounds += sum(r.final_state.round for r in runs)
            points.append(graph_inputs(g, spec.k))
            want = {
                "n": self.ns[i],
                "delta": g.max_degree(),
                "k": g.max_degree() + (1 if self.k_rule == "delta+1" else 2),
                "strategy": self.strategy,
                "trials": self.trials,
                "converged": len(taus),
                "timeouts": len(runs) - len(taus),
                "mean_tau": statistics.fmean(taus) if taus else None,
                "median_tau": float(statistics.median(taus)) if taus else None,
                "q95_tau": float(quantile_95(taus)) if taus else None,
                "max_tau": max(taus) if taus else None,
                "e_t_bound": bounds.frugal_bounds(self.ns[i]).e_t_bound,
            }
            row = ",".join("" if v is None else str(v) for v in want.values())
            got = lines[i + 1] if i + 1 < len(lines) else ""
            if g.n != self.ns[i] or len(runs) != self.trials or spec.k != want["k"]:
                fails.add(i, f"campaign {i} ran n={g.n} k={spec.k} with {len(runs)} trials")
            if got != row:
                fails.add(i, f"sweep row {got!r}, campaign gives {row!r}")
            for t, r in enumerate(runs):
                if r.tau is not None and not engine.is_proper(g, r.final_state.colors):
                    fails.add(i, f"trial {t} converged to a coloring that is not proper")
        facts["points"] = points
        facts["campaign.csv_bytes"] = len(text.encode())
        check_golden(self.name, prep["seed"], facts, range(ops), fails)
        return Verdict(ops, len(fails.ids), trials, rounds, facts, fails.problems)


@dataclass(frozen=True)
class VerifyWorkload:
    """The exact-verification pipeline: ``netcolor verify``, both floors, the chain solve.

    floors are (label, family, n, k) instances scanned over every conflicted
    coloring. chains are (role, label, family, n, k) instances whose exact
    expected tau is solved; role names the solver path the instance takes.
    pins holds the values the outputs must reproduce.
    """

    name: str
    level: str
    floors: tuple
    chains: tuple
    pins: dict

    def prepare(self, seed: int) -> dict:
        return {"seed": seed}

    def inputs(self, prep: dict, first: Verdict) -> dict:
        return {
            "verify_level": self.level,
            "verify_seed": prep["seed"],
            "floors": [
                {"instance": label, "family": fam, "n": n, "k": k, "strategy": "frugal"}
                for label, fam, n, k in self.floors
            ],
            "chains": [
                {"instance": label, "family": fam, "n": n, "k": k, "strategy": "frugal", "solver": role}
                for role, label, fam, n, k in self.chains
            ],
        }

    def run_pass(self, prep: dict, outdir: Path, span=contextlib.nullcontext) -> PassOutput:
        argv = ["verify", "--level", self.level, "--seed", str(prep["seed"])]
        t0 = time.perf_counter()
        with span(ROOT_SPAN):
            rc, out, err = call_cli(argv)
            floors = {label: scan_floors(graph.generate(fam, n), k) for label, fam, n, k in self.floors}
            chains = {}
            for role, label, fam, n, k in self.chains:
                g = graph.generate(fam, n)
                with span(f"bench.chain.{role}"):
                    chains[label] = oracle.exact_expected_tau(
                        g, GameConfig(k=k, strategy=Strategy.FRUGAL, seed=0)
                    )
        wall = time.perf_counter() - t0
        return PassOutput(wall, rc, out, err, extra={"floors": floors, "chains": chains})

    def check(self, prep: dict, out: PassOutput, first: Verdict | None) -> Verdict:
        fails = Failures()
        pinned = self.pins["verify"]
        ops = len(pinned)
        checks = []
        report = parse_json(out.stdout) if out.rc == 0 else None
        if isinstance(report, dict):
            checks = report.get("checks", [])
            if report.get("passed") is not True or [c["name"] for c in checks] != list(pinned):
                fails.add_all(pinned, f"report passed={report.get('passed')} for checks {[c['name'] for c in checks]}")
        else:
            fails.add_all(pinned, f"verify exit code {out.rc}: {out.stderr.strip()[-300:]}")
        for c in checks:
            want = pinned.get(c["name"], {})
            got = {key: c["details"].get(key) for key in want}
            if not c["passed"] or got != want:
                fails.add(c["name"], f"passed={c['passed']} {got} pinned {want}")
        for label, scan in out.extra["floors"].items():
            ops += scan["cases"]
            for case in scan["failed"]:
                fails.add((label, case), "a floor does not hold")
            want = self.pins["floors"][label]
            got = {"cases": scan["cases"], "min_two_round": str(scan["min_two_round"])}
            if got != want:
                fails.add((label, "min"), f"{got} pinned {want}")
        for label, tau in out.extra["chains"].items():
            ops += 1
            want = self.pins["chains"][label]
            if tau.trapped_states or abs(tau.expected - want) > 1e-9:
                fails.add(label, f"E(tau) = {tau.expected!r} with {tau.trapped_states} trapped, pinned {want!r}")

        trials = rounds = 0
        for c in checks:
            if c["name"] == "envelope_dominance":
                trials += c["details"].get("sample_size", 0)
            if c["name"] == "engine_oracle_agreement":
                samples = sum(rep["trials"] for rep in c["details"].values())
                trials += samples
                rounds += samples
        return Verdict(ops, min(ops, len(fails.ids)), trials, rounds, {}, fails.problems)


def scan_floors(g, k: int) -> dict:
    """Both exact floors at every unhappy vertex of every conflicted coloring."""
    cache: dict = {}
    cases = 0
    failed = []
    low = None
    for colors in verification.conflicted_colorings(g, k):
        state = ColoringState(colors, 1)
        for v in range(g.n):
            if not any(colors[u] == colors[v] for u in g.neighbors(v)):
                continue
            size = oracle.available_size_distribution(g, state, v, Strategy.FRUGAL, k)
            prob = oracle.two_round_happiness_prob(g, state, v, Strategy.FRUGAL, k, cache=cache)
            if not (size.holds and oracle.two_round_floor_holds(prob)):
                failed.append((colors, v))
            if low is None or prob < low:
                low = prob
            cases += 1
    return {"cases": cases, "failed": failed, "min_two_round": low}


WORKLOADS = {
    wl.name: wl
    for wl in (
        CampaignWorkload(
            name="campaign_er1000",
            family="erdos_renyi",
            n=1000,
            p=0.008,
            graph_seed=42,
            strategy="frugal",
            k_rule="delta+1",
            trials=2000,
            max_rounds=10**6,
        ),
        CampaignWorkload(
            name="greedy_trap",
            family="complete",
            n=3,
            strategy="greedy",
            k=3,
            allow_illegal_k=True,
            trials=10,
            max_rounds=100_000,
            trapped=8,
        ),
        SweepWorkload(
            name="sweep_er",
            ns=(2000, 4000, 8000),
            avg_degree=8.0,
            strategy="frugal",
            k_rule="delta+1",
            trials=20,
            max_rounds=10**6,
        ),
        VerifyWorkload(
            name="verify_exact",
            level="full",
            floors=(("complete4_k4", "complete", 4, 4), ("star5_k5", "star", 5, 5)),
            # path7_k3 has 1995 transient states and cycle7_k3 has 2061, on
            # either side of the 2000-state switch from the dense solve to
            # value iteration in oracle.exact_expected_tau.
            chains=(("dense", "path7_k3", "path", 7, 3), ("iterative", "cycle7_k3", "cycle", 7, 3)),
            pins=GOLDEN["verify_exact"],
        ),
    )
}
