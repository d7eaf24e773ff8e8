"""Command-line front end: run, sweep, verify, bounds, gen.

Exit codes: 0 success, 1 failed check or runtime failure, 2 usage or
configuration error, 141 when the reader of the output closes it early
(as ``| head`` does). Options can also come from a flat key=value config
file; explicit flags win over the file.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .bounds import frugal_bounds, greedy_bound, max_expectation_bound, mu
from .campaign import (
    K_RULES,
    ExperimentSpec,
    format_sweep_csv,
    resolve_k,
    run_campaign,
    sweep,
)
from .engine import Strategy
from .errors import ContractViolation, EnumerationLimitError, NetcolorError
from .graph import FAMILIES, format_edge_list, generate, read_edge_list, write_edge_list
from .verification import DEFAULT_SEED, run_all


class UsageError(Exception):
    """Bad flags or config; maps to exit code 2."""


_BOOL_TRUE = ("1", "true", "yes", "on")
_BOOL_FALSE = ("0", "false", "no", "off")

_COERCE = {
    "n": str,
    "p": float,
    "k": int,
    "graph_seed": int,
    "trials": int,
    "seed": int,
    "max_rounds": int,
    "jobs": int,
    "avg_degree": float,
    "allow_illegal_k": "bool",
    "failure_prob": float,
}


def load_config(path: str, allowed: set[str]) -> dict:
    """Parse `key = value` lines; '#' starts a comment, blanks are skipped."""
    out: dict = {}
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except FileNotFoundError:
        raise UsageError(f"config file not found: {path}") from None
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip().lower().replace("-", "_")
        value = value.strip()
        if key not in allowed:
            raise UsageError(f"{path}:{lineno}: unknown option {key!r}")
        out[key] = _coerce(key, value, f"{path}:{lineno}")
    return out


def _coerce(key: str, value: str, where: str):
    kind = _COERCE.get(key, str)
    if kind == "bool":
        low = value.lower()
        if low in _BOOL_TRUE:
            return True
        if low in _BOOL_FALSE:
            return False
        raise UsageError(f"{where}: {key} expects a boolean, got {value!r}")
    try:
        return kind(value)
    except ValueError:
        raise UsageError(f"{where}: {key} expects {kind.__name__}, got {value!r}") from None


def _merge(args: argparse.Namespace, defaults: dict) -> dict:
    """defaults < config file < explicit flags."""
    raw = vars(args)
    merged = dict(defaults)
    if raw.get("config"):
        merged.update(load_config(raw["config"], set(defaults)))
    for key, value in raw.items():
        if key in ("command", "config") or key not in defaults:
            continue
        if value is not None:
            merged[key] = value
    return merged


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="netcolor",
        description="Decentralized graph coloring game: simulation and verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def graph_flags(sp, n_help):
        sp.add_argument("--graph", help="edge-list file to load")
        sp.add_argument("--family", choices=FAMILIES, help="generator family")
        sp.add_argument("--n", help=n_help)
        sp.add_argument("--p", type=float, help="edge probability for erdos_renyi")
        sp.add_argument("--graph-seed", type=int, help="generator seed (default: --seed)")

    run_p = sub.add_parser("run", help="run one Monte Carlo campaign")
    graph_flags(run_p, "vertex count for generated graphs")
    run_p.add_argument("--k", type=int, help="explicit palette size")
    run_p.add_argument("--k-rule", choices=K_RULES, help="derive k from the max degree")
    run_p.add_argument("--strategy", choices=[s.value for s in Strategy])
    run_p.add_argument("--trials", type=int)
    run_p.add_argument("--seed", type=int, help="base seed; trial i uses seed+i")
    run_p.add_argument("--max-rounds", type=int)
    run_p.add_argument("--allow-illegal-k", action="store_true", default=None)
    run_p.add_argument("--retention", choices=["full", "counts"])
    run_p.add_argument("--out", help="per-trial CSV path")
    run_p.add_argument("--rounds-out", help="per-round unhappy-count CSV path")
    run_p.add_argument("--jobs", type=int)
    run_p.add_argument("--config", help="key=value config file; flags win")

    sweep_p = sub.add_parser("sweep", help="campaigns across sizes, with bound column")
    sweep_p.add_argument("--family", choices=FAMILIES)
    sweep_p.add_argument("--n", help="comma-separated sizes, e.g. 64,256,1024")
    sweep_p.add_argument("--p", type=float, help="fixed edge probability (overrides --avg-degree)")
    sweep_p.add_argument("--avg-degree", type=float, help="hold expected degree constant (default 8)")
    sweep_p.add_argument("--graph-seed", type=int)
    sweep_p.add_argument("--k", type=int)
    sweep_p.add_argument("--k-rule", choices=K_RULES)
    sweep_p.add_argument("--strategy", choices=[s.value for s in Strategy])
    sweep_p.add_argument("--trials", type=int)
    sweep_p.add_argument("--seed", type=int)
    sweep_p.add_argument("--max-rounds", type=int)
    sweep_p.add_argument("--jobs", type=int)
    sweep_p.add_argument("--out", help="table CSV path (default: stdout)")
    sweep_p.add_argument("--config", help="key=value config file; flags win")

    verify_p = sub.add_parser("verify", help="run the built-in verification suite")
    verify_p.add_argument("--level", choices=["fast", "full"], default="fast")
    verify_p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    verify_p.add_argument("--out", help="write the JSON report here too")

    bounds_p = sub.add_parser("bounds", help="print the closed-form bounds as JSON")
    bounds_p.add_argument("--n", type=int, required=True)
    bounds_p.add_argument("--failure-prob", type=float, help="include the greedy round budget")

    gen_p = sub.add_parser("gen", help="emit a generated graph as an edge list")
    gen_p.add_argument("--family", choices=FAMILIES, required=True)
    gen_p.add_argument("--n", type=int, required=True)
    gen_p.add_argument("--p", type=float)
    gen_p.add_argument("--graph-seed", type=int)
    gen_p.add_argument("--out", help="output path (default: stdout)")

    return parser


_RUN_DEFAULTS = {
    "graph": None,
    "family": None,
    "n": None,
    "p": None,
    "graph_seed": None,
    "k": None,
    "k_rule": None,
    "strategy": None,
    "trials": 100,
    "seed": 0,
    "max_rounds": 10**6,
    "allow_illegal_k": False,
    "retention": "counts",
    "out": None,
    "rounds_out": None,
    "jobs": 1,
}

_SWEEP_DEFAULTS = {
    "family": "erdos_renyi",
    "n": None,
    "p": None,
    "avg_degree": 8.0,
    "graph_seed": None,
    "k": None,
    "k_rule": None,
    "strategy": None,
    "trials": 100,
    "seed": 0,
    "max_rounds": 10**6,
    "jobs": 1,
    "out": None,
}


def _load_graph(opts: dict):
    if opts["graph"] and opts["family"]:
        raise UsageError("give either --graph or --family, not both")
    if opts["graph"]:
        try:
            return read_edge_list(opts["graph"])
        except FileNotFoundError:
            raise UsageError(f"graph file not found: {opts['graph']}") from None
    if opts["family"]:
        if opts["n"] is None:
            raise UsageError("--family needs --n")
        try:
            n = int(opts["n"])
        except ValueError:
            raise UsageError(f"--n expects an integer, got {opts['n']!r}") from None
        seed = opts["graph_seed"]
        if opts["family"] == "erdos_renyi" and seed is None:
            seed = opts["seed"]
        return generate(opts["family"], n, p=opts["p"], seed=seed)
    raise UsageError("a graph is required: --graph FILE or --family NAME --n N")


def _strategy(opts: dict) -> Strategy:
    if opts["strategy"] is None:
        raise UsageError("--strategy is required (greedy or frugal)")
    return Strategy(opts["strategy"])


def cmd_run(args: argparse.Namespace) -> int:
    opts = _merge(args, _RUN_DEFAULTS)
    g = _load_graph(opts)
    strategy = _strategy(opts)
    spec = ExperimentSpec(
        graph=g,
        k=resolve_k(g, strategy, k=opts["k"], k_rule=opts["k_rule"]),
        strategy=strategy,
        trials=opts["trials"],
        base_seed=opts["seed"],
        max_rounds=opts["max_rounds"],
        retention=opts["retention"],
        allow_illegal_k=opts["allow_illegal_k"],
    )
    result = run_campaign(
        spec, jobs=opts["jobs"], out=opts["out"], rounds_out=opts["rounds_out"]
    )
    print(json.dumps(result.summary.to_dict(), indent=2))
    print(result.summary.human_line(), file=sys.stderr)
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    opts = _merge(args, _SWEEP_DEFAULTS)
    if opts["n"] is None:
        raise UsageError("sweep needs --n with comma-separated sizes (may be empty)")
    text = str(opts["n"]).strip()
    try:
        ns = [int(tok) for tok in text.split(",") if tok.strip()] if text else []
    except ValueError:
        raise UsageError(f"--n expects comma-separated integers, got {opts['n']!r}") from None
    strategy = _strategy(opts)
    rows = sweep(
        ns,
        opts["family"],
        strategy,
        k=opts["k"],
        k_rule=opts["k_rule"],
        trials=opts["trials"],
        base_seed=opts["seed"],
        p=opts["p"],
        avg_degree=opts["avg_degree"],
        graph_seed=opts["graph_seed"],
        max_rounds=opts["max_rounds"],
        jobs=opts["jobs"],
    )
    table = format_sweep_csv(rows)
    if opts["out"]:
        with open(opts["out"], "w", encoding="utf-8", newline="\n") as fh:
            fh.write(table)
    else:
        sys.stdout.write(table)
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    passed, report = run_all(args.level, seed=args.seed)
    payload = {"level": args.level, "passed": passed, "checks": report}
    text = json.dumps(payload, indent=2)
    print(text)
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text + "\n")
    return 0 if passed else 1


def cmd_bounds(args: argparse.Namespace) -> int:
    report = frugal_bounds(args.n)
    best = max_expectation_bound(args.n, report.mu)
    payload = {
        "n": report.n,
        "mu": report.mu,
        "e_t_bound": report.e_t_bound,
        "var_t_bound": report.var_t_bound,
        "a_n": best.a_n,
        "max_expectation_bound": best.bound,
    }
    if args.failure_prob is not None:
        payload["failure_prob"] = args.failure_prob
        payload["greedy_bound"] = greedy_bound(args.n, args.failure_prob)
    print(json.dumps(payload, indent=2))
    return 0


def cmd_gen(args: argparse.Namespace) -> int:
    g = generate(args.family, args.n, p=args.p, seed=args.graph_seed)
    if args.out:
        write_edge_list(g, args.out)
    else:
        sys.stdout.write(format_edge_list(g))
    return 0


_COMMANDS = {
    "run": cmd_run,
    "sweep": cmd_sweep,
    "verify": cmd_verify,
    "bounds": cmd_bounds,
    "gen": cmd_gen,
}


# 128 + SIGPIPE: the status a shell reports for a writer whose reader left.
EXIT_BROKEN_PIPE = 141


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        status = _COMMANDS[args.command](args)
        sys.stdout.flush()  # a closed stdout must fail here, not at exit
        return status
    except BrokenPipeError:
        # The reader closed the pipe early; that is not a fault of the run.
        # Point stdout at devnull so the flush at exit cannot raise again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_BROKEN_PIPE
    except (ContractViolation, EnumerationLimitError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (UsageError, ValueError, NetcolorError) as exc:
        # bad parameter combinations and malformed inputs are usage errors
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
