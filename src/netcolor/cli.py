"""Command-line front end: run, sweep, verify, bounds, gen.

Exit codes: 0 success, 1 failed check or runtime failure, 2 usage or
configuration error, 141 when the reader of the output closes it early
(as ``| head`` does).

``run`` and ``sweep`` also read options from ``--config FILE``. Each
``key = value`` line of the file is read as the flag ``--key=value`` and
placed before the command line's own flags, so argparse checks file values
exactly like flags and an explicit flag wins. Switches take a true or false
word; an unknown key exits 2.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

from .bounds import frugal_bounds, greedy_bound
from .campaign import (
    K_RULES,
    ExperimentSpec,
    format_sweep_csv,
    resolve_k,
    run_campaign,
    sweep,
)
from .engine import RETENTIONS, Strategy
from .errors import ContractViolation, EnumerationLimitError, NetcolorError
from .graph import FAMILIES, format_edge_list, generate, read_edge_list, write_edge_list
from .verification import DEFAULT_SEED, LEVELS, run_all


class UsageError(Exception):
    """Bad flags or config; maps to exit code 2."""


_BOOL_TRUE = ("1", "true", "yes", "on")
_BOOL_FALSE = ("0", "false", "no", "off")


def load_config(path: str, options: dict) -> list[str]:
    """Read `key = value` lines as the argv tokens `--key=value`.

    `options` is ``vars()`` of the parsed command line: its keys are the
    allowed keys, and a key whose value is a bool is a switch, which a true
    word turns on and a false word leaves off. '#' starts a comment, blank
    lines are skipped, and a later line wins over an earlier one.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except FileNotFoundError:
        raise UsageError(f"config file not found: {path}") from None
    tokens: list[str] = []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip().lower().replace("-", "_")
        value = value.strip()
        if key not in options or key in ("command", "config"):
            raise UsageError(f"{path}:{lineno}: unknown option {key!r}")
        flag = "--" + key.replace("_", "-")
        if not isinstance(options[key], bool):
            tokens.append(f"{flag}={value}")  # '=' keeps an empty or '-' value a value
        elif value.lower() in _BOOL_TRUE:
            tokens.append(flag)
        elif value.lower() in _BOOL_FALSE:
            # no flag turns a switch off, so drop the ones earlier lines set
            tokens = [tok for tok in tokens if tok != flag]
        else:
            raise UsageError(f"{path}:{lineno}: {key} expects a boolean, got {value!r}")
    return tokens


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="netcolor",
        description="Decentralized graph coloring game: simulation and verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # the flags `run` and `sweep` share
    campaign = argparse.ArgumentParser(add_help=False)
    campaign.add_argument("--p", type=float,
                          help="edge probability for erdos_renyi (sweep: overrides --avg-degree)")
    campaign.add_argument("--graph-seed", type=int, help="generator seed (default: --seed)")
    campaign.add_argument("--k", type=int, help="explicit palette size")
    campaign.add_argument("--k-rule", choices=K_RULES, help="derive k from the max degree")
    campaign.add_argument("--strategy", choices=[s.value for s in Strategy])
    campaign.add_argument("--trials", type=int, default=100)
    campaign.add_argument("--seed", type=int, default=0, help="base seed; trial i uses seed+i")
    campaign.add_argument("--max-rounds", type=int, default=10**6)
    campaign.add_argument("--jobs", type=int, default=1)
    campaign.add_argument("--config", help="key=value config file; flags win")

    run_p = sub.add_parser("run", parents=[campaign], help="run one Monte Carlo campaign")
    run_p.add_argument("--graph", help="edge-list file to load")
    run_p.add_argument("--family", choices=FAMILIES, help="generator family")
    run_p.add_argument("--n", help="vertex count for generated graphs")
    run_p.add_argument("--allow-illegal-k", action="store_true")
    run_p.add_argument("--retention", choices=RETENTIONS, default="counts")
    run_p.add_argument("--out", help="per-trial CSV path")
    run_p.add_argument("--rounds-out", help="per-round unhappy-count CSV path")

    sweep_p = sub.add_parser(
        "sweep", parents=[campaign], help="campaigns across sizes, with bound column"
    )
    sweep_p.add_argument("--family", choices=FAMILIES, default="erdos_renyi")
    sweep_p.add_argument("--n", help="comma-separated sizes, e.g. 64,256,1024")
    sweep_p.add_argument("--avg-degree", type=float, default=8.0,
                         help="hold expected degree constant (default %(default)s)")
    sweep_p.add_argument("--out", help="table CSV path (default: stdout)")

    verify_p = sub.add_parser("verify", help="run the built-in verification suite")
    verify_p.add_argument("--level", choices=LEVELS, default="fast")
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


def _load_graph(args: argparse.Namespace):
    if args.graph and args.family:
        raise UsageError("give either --graph or --family, not both")
    if args.graph:
        try:
            return read_edge_list(args.graph)
        except FileNotFoundError:
            raise UsageError(f"graph file not found: {args.graph}") from None
    if args.family:
        if args.n is None:
            raise UsageError("--family needs --n")
        try:
            n = int(args.n)
        except ValueError:
            raise UsageError(f"--n expects an integer, got {args.n!r}") from None
        seed = args.seed if args.graph_seed is None else args.graph_seed
        return generate(args.family, n, p=args.p, seed=seed)
    raise UsageError("a graph is required: --graph FILE or --family NAME --n N")


def _strategy(args: argparse.Namespace) -> Strategy:
    if args.strategy is None:
        raise UsageError("--strategy is required (greedy or frugal)")
    return Strategy(args.strategy)


def cmd_run(args: argparse.Namespace) -> int:
    g = _load_graph(args)
    strategy = _strategy(args)
    spec = ExperimentSpec(
        graph=g,
        k=resolve_k(g, strategy, k=args.k, k_rule=args.k_rule),
        strategy=strategy,
        trials=args.trials,
        base_seed=args.seed,
        max_rounds=args.max_rounds,
        retention=args.retention,
        allow_illegal_k=args.allow_illegal_k,
    )
    result = run_campaign(spec, jobs=args.jobs, out=args.out, rounds_out=args.rounds_out)
    print(json.dumps(result.summary.to_dict(), indent=2))
    print(result.summary.human_line(), file=sys.stderr)
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    if args.n is None:
        raise UsageError("sweep needs --n with comma-separated sizes (may be empty)")
    text = args.n.strip()
    try:
        ns = [int(tok) for tok in text.split(",") if tok.strip()] if text else []
    except ValueError:
        raise UsageError(f"--n expects comma-separated integers, got {args.n!r}") from None
    strategy = _strategy(args)
    rows = sweep(
        ns,
        args.family,
        strategy,
        k=args.k,
        k_rule=args.k_rule,
        trials=args.trials,
        base_seed=args.seed,
        p=args.p,
        avg_degree=args.avg_degree,
        graph_seed=args.graph_seed,
        max_rounds=args.max_rounds,
        jobs=args.jobs,
    )
    table = format_sweep_csv(rows)
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
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
    payload = dataclasses.asdict(frugal_bounds(args.n))
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
    argv = sys.argv[1:] if argv is None else list(argv)
    args = parser.parse_args(argv)
    try:
        if getattr(args, "config", None):
            # the file's options go first, so the command line's flags win
            tokens = load_config(args.config, vars(args))
            args = parser.parse_args([args.command, *tokens, *argv[1:]])
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
    except (ContractViolation, EnumerationLimitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (UsageError, NetcolorError) as exc:
        # bad flags, parameters, palettes and malformed inputs are usage errors
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError) as exc:
        # any other ValueError is a runtime fault, not a bad input
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
