"""Run the workloads on two sets of seeds and record medians, quartiles, spreads and agreement.

    python3 bench/baseline.py --out bench/baseline.json
    python3 bench/baseline.py --sets 1 --seeds 5 --workloads sweep_er

Each run is a fresh ``run.py`` process with BENCHMARK.json's run_seconds.
Set s uses the seeds first_seed + 100 * s + i for i < --seeds; every set
runs all workloads before the next set starts, so the sets are minutes
apart. For each end-to-end metric the spread is the distance between the
first and third quartile of its values (``statistics.quantiles(values,
n=4)``) as a share of their median; it must stay within the metric's bound
and is flagged when it reaches a third of it. The second set's median must
not be worse than the first's by more than the bound. With --trace-seed,
one traced run per workload adds its full per-layer breakdown. The record
is rewritten after every workload of every set.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

from run import load_spec, run_fresh


def spread_of(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median, "values": values}


def run_set(spec: dict, name: str, seeds: list[int]) -> tuple[dict, bool, dict]:
    """Record of one workload over seeds; whether every spread is within its bound; the environment."""
    started = time.perf_counter()
    results, inputs, env = [], None, None
    for seed in seeds:
        result, lines = run_fresh(name, seed, spec["run_seconds"], trace=False)
        if not result["correct"]:
            print("\n".join(line for line in lines if line.startswith("FAIL")))
        results.append(result)
        if inputs is None:
            inputs = next(json.loads(line[7:])[name] for line in lines if line.startswith("inputs "))
            env = next(json.loads(line[4:]) for line in lines if line.startswith("env "))
    entry = {
        "run_wall_s": (time.perf_counter() - started) / len(seeds),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "inputs_first_seed": inputs,
        "metrics": {},
    }
    within = entry["failed"] == 0
    for m in spec["end_to_end"]:
        stats = spread_of([r["metrics"][m["name"]]["value"] for r in results])
        stats.update(unit=m["unit"], bound=m["bound"])
        entry["metrics"][m["name"]] = stats
        within &= stats["spread"] <= m["bound"]
        flag = "" if stats["spread"] < m["bound"] / 3 else "  <-- reaches a third of the bound"
        if stats["spread"] > m["bound"]:
            flag = "  <-- OUTSIDE the bound"
        print(f"{name} {m['name']}: median {stats['median']:.6g} {m['unit']}, "
              f"IQR/median {stats['spread']:.4f} (bound {m['bound']}){flag}; "
              f"values {' '.join(f'{v:.4g}' for v in stats['values'])}", flush=True)
    print(f"{name}: {entry['run_wall_s']:.1f} s per run, {entry['failed']} of {entry['attempted']} operations failed",
          flush=True)
    return entry, within, {k: v for k, v in env.items() if k != "seed"}


def agreement(spec: dict, first: dict, second: dict) -> tuple[dict, bool]:
    """How much worse each median of the second set is than the first, as a share of the first."""
    out, ok = {}, True
    for m in spec["end_to_end"]:
        a = first["metrics"][m["name"]]["median"]
        b = second["metrics"][m["name"]]["median"]
        worse_by = (b - a) / a if m["better"] == "lower" else (a - b) / a
        out[m["name"]] = {"first": a, "second": b, "worse_by": worse_by, "bound": m["bound"],
                          "ok": worse_by <= m["bound"]}
        ok &= worse_by <= m["bound"]
    return out, ok


def traced_breakdown(spec: dict, name: str, seed: int) -> dict:
    result, lines = run_fresh(name, seed, spec["run_seconds"], trace=True)
    return {
        "seed": seed,
        "correct": result["correct"],
        "breakdown": {
            parts[2]: {"value": float(parts[3]), "unit": parts[4]}
            for parts in (line.split() for line in lines if line.startswith("layer "))
        },
        "accounting": next((line for line in lines if line.startswith("trace ")), None),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, default=10, help="runs per workload and set")
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--first-seed", type=int, default=101)
    parser.add_argument("--workloads", help="comma-separated names (default: all of BENCHMARK.json)")
    parser.add_argument("--trace-seed", type=int, help="also make one traced run per workload with this seed")
    parser.add_argument("--out", help="write the record here as JSON")
    args = parser.parse_args(argv)

    spec = load_spec()
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    record = {
        "command": "python3 bench/baseline.py " + " ".join(argv if argv is not None else sys.argv[1:]),
        "run_seconds": spec["run_seconds"],
        "workloads": names,
        "sets": [],
    }

    def save():
        if args.out:
            Path(args.out).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")

    steady = True
    for s in range(args.sets):
        seeds = [args.first_seed + 100 * s + i for i in range(args.seeds)]
        entries = {}
        record["sets"].append({"seeds": seeds, "workloads": entries})
        for name in names:
            entries[name], within, record["env"] = run_set(spec, name, seeds)
            steady &= within
            save()
    if args.sets >= 2:
        record["agreement"] = {}
        for name in names:
            record["agreement"][name], ok = agreement(spec, record["sets"][0]["workloads"][name],
                                                      record["sets"][1]["workloads"][name])
            steady &= ok
            for metric, a in record["agreement"][name].items():
                print(f"{name} {metric}: second median {100 * a['worse_by']:+.1f}% worse than the first "
                      f"(bound {100 * a['bound']:.0f}%){'' if a['ok'] else '  <-- OUTSIDE the bound'}")
        save()
    if args.trace_seed is not None:
        record["traced"] = {name: traced_breakdown(spec, name, args.trace_seed) for name in names}
        save()
    record["within_bounds"] = steady
    save()
    print("every spread and agreement within its bound" if steady else "NOT within the bounds")
    return 0


if __name__ == "__main__":
    sys.exit(main())
