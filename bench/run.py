"""Run one netcolor benchmark workload and print its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all

A run repeats the workload's pass, each time after two set-up probes,
while the next round is expected to end within --seconds, fills the rest
with probes, and reports medians over passes and probes. With --trace 0 it prints the end-to-end
metrics of BENCHMARK.json; with --trace 1 it alternates untraced
and traced passes and prints the per-layer metrics, a breakdown of every
layer and the tracing overhead, and writes the spans under .bench_out/.
Every pass is checked; the last line of stdout is the result as JSON.
``--workload all`` runs every workload once, each in a fresh process.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from tracer import LAYERS, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def unit_of(metric: str) -> str:
    if metric.endswith("_per_s"):
        return "1/s"
    if "_ms_" in metric or metric.endswith("_ms"):
        return "ms"
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_frac"):
        return "fraction"
    if metric.endswith("_bytes"):
        return "B"
    return "count"


def environment(seed: int) -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "seed": seed,
    }


def setup_samples(name: str, seed: int, count: int) -> list[float]:
    """Seconds from starting a fresh interpreter until its inputs are ready, `count` times."""
    samples = []
    for _ in range(count):
        t0 = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, str(HERE / "probe.py"), name, str(seed)],
            stdout=subprocess.PIPE,
            cwd=ROOT,
            text=True,
        ) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
            rc = proc.wait(timeout=120)
        if line.strip() != "ready" or rc != 0:
            raise RuntimeError(f"set-up probe for {name} failed with exit code {rc}")
        samples.append(elapsed)
    return samples


def measure(wl, seed: int, seconds: float, trace: bool, outdir: Path) -> dict:
    """Prepare, then repeat passes for about `seconds` and check every pass.

    Untraced, two set-up probes precede each pass, and more probes fill
    the time left after the last pass, so the set-up samples spread over
    the whole run; probes and checks count against `seconds`. Traced, an
    untraced and a traced pass alternate.
    """
    t0 = time.perf_counter()
    prep = wl.prepare(seed)
    prepare_s = time.perf_counter() - t0

    tracer = Tracer() if trace else None
    setup, plain, traced = [], [], []
    first = None
    started = last = time.perf_counter()
    while True:
        if tracer is None:
            setup += setup_samples(wl.name, seed, 2)
        out = wl.run_pass(prep, outdir)
        verdict = wl.check(prep, out, first)
        first = first or verdict
        out.campaigns.clear()
        plain.append((out, verdict))
        if tracer is not None:
            tracer.install()
            try:
                tracer.start_run(f"{wl.name}:{seed}:{len(traced)}")
                out = wl.run_pass(prep, outdir, span=tracer.span)
            finally:
                tracer.uninstall()
            verdict = wl.check(prep, out, first)
            out.campaigns.clear()
            traced.append((out, verdict))
        del out
        now = time.perf_counter()
        # Start another round only if one as long as the last ends within `seconds`.
        if 2 * now - last - started > seconds:
            break
        last = now
    # Fill what is left of the run with more set-up probes.
    while setup and time.perf_counter() - started + statistics.fmean(setup) <= seconds:
        setup += setup_samples(wl.name, seed, 1)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    walls = [p.wall for p, _ in plain]
    metrics = {
        "wall_s": statistics.median(walls),
        "trials_per_s": statistics.median(v.trials / p.wall for p, v in plain),
        "rounds_per_s": statistics.median(v.rounds / p.wall for p, v in plain),
        "setup_s": statistics.median(setup or [prepare_s]),
        "peak_rss_mb": peak_rss_mb,
    }
    layers = {}
    if tracer is not None:
        per_pass = [tracer.layer_metrics(i) for i in range(len(traced))]
        for key in per_pass[0]:
            layers[key] = statistics.median(m[key] for m in per_pass)
        layers["engine.redraws"] = first.facts.get("engine.redraws", 0)
        layers["campaign.csv_bytes"] = first.facts.get("campaign.csv_bytes", 0)
        layers["trace.untraced_wall_s"] = statistics.median(walls)
        layers["trace.overhead_s"] = layers["trace.wall_s"] - layers["trace.untraced_wall_s"]
        # Each traced pass runs right after its untraced twin, so their ratio
        # is less exposed to the host's drift than the difference of medians.
        layers["trace.overhead_frac"] = statistics.median(
            t.wall / p.wall - 1 for (p, _), (t, _) in zip(plain, traced)
        )
    verdicts = [v for _, v in plain + traced]
    return {
        "prep": prep,
        "metrics": metrics,
        "layers": layers,
        "tracer": tracer,
        "passes": len(verdicts),
        "setup_probes": len(setup),
        "attempted": sum(v.attempted for v in verdicts),
        "failed": sum(v.failed for v in verdicts),
        "problems": [p for v in verdicts for p in v.problems],
        "first": first,
    }


def print_layers(name: str, layers: dict) -> None:
    for key in sorted(layers):
        print(f"layer {name} {key} {layers[key]:.9g} {unit_of(key)}")
    split = ", ".join(f"{layer} {layers[f'trace.{layer}_self_s']:.6f}" for layer in LAYERS)
    print(
        f"trace {name}: traced wall {layers['trace.wall_s']:.6f} s = self times by layer ({split}) "
        f"+ benchmark remainder {layers['trace.remainder_s']:.6f} s "
        f"[sum {layers['trace.self_sum_s']:.6f} s]; tracing overhead {100 * layers['trace.overhead_frac']:+.2f}% "
        f"(median over traced/untraced pass pairs; difference of medians {layers['trace.overhead_s']:+.6f} s "
        f"on {layers['trace.untraced_wall_s']:.6f} s untraced)"
    )


def run_one(wl, seed: int, seconds: float, trace: bool) -> int:
    name = wl.name
    spec = load_spec()
    OUT.mkdir(exist_ok=True)
    outdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=OUT))
    try:
        res = measure(wl, seed, seconds, trace, outdir)
    finally:
        shutil.rmtree(outdir, ignore_errors=True)

    print("env " + json.dumps(environment(seed), sort_keys=True))
    print("inputs " + json.dumps({name: wl.inputs(res["prep"], res["first"])}, sort_keys=True))
    for problem in res["problems"][:20]:
        print(f"FAIL {name}: {problem}")
    fail_frac = res["failed"] / res["attempted"]
    print(f"{name}: {res['passes']} passes, {res['setup_probes']} set-up probes, {res['attempted']} operations, {res['failed']} failed, fail_frac {fail_frac:.6g}")
    if trace:
        print_layers(name, res["layers"])
        spans = OUT / "spans" / f"{name}-seed{seed}.csv.gz"
        spans.parent.mkdir(exist_ok=True)
        res["tracer"].write(spans)
        print(f"spans written to {spans.relative_to(ROOT)}")
    else:
        for m in spec["end_to_end"]:
            print(f"metric {name} {m['name']} {res['metrics'][m['name']]:.9g} {m['unit']}")
    print(json.dumps(result_of(spec, res, trace)))
    return 0


def result_of(spec: dict, res: dict, trace: bool) -> dict:
    """The result line: per-layer metrics when traced, end-to-end ones otherwise."""
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    values = res["layers"] if trace else res["metrics"]
    return {
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }


def run_fresh(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, list[str]]:
    """Run one workload in a fresh run.py process; returns its result and the lines before it."""
    argv = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(int(trace))]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"workload {name} seed {seed} exited with {proc.returncode}")
    return json.loads(lines[-1]), lines[:-1]


def run_all(names, seed: int, seconds: float, trace: bool) -> int:
    """Every workload once, each in its own process so peak RSS is its own."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        res, lines = run_fresh(name, seed, seconds, trace)
        for line in lines:
            print(line)
        merged["correct"] &= res["correct"]
        merged["attempted"] += res["attempted"]
        merged["failed"] += res["failed"]
        for key, value in res["metrics"].items():
            merged["metrics"][f"{name}.{key}"] = value
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        import workloads
    except ImportError as exc:
        print(f"bench: cannot load the package: {exc}", file=sys.stderr)
        return 2
    seconds = args.seconds if args.seconds is not None else load_spec()["run_seconds"]
    if args.workload == "all":
        return run_all(list(workloads.WORKLOADS), args.seed, seconds, bool(args.trace))
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)} or all")
    return run_one(workloads.WORKLOADS[args.workload], args.seed, seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
