"""Tests of the benchmark itself, at tiny sizes.

    python3 -m pytest -q bench

They check that every metric of BENCHMARK.json is emitted with its unit,
that corrupted outputs count as failed operations, and that tracing leaves
the program's outputs unchanged.
"""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
import subprocess
import sys

import pytest

import run
import workloads
from tracer import LAYERS, Tracer

SPEC = run.load_spec()

TINY_CAMPAIGN = workloads.CampaignWorkload(
    name="tiny_campaign",
    family="erdos_renyi",
    n=40,
    p=0.1,
    graph_seed=3,
    strategy="frugal",
    k_rule="delta+1",
    trials=6,
    max_rounds=10**6,
)
TINY_TRAP = workloads.CampaignWorkload(
    name="tiny_trap",
    family="complete",
    n=3,
    strategy="greedy",
    k=3,
    allow_illegal_k=True,
    trials=4,
    max_rounds=50,
    trapped=3,
)
TINY_SWEEP = workloads.SweepWorkload(
    name="tiny_sweep",
    ns=(20, 40),
    avg_degree=4.0,
    strategy="frugal",
    k_rule="delta+1",
    trials=3,
    max_rounds=10**6,
)
TINY_VERIFY = workloads.VerifyWorkload(
    name="tiny_verify",
    level="fast",
    floors=(("triangle_k3", "complete", 3, 3),),
    chains=(("dense", "path3_k3", "path", 3, 3), ("iterative", "cycle4_k3", "cycle", 4, 3)),
    pins={
        "verify": {
            "available_size_floor": {"checked": 59},
            "two_round_happiness_floor": {"checked": 59, "min_prob": "9/16"},
            "engine_oracle_agreement": {},
            "envelope_dominance": {"sample_size": 2000},
        },
        "floors": {"triangle_k3": {"cases": 45, "min_two_round": "58/81"}},
        "chains": {"path3_k3": 1.8750000000000002, "cycle4_k3": 2.376247504990019},
    },
)
TINY = (TINY_CAMPAIGN, TINY_TRAP, TINY_SWEEP, TINY_VERIFY)


def first_pass(wl, tmp_path, seed=5):
    prep = wl.prepare(seed)
    out = wl.run_pass(prep, tmp_path)
    return prep, out


@pytest.mark.parametrize("trace", [False, True], ids=["end_to_end", "per_layer"])
@pytest.mark.parametrize("wl", TINY, ids=lambda wl: wl.name)
def test_every_metric_is_emitted_with_its_unit(wl, trace, tmp_path, monkeypatch):
    monkeypatch.setattr(run, "setup_samples", lambda name, seed, count: [0.5] * count)
    res = run.measure(wl, seed=5, seconds=0, trace=trace, outdir=tmp_path)
    result = run.result_of(SPEC, res, trace)
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, res["problems"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in wanted}
    assert all(math.isfinite(v["value"]) for v in result["metrics"].values())
    if not trace:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in wanted)
    json.dumps(result)


def test_every_flipped_byte_of_the_trials_csv_fails_the_gate(tmp_path):
    prep, out = first_pass(TINY_CAMPAIGN, tmp_path)
    assert TINY_CAMPAIGN.check(prep, out, None).failed == 0
    data = out.files["trials_csv"].read_bytes()
    flipped = tmp_path / "flipped.csv"
    for i in range(len(data)):
        flipped.write_bytes(data[:i] + bytes([data[i] ^ 1]) + data[i + 1 :])
        bad = dataclasses.replace(out, files={**out.files, "trials_csv": flipped})
        assert TINY_CAMPAIGN.check(prep, bad, None).failed >= 1, f"flip at byte {i} passed"


def test_pinned_digest_catches_a_flipped_rounds_csv_byte(tmp_path, monkeypatch):
    prep, out = first_pass(TINY_CAMPAIGN, tmp_path)
    facts = TINY_CAMPAIGN.check(prep, out, None).facts
    pins = {k: facts[k] for k in ("trials_csv_sha256", "rounds_csv_sha256", "summary_sha256", "spec_hash")}
    monkeypatch.setitem(workloads.GOLDEN, "tiny_campaign", {"5": pins})
    assert TINY_CAMPAIGN.check(prep, out, None).failed == 0
    data = bytearray(out.files["rounds_csv"].read_bytes())
    data[-2] ^= 1
    out.files["rounds_csv"].write_bytes(data)
    verdict = TINY_CAMPAIGN.check(prep, out, None)
    assert verdict.failed == verdict.attempted


def test_a_later_pass_must_reproduce_the_first(tmp_path):
    prep, out = first_pass(TINY_SWEEP, tmp_path)
    first = TINY_SWEEP.check(prep, out, None)
    assert first.failed == 0
    again = TINY_SWEEP.run_pass(prep, tmp_path)
    assert TINY_SWEEP.check(prep, again, first).failed == 0
    with open(again.files["sweep_csv"], "a", encoding="utf-8") as fh:
        fh.write("\n")
    assert TINY_SWEEP.check(prep, again, first).failed == len(TINY_SWEEP.ns)


@pytest.mark.parametrize(
    "section, key, wrong",
    [
        ("chains", "path3_k3", 1.8750000000000002 + 1e-6),
        ("chains", "cycle4_k3", 2.376247504990019 - 1e-6),
        ("floors", "triangle_k3", {"cases": 45, "min_two_round": "57/81"}),
        ("verify", "available_size_floor", {"checked": 60}),
    ],
)
def test_a_wrong_pin_fails_one_operation(section, key, wrong, tmp_path):
    prep, out = first_pass(TINY_VERIFY, tmp_path)
    assert TINY_VERIFY.check(prep, out, None).failed == 0
    pins = {**TINY_VERIFY.pins, section: {**TINY_VERIFY.pins[section], key: wrong}}
    wl = dataclasses.replace(TINY_VERIFY, pins=pins)
    assert wl.check(prep, out, None).failed == 1


def test_tracing_leaves_outputs_unchanged_and_accounts_for_its_wall(tmp_path):
    original = workloads.campaign.run_campaign
    prep, out = first_pass(TINY_TRAP, tmp_path)
    first = TINY_TRAP.check(prep, out, None)
    assert first.failed == 0
    tracer = Tracer()
    tracer.install()
    try:
        tracer.start_run("test")
        traced = TINY_TRAP.run_pass(prep, tmp_path, span=tracer.span)
    finally:
        tracer.uninstall()
    assert workloads.campaign.run_campaign is original
    assert workloads.cli.run_campaign is original
    assert TINY_TRAP.check(prep, traced, first).failed == 0
    layers = tracer.layer_metrics(0)
    by_layer = sum(layers[f"trace.{layer}_self_s"] for layer in LAYERS) + layers["trace.remainder_s"]
    assert by_layer == pytest.approx(layers["trace.wall_s"], abs=1e-9)
    assert layers["trace.engine_self_s"] > 0 and layers["trace.cli_self_s"] > 0
    assert layers["engine.run_calls"] == TINY_TRAP.trials
    assert layers["engine.rounds"] == first.rounds


def test_trapped_base_seed_fixes_the_number_of_timeouts(tmp_path):
    assert workloads.WORKLOADS["greedy_trap"].prepare(1)["base_seed"] == 1
    prep, out = first_pass(TINY_TRAP, tmp_path, seed=11)
    verdict = TINY_TRAP.check(prep, out, None)
    assert verdict.failed == 0
    timeouts = sum(r.tau is None for r in out.campaigns[0][1].results)
    assert timeouts == TINY_TRAP.trapped


def test_setup_probe_times_a_fresh_interpreter():
    (sample,) = run.setup_samples("greedy_trap", 1, 1)
    assert 0 < sample < 60


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "greedy_trap", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
