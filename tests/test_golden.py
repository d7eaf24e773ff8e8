"""Seeded outputs pinned byte for byte.

The digests were recorded with the per-pair ``rng.random()`` generator and
the per-vertex ``rng.randrange(k)`` round-1 coloring. The bulk readers of
the same MT19937 stream must reproduce them exactly.
"""

import dataclasses
import hashlib
import itertools
import json
import math
import random
from fractions import Fraction

import pytest

from netcolor import (
    ExperimentSpec,
    GameConfig,
    Strategy,
    complete_graph,
    erdos_renyi,
    from_edge_list,
    initial_state,
    run_campaign,
)
import netcolor.verification as verification
from netcolor.cli import main
from netcolor.graph import format_edge_list
from netcolor.verification import (
    AGREEMENT_INSTANCES,
    DEFAULT_SEED,
    check_available_size_floor,
    check_two_round_floor,
    one_round_counts,
)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize(
    "n, p, seed, digest",
    [
        (1000, 0.008, 42, "f46eb571e6052e2dc906d61ba0daf0db95b563b697a2591781dfea748ad0e108"),
        (2000, 8 / 2000, 1, "8a265bacb31686893739b5edc70bfaf2a256a276acbeeb6d4d0d97a21c6e7c9b"),
        (4000, 8 / 4000, 1, "447fc6d1172fb894d09f324ad64fd75a1c536a3362cffa1b5029d5beef10b4eb"),
        (8000, 8 / 8000, 1, "5c6d4f396474a519e5e1043095fd4096bd8f51c632b148d6380d33f734e2e5ab"),
    ],
)
def test_erdos_renyi_edge_list_digest(n, p, seed, digest):
    assert sha256(format_edge_list(erdos_renyi(n, p, seed)).encode()) == digest


def reference_erdos_renyi(n, p, seed):
    """G(n, p)'s sorted neighbor lists from the per-pair loop, built with sets."""
    rng = random.Random(seed)
    nbrs = [set() for _ in range(n)]
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                nbrs[u].add(v)
                nbrs[v].add(u)
    return [sorted(s) for s in nbrs]


@pytest.mark.parametrize(
    "n, p",
    [(n, p) for n in (1, 2, 3, 50) for p in (0.0, 1e-3, 0.5, 1.0)]
    # 79,800 pairs: more than one chunk of 2**16.
    + [(400, 0.3)],
)
def test_erdos_renyi_matches_per_pair_reference(n, p):
    for seed in (0, 7):
        g = erdos_renyi(n, p, seed)
        adjacency = reference_erdos_renyi(n, p, seed)
        assert [list(g.neighbors(v)) for v in range(n)] == adjacency
        src, dst = g.arcs()
        assert src.tolist() == [u for u, nbrs in enumerate(adjacency) for _ in nbrs]
        assert dst.tolist() == [v for nbrs in adjacency for v in nbrs]
        assert g.offsets().tolist() == list(itertools.accumulate(map(len, adjacency), initial=0))
        assert g.max_degree() == max(map(len, adjacency))


@pytest.mark.parametrize("seed", [0, 5, 11])
def test_erdos_renyi_threshold_is_exact_at_the_drawn_value(seed):
    # p equal to the first pair's random() value: random() < p is false.
    x = random.Random(seed).random()
    assert erdos_renyi(2, x, seed).edge_count == 0
    assert erdos_renyi(2, math.nextafter(x, 1.0), seed).edge_count == 1


@pytest.mark.parametrize(
    "n, k",
    [(3, 3), (40, 1), (40, 2), (200, 16), (1000, 19), (300, 100), (100, 2**31 + 1), (100, 2**32 - 1)],
)
def test_initial_state_matches_randrange(n, k):
    g = from_edge_list([], n)
    for seed in (0, 5):
        rng = random.Random(seed)
        state = initial_state(g, GameConfig(k=k, strategy=Strategy.FRUGAL, seed=seed), rng)
        ref = random.Random(seed)
        assert state.colors == tuple(ref.randrange(k) for _ in range(n))
        assert rng.getstate() == ref.getstate()


@pytest.mark.parametrize(
    "spec, trials_digest, rounds_digest",
    [
        (
            ExperimentSpec(
                graph=erdos_renyi(1000, 0.008, 42),
                k=19,
                strategy=Strategy.FRUGAL,
                trials=50,
                base_seed=0,
            ),
            "626506c35fb706ab48738c05dce7eae4dd6f91fefc563faf3decea97fa50db92",
            "f169369eec8cc6820c6248d645f570d7674cac5c8402ccad19dcd17829b61c61",
        ),
        (
            ExperimentSpec(
                graph=complete_graph(3),
                k=3,
                strategy=Strategy.GREEDY,
                trials=10,
                base_seed=0,
                max_rounds=1000,
                allow_illegal_k=True,
            ),
            "c35fd1a6b52d48631e79e636b5ea56a011f79f71f7b815363276bcb0d66f0e21",
            "04dbadae956cc8f53a770d08d9fc73b11af3b1cd27e5b63da574ee76c404b766",
        ),
        (
            # 9 of 10 trials trapped to the cap: their rows run past round
            # 10^5, so the rounds' span numbers cross 9 -> 10
            ExperimentSpec(
                graph=complete_graph(3),
                k=3,
                strategy=Strategy.GREEDY,
                trials=10,
                base_seed=0,
                max_rounds=10**5 + 7,
                allow_illegal_k=True,
            ),
            "3accc85de3014753825d63eed524b4e8003e83cfd19a33280e9898923e3580e8",
            "00e71db5b0b4cd43d4554c31abbc1baf60e38fc41eb3f09bdd23c06ee13962e4",
        ),
    ],
    ids=["er1000_k19_frugal", "k3_k3_greedy_illegal", "k3_k3_greedy_trapped_long"],
)
def test_campaign_csv_digests(spec, trials_digest, rounds_digest, tmp_path):
    trials, rounds = tmp_path / "trials.csv", tmp_path / "rounds.csv"
    run_campaign(spec, out=str(trials), rounds_out=str(rounds))
    assert sha256(trials.read_bytes()) == trials_digest
    assert sha256(rounds.read_bytes()) == rounds_digest


@pytest.mark.parametrize(
    "argv, digest",
    [
        (
            ["--family", "erdos_renyi", "--n", "1000", "--p", "0.008", "--graph-seed", "42",
             "--strategy", "frugal", "--k", "19", "--trials", "50"],
            "12665685a8e8477a7a04cf380487bfa1476ffc6f21b51535ae3da0dea6dba7f5",
        ),
        (
            ["--family", "complete", "--n", "3", "--strategy", "greedy", "--k", "3",
             "--allow-illegal-k", "--trials", "10", "--max-rounds", "1000"],
            "e6aeaa1679d3f3a40550f345c8c5dbc783a4cdac75f1effed57fff876d7202a4",
        ),
    ],
    ids=["er1000_k19_frugal", "k3_k3_greedy_illegal"],
)
def test_run_summary_digest(argv, digest, capsys):
    # the campaigns of test_campaign_csv_digests through `netcolor run`: the
    # summary JSON, spec_hash included, less its wall_time line
    assert main(["run", *argv, "--seed", "0"]) == 0
    lines = capsys.readouterr().out.splitlines(keepends=True)
    kept = "".join(line for line in lines if not line.startswith('  "wall_time": '))
    assert len(kept) < len("".join(lines))
    assert sha256(kept.encode()) == digest


@pytest.mark.parametrize(
    "index, digest",
    [
        (0, "1af7f5d12a63ba5f1fe99009d1885a1684bf5702ca6af43e69a89b27340fbd0a"),
        (1, "369b2411ce43afb9ca27a79bc34070be5b6508745df5e2f99b9774c610bef099"),
    ],
    ids=[inst[0] for inst in AGREEMENT_INSTANCES],
)
def test_agreement_sampler_digest(index, digest):
    # the counts verify's chi-square check compares, in order, and where
    # the stream stops; CPython and numpy alone decide them
    name, g, colors, strategy, k = AGREEMENT_INSTANCES[index]
    seed = DEFAULT_SEED + index
    rng = random.Random(seed)
    counts = one_round_counts(g, colors, GameConfig(k=k, strategy=strategy, seed=seed), rng, 10**5)
    assert sha256(repr((list(counts.items()), rng.getstate())).encode()) == digest


@pytest.mark.parametrize(
    "check, digest",
    [
        (check_available_size_floor, "7cdb2aacc5965c774a1ec79ebb320660b3bd6b83469abbba99dfe7ce118aef7d"),
        (check_two_round_floor, "987c7d392636465b8fb67715dce152b92d24af1ac5f17392263158e1fa869922"),
    ],
    ids=["available_size_floor", "two_round_floor"],
)
def test_exact_floor_details_digest(check, digest):
    # counts and exact Fraction strings: the same on every numpy and scipy
    assert sha256(json.dumps(check("full").details).encode()) == digest


# chi2_threshold is scipy.special.chdtri's critical value, whose last bits
# may move between scipy releases; the oldest scipy the package accepts
# must pass these digests too, so they hash the report less its
# chi2_threshold lines, and the values are pinned beside them to 1e-12
@pytest.mark.parametrize(
    "level, seed, digest",
    [
        ("fast", [], "7f90b9341d0070189ec107006f68d8e30c74e5774a8ca3ac46f1000764838d2f"),
        ("fast", ["--seed", "7"], "7cfe05cfaf392a50600ae4b4ec7238e43b1b980b757889d73dabc9ff52b05ede"),
        ("full", [], "45a6a707b81b7264be3a77238d4c8b8f54cf493236dfda9eb6f9e15ad7dadbb6"),
        ("full", ["--seed", "7"], "54af14c3e3ab92037ceb18377704def059a2ad5238069459fd47d92bdea3447f"),
    ],
    ids=["fast_default_seed", "fast_seed_7", "full_default_seed", "full_seed_7"],
)
def test_verify_stdout_digest(level, seed, digest, capsys):
    # verify's whole report, as test_cli.py::test_verify_fast runs it
    assert main(["verify", "--level", level, *seed]) == 0
    lines = capsys.readouterr().out.splitlines(keepends=True)
    thresholds = [line for line in lines if line.lstrip().startswith('"chi2_threshold": ')]
    values = [float(line.split(":")[1].rstrip(",\n")) for line in thresholds]
    assert values == pytest.approx([16.26623619623813] * len(AGREEMENT_INSTANCES), rel=1e-12)
    kept = "".join(line for line in lines if line not in thresholds)
    assert sha256(kept.encode()) == digest


def test_planted_size_floor_violations_digest(monkeypatch):
    # every corpus tail is 1, so no floor up to 1 fails a case: flip the
    # verdict of each law with three possible sizes instead, a property of
    # its palette class, and pin the records of the failing colorings
    law = verification.available_size_distribution

    def flipped(*args, **kwargs):
        got = law(*args, **kwargs)
        if len(got.distribution.support) != 3:
            return got
        return dataclasses.replace(got, holds=not got.holds)

    monkeypatch.setattr(verification, "available_size_distribution", flipped)
    result = check_available_size_floor("full")
    violations = result.details["violations"]
    assert result.details["checked"] == 612 and len(violations) == 132
    assert violations[0] == {"instance": "triangle_k3", "coloring": [0, 0, 0], "vertex": 0,
                             "prob": "1", "threshold": "3/5"}
    assert sha256(json.dumps(result.to_dict(), sort_keys=True).encode()) == (
        "6578748fa09d683e26ee3f7fde1c52d907714844ec7c0d1eef4bd443110beba3"
    )


def test_planted_two_round_floor_violations_digest(monkeypatch):
    monkeypatch.setattr(verification, "two_round_floor_holds", lambda p: p >= Fraction(3, 4))
    result = check_two_round_floor("full")
    violations = result.details["violations"]
    assert result.details["checked"] == 612 and len(violations) == 59
    assert violations[0] == {"instance": "triangle_k3", "coloring": [0, 0, 0], "vertex": 0,
                             "prob": "58/81"}
    assert sha256(json.dumps(result.to_dict(), sort_keys=True).encode()) == (
        "4318ebb34ce5a0a3de27703a52aad21a9c25a6d1480685b5303487224bad0296"
    )
