"""The rounds CSV writer against the %-format writer it replaced, byte for byte."""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from netcolor import History, campaign
from netcolor.campaign import _csv_rows, write_rounds_csv


def reference_rounds_csv(results) -> bytes:
    """The former writer: one %-format per trial and block of 8192 rounds."""
    parts = ["trial,round,unhappy_count\n"]
    for i, r in enumerate(results):
        counts = r.history.counts
        for lo in range(0, len(counts), 8192):
            block = counts[lo : lo + 8192]
            rounds = np.arange(lo + 1, lo + 1 + len(block))
            pairs = np.column_stack((rounds, block)).ravel().tolist()
            parts.append(f"{i},%d,%d\n" * len(block) % tuple(pairs))
    return "".join(parts).encode()


def trials(*counts, n=10**6):
    """Stand-in trial results: only the history's counts are written."""
    return [SimpleNamespace(history=History(n, c)) for c in counts]


def written(tmp_path, results) -> bytes:
    path = tmp_path / "rounds.csv"
    write_rounds_csv(str(path), results)
    return path.read_bytes()


def test_rounds_crossing_digit_boundaries(tmp_path):
    rng = np.random.default_rng(1)
    results = trials(
        rng.integers(0, 4, 150),  # rounds 9 -> 10 and 99 -> 100
        np.zeros(1_000_003, dtype=np.int64),  # round 999999 -> 1000000, counts all 0
        [0, 9, 10, 99, 100, 12345],
    )
    data = written(tmp_path, results)
    assert data == reference_rounds_csv(results)
    assert b"\n1,999999,0\n1,1000000,0\n" in data
    assert data.endswith(b"\n2,6,12345\n")


def test_trial_indices_of_two_and_five_digits(tmp_path):
    # 10_005 single-round trials: trial indices cross 9 -> 10 and 9999 -> 10000
    results = trials(*([i % 3] for i in range(10_005)))
    data = written(tmp_path, results)
    assert data == reference_rounds_csv(results)
    assert b"\n9,1,0\n10,1,1\n" in data and b"\n9999,1,0\n10000,1,1\n" in data


def test_empty_campaign_and_empty_histories(tmp_path):
    assert written(tmp_path, []) == b"trial,round,unhappy_count\n"
    results = trials([], [3], [])
    assert written(tmp_path, results) == reference_rounds_csv(results)
    assert written(tmp_path, results) == b"trial,round,unhappy_count\n1,1,3\n"


@pytest.mark.parametrize(
    "lengths",
    [
        (8192, 5000, 5000, 1),  # a boundary between trials, then one inside a trial
        (3, 8191, 8192, 8190, 2),  # boundaries inside trials only
        (8192, 8192),  # the last row of the file ends a block
    ],
)
def test_block_boundaries(tmp_path, monkeypatch, lengths):
    calls = []

    def counting(columns):
        calls.append(len(columns[0]))
        return _csv_rows(columns)

    monkeypatch.setattr(campaign, "_csv_rows", counting)
    rng = np.random.default_rng(len(lengths))
    results = trials(*(rng.integers(0, 1000, m) for m in lengths))
    assert written(tmp_path, results) == reference_rounds_csv(results)
    # one call per full block, across trials, and one for the remainder
    total = sum(lengths)
    assert calls == [8192] * (total // 8192) + ([total % 8192] if total % 8192 else [])


@settings(max_examples=50, deadline=None)
@given(
    st.lists(st.lists(st.integers(0, 2**31), max_size=12), max_size=8),
    st.integers(1, 9),
)
def test_any_histories_at_any_block_size(tmp_path_factory, counts, block):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(campaign, "ROUNDS_BLOCK", block)
        results = trials(*counts)
        assert written(tmp_path_factory.mktemp("rounds"), results) == reference_rounds_csv(results)


def percent_rows(columns) -> bytes:
    return "".join(",".join("%d" % v for v in row) + "\n" for row in zip(*columns)).encode()


def test_csv_rows_at_and_above_two_to_the_32():
    big = [0, 9, 2**32 - 1, 2**32, 10**10, 2**63 - 1]
    columns = [np.array(big), np.array(big[::-1]), np.arange(len(big))]
    assert _csv_rows(columns) == percent_rows(columns)
    top = np.array([2**64 - 1, 10**19, 10**19 - 1, 1], dtype=np.uint64)
    assert _csv_rows([top]) == percent_rows([top.tolist()])
    assert _csv_rows([top]).split(b"\n")[0] == b"18446744073709551615"


@settings(max_examples=100, deadline=None)
@given(
    st.integers(0, 20).flatmap(
        lambda n: st.lists(st.lists(st.integers(0, 2**63 - 1), min_size=n, max_size=n),
                           min_size=1, max_size=4)
    )
)
def test_csv_rows_matches_percent_d(columns):
    assert _csv_rows([np.array(c, dtype=np.int64) for c in columns]) == percent_rows(columns)
