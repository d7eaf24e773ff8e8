"""The rounds CSV writer against the %-format writer it replaced, byte for byte."""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from netcolor import History, campaign
from netcolor.campaign import SPAN, _copy_span, _span_rows, write_rounds_csv
from netcolor.graph import int_rows


def reference_rounds_csv(results) -> bytes:
    """The former writer: one %-format per trial and block of 8192 rounds."""
    parts = ["trial,round,unhappy_count\n"]
    for i, r in enumerate(results):
        counts = r.history.count_range(0, len(r.history))
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


# Trial lengths and the rows of each block they are written in: whole
# trials, a block ending with the trial that brings it to 8192 rows or more
WHOLE_TRIAL_BLOCKS = {
    (8192, 5000, 5000, 1): [8192, 10000, 1],  # a trial fills one block, two the next
    (3, 8191, 8192, 8190, 2): [8194, 8192, 8192],  # 8192-row cuts would split trials 1 and 2
    (8192, 8192): [8192, 8192],  # the last row of the file ends a block
}


@pytest.mark.parametrize("lengths", list(WHOLE_TRIAL_BLOCKS))
def test_block_boundaries(tmp_path, monkeypatch, lengths):
    calls = []

    def counting(columns):
        calls.append(len(columns[0]))
        return int_rows(columns)

    monkeypatch.setattr(campaign, "int_rows", counting)
    rng = np.random.default_rng(len(lengths))
    results = trials(*(rng.integers(0, 1000, m) for m in lengths))
    assert written(tmp_path, results) == reference_rounds_csv(results)
    # one call per block of whole trials, and one for the remainder
    assert calls == WHOLE_TRIAL_BLOCKS[lengths]


@settings(max_examples=50, deadline=None)
@given(
    st.lists(st.lists(st.integers(0, 2**31), max_size=12), max_size=8),
    st.integers(1, 9),
)
def test_any_histories_at_any_block_size(tmp_path_factory, counts, block):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(campaign, "HISTORY_BLOCK", block)
        results = trials(*counts)
        assert written(tmp_path_factory.mktemp("rounds"), results) == reference_rounds_csv(results)


def trapped(stored, period, length):
    """A stand-in trial whose forced orbit was skipped after the stored rounds."""
    return SimpleNamespace(history=History(10**6, stored, skip=(period, length)))


def counted_paths(monkeypatch):
    """Record each `int_rows` call's rows, each `_span_rows` call's
    (prefix, digits, first offset, rows) and each `_copy_span` call's
    (span number, rows)."""
    csv_calls, span_calls, copy_calls = [], [], []

    def counting_csv(columns):
        csv_calls.append(len(columns[0]))
        return int_rows(columns)

    def counting_span(prefix, digits, first_offset, counts):
        span_calls.append((prefix, digits, first_offset, len(counts)))
        return _span_rows(prefix, digits, first_offset, counts)

    def counting_copy(previous, at, number, m):
        copy_calls.append((number, m))
        return _copy_span(previous, at, number, m)

    monkeypatch.setattr(campaign, "int_rows", counting_csv)
    monkeypatch.setattr(campaign, "_span_rows", counting_span)
    monkeypatch.setattr(campaign, "_copy_span", counting_copy)
    return csv_calls, span_calls, copy_calls


def head_pieces(prefix):
    """The `_span_rows` calls of rounds 1..SPAN - 1: one piece per number of digits."""
    return [(prefix, 1, 1, 9), (prefix, 2, 10, 90), (prefix, 3, 100, 900), (prefix, 4, 1000, 9000)]


def test_rounds_from_the_span_boundary_take_the_span_path(tmp_path, monkeypatch):
    csv_calls, span_calls, copy_calls = counted_paths(monkeypatch)
    results = [*trials([5, 6, 7]), trapped([3, 4], 1, 25_000), *trials([1, 2])]
    assert written(tmp_path, results) == reference_rounds_csv(results)
    # trial 1 is long, so it cuts the block of trial 0; its rounds 1..9999
    # go as four pieces and 10000..19999 as one span, and 20000..25000
    # repeat that span; trial 2 ends the last block
    assert csv_calls == [3, 2]
    assert span_calls == [*head_pieces(b"1,"), (b"1,1", 4, 0, SPAN)]
    assert copy_calls == [(b"2", 5001)]


def test_a_span_with_counts_of_two_widths_falls_back_to_csv_rows(tmp_path, monkeypatch):
    csv_calls, span_calls, copy_calls = counted_paths(monkeypatch)
    # counts alternate 9 and 10 from round 3: every piece of trial 0 straddles
    # a power of ten; trial 1 holds only counts of 99999
    results = [trapped([1, 1, 9, 10], 2, 2 * SPAN - 1), trapped([99999], 1, 2 * SPAN + 6)]
    data = written(tmp_path, results)
    assert data == reference_rounds_csv(results)
    assert b"\n0,10000,10\n0,10001,9\n" in data and data.endswith(b"\n1,20006,99999\n")
    assert span_calls == [
        *head_pieces(b"0,"), (b"0,1", 4, 0, SPAN), *head_pieces(b"1,"), (b"1,1", 4, 0, SPAN),
    ]
    # trial 0: its four head pieces and its span; trial 1: none
    assert csv_calls == [9, 90, 900, 9000, SPAN]
    assert copy_calls == [(b"2", 7)]


def test_a_trial_of_a_million_and_one_rounds(tmp_path, monkeypatch):
    _, span_calls, copy_calls = counted_paths(monkeypatch)
    results = [trapped([3, 1, 2], 2, 10**6 + 1)]
    data = written(tmp_path, results)
    assert data == reference_rounds_csv(results)
    assert data.endswith(b"\n0,999999,2\n0,1000000,1\n0,1000001,2\n")
    assert b"\n0,99999,2\n0,100000,1\n0,100001,2\n" in data
    # a span is copied from the one before it unless its number has
    # another digit count: spans 1, 10 and 100 are formatted
    assert span_calls[4:] == [(b"0,1", 4, 0, SPAN), (b"0,10", 4, 0, SPAN), (b"0,100", 4, 0, 2)]
    copied = [*range(2, 10), *range(11, 100)]
    assert copy_calls == [(b"%d" % a, SPAN) for a in copied]


def test_a_trapped_trial_formats_one_tail_span_of_nine(tmp_path, monkeypatch):
    _, span_calls, copy_calls = counted_paths(monkeypatch)
    results = [trapped([3, 1, 2], 2, 10**5)]
    assert written(tmp_path, results) == reference_rounds_csv(results)
    # spans 2..9 repeat span 1; span 10 (round 100000 alone) has a
    # two-digit number, so it is formatted
    assert span_calls == [*head_pieces(b"0,"), (b"0,1", 4, 0, SPAN), (b"0,10", 4, 0, 1)]
    assert copy_calls == [(b"%d" % a, SPAN) for a in range(2, 10)]


def test_an_orbit_whose_period_does_not_divide_the_span(tmp_path, monkeypatch):
    _, span_calls, copy_calls = counted_paths(monkeypatch)
    results = [trapped([5, 6, 7, 8], 3, 5 * SPAN + 3)]
    assert written(tmp_path, results) == reference_rounds_csv(results)
    # offset j of span a is round a * SPAN + j, whose place in the period
    # moves with a, so every span is formatted
    assert span_calls[4:] == [(b"0,%d" % a, 4, 0, SPAN) for a in range(1, 5)] + [(b"0,5", 4, 0, 4)]
    assert copy_calls == []


@pytest.mark.parametrize(
    "history",
    [
        History(10**6, [4], skip=(1, 3 * SPAN + 1234)),
        History(10**6, [2, 7, 3], skip=(2, 4 * SPAN + 17)),
        History(10**6, [5, 0, 1, 0, 1], skip=(2, 2 * SPAN + 9999)),
        # full retention: each stored round is a position in sets
        History(10**6, [1, 0, 1], sets=(frozenset({0, 1}), frozenset({2})), skip=(2, 3 * SPAN + 5)),
    ],
    ids=["period1", "period2", "period2_after_an_entry", "period2_full_retention"],
)
def test_periods_one_and_two_end_in_a_partial_span(tmp_path, monkeypatch, history):
    _, span_calls, copy_calls = counted_paths(monkeypatch)
    results = [SimpleNamespace(history=history)]
    assert written(tmp_path, results) == reference_rounds_csv(results)
    # span 1 is formatted, the rest copied, the last one in part
    spans = len(history) // SPAN
    assert span_calls[4:] == [(b"0,1", 4, 0, SPAN)]
    assert copy_calls == [(b"%d" % a, SPAN) for a in range(2, spans)] + [
        (b"%d" % spans, len(history) - spans * SPAN + 1)
    ]


def test_a_span_after_one_holding_stored_rounds_is_formatted(tmp_path, monkeypatch):
    _, span_calls, copy_calls = counted_paths(monkeypatch)
    # the stored rounds run to round 15002, inside span 1; span 2 is the
    # first one whose previous span repeats the orbit throughout
    results = [trapped([7] * 15_000 + [1, 2], 2, 4 * SPAN + 3)]
    data = written(tmp_path, results)
    assert data == reference_rounds_csv(results)
    assert b"\n0,15000,7\n0,15001,1\n0,15002,2\n0,15003,1\n" in data
    assert span_calls[4:] == [(b"0,1", 4, 0, SPAN), (b"0,2", 4, 0, SPAN)]
    assert copy_calls == [(b"3", SPAN), (b"4", 4)]


def test_a_head_piece_whose_counts_change_width(tmp_path, monkeypatch):
    csv_calls, span_calls, _ = counted_paths(monkeypatch)
    # rounds 10..99 hold counts 9 and 10; every other piece has one width
    stored = [3] * 9 + [9] * 45 + [10] * 45 + [5] * 900 + [6] * 9000
    results = [trapped(stored, 1, SPAN + 3)]
    data = written(tmp_path, results)
    assert data == reference_rounds_csv(results)
    assert b"\n0,54,9\n0,55,10\n" in data
    assert csv_calls == [90]
    assert span_calls == [*head_pieces(b"0,"), (b"0,1", 4, 0, 4)]


def test_long_trials_with_indices_of_one_to_five_digits(tmp_path):
    long = {3: 0, 42: 9, 517: 10, 6031: 12345, 10_000: 2**40}
    results = [
        trapped([long[i]], 1, 2 * SPAN + 5) if i in long else trials([i % 7])[0]
        for i in range(10_001)
    ]
    data = written(tmp_path, results)
    assert data == reference_rounds_csv(results)
    assert b"\n6031,20005,12345\n6032,1,5\n" in data
    assert data.endswith(b"\n10000,20005,%d\n" % 2**40)


@st.composite
def long_compact_histories(draw):
    """A skipped forced orbit of 1-3 spans ending within two rounds of a span boundary."""
    lo, hi = draw(st.sampled_from([(0, 9), (10, 99), (1000, 9999), (2**31, 2**31 + 9), (5, 14)]))
    period = draw(st.integers(1, 4))
    stored = draw(st.lists(st.integers(lo, hi), min_size=period, max_size=12))
    length = draw(st.integers(1, 3)) * SPAN + draw(st.integers(-2, 2))
    return History(10**6, stored, skip=(period, length))


@settings(max_examples=30, deadline=None)
@given(
    st.lists(
        st.one_of(
            long_compact_histories(),
            st.lists(st.integers(0, 99), max_size=5).map(lambda c: History(10**6, c)),
        ),
        min_size=1,
        max_size=3,
    )
)
def test_any_long_compact_histories(tmp_path_factory, histories):
    results = [SimpleNamespace(history=h) for h in histories]
    assert written(tmp_path_factory.mktemp("rounds"), results) == reference_rounds_csv(results)


def percent_rows(columns) -> bytes:
    return "".join(",".join("%d" % v for v in row) + "\n" for row in zip(*columns)).encode()


def test_csv_rows_at_and_above_two_to_the_32():
    big = [0, 9, 2**32 - 1, 2**32, 10**10, 2**63 - 1]
    columns = [np.array(big), np.array(big[::-1]), np.arange(len(big))]
    assert int_rows(columns) == percent_rows(columns)
    top = np.array([2**64 - 1, 10**19, 10**19 - 1, 1], dtype=np.uint64)
    assert int_rows([top]) == percent_rows([top.tolist()])
    assert int_rows([top]).split(b"\n")[0] == b"18446744073709551615"


@settings(max_examples=100, deadline=None)
@given(
    st.integers(0, 20).flatmap(
        lambda n: st.lists(st.lists(st.integers(0, 2**63 - 1), min_size=n, max_size=n),
                           min_size=1, max_size=4)
    )
)
def test_csv_rows_matches_percent_d(columns):
    assert int_rows([np.array(c, dtype=np.int64) for c in columns]) == percent_rows(columns)
