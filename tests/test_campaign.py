import csv
import filecmp
import json
import pickle

import pytest

from netcolor import (
    ConfigError,
    ContractViolation,
    ExperimentSpec,
    GraphFormatError,
    IllegalPaletteError,
    Strategy,
    complete_graph,
    from_edge_list,
    frugal_bounds,
    resolve_k,
    run_campaign,
    sweep,
)
from netcolor import campaign
from netcolor.campaign import SWEEP_COLUMNS, format_sweep_csv, quantile_95
from netcolor.cli import main

TRIANGLE = complete_graph(3)


def spec(graph=TRIANGLE, k=3, strategy=Strategy.FRUGAL, trials=100, seed=0, **kw):
    return ExperimentSpec(
        graph=graph, k=k, strategy=strategy, trials=trials, base_seed=seed, **kw
    )


def test_resolve_k():
    assert resolve_k(TRIANGLE, Strategy.FRUGAL) == 3
    assert resolve_k(TRIANGLE, Strategy.GREEDY) == 4
    assert resolve_k(TRIANGLE, Strategy.FRUGAL, k=7) == 7
    assert resolve_k(TRIANGLE, Strategy.GREEDY, k_rule="delta+1") == 3
    assert resolve_k(TRIANGLE, Strategy.FRUGAL, k_rule="delta+2") == 4
    with pytest.raises(ValueError, match="not both"):
        resolve_k(TRIANGLE, Strategy.FRUGAL, k=3, k_rule="delta+1")
    with pytest.raises(ValueError, match="unknown k rule"):
        resolve_k(TRIANGLE, Strategy.FRUGAL, k_rule="delta+3")


def test_spec_validation():
    with pytest.raises(ValueError, match="trials"):
        spec(trials=0).validate()
    # range(2.5) would raise TypeError only once the campaign starts
    with pytest.raises(ConfigError, match="trials must be an integer, got 2.5"):
        spec(trials=2.5).validate()
    with pytest.raises(IllegalPaletteError):
        spec(k=2).validate()
    spec(k=2, allow_illegal_k=True).validate()


def test_edgeless_campaign_all_immediate():
    g = from_edge_list([], 10)
    result = run_campaign(spec(graph=g, k=1, trials=100))
    s = result.summary
    assert s.mean_tau == 1.0
    assert s.timeouts == 0
    assert s.converged == 100
    assert s.max_tau == 1
    assert s.mean_final_unhappy_on_timeout is None


def test_triangle_campaign_summary_fields():
    result = run_campaign(spec(trials=300, seed=11))
    s = result.summary
    assert (s.n, s.delta, s.k, s.strategy) == (3, 2, 3, "frugal")
    assert s.trials == 300 and s.converged == 300 and s.timeouts == 0
    assert s.mean_tau >= 1.0
    assert s.median_tau <= s.q95_tau <= s.max_tau
    assert len(s.spec_hash) == 64
    assert s.wall_time > 0
    json.dumps(s.to_dict())  # summary must be JSON-ready


def test_trial_seeds_follow_base_plus_index():
    result = run_campaign(spec(trials=20, seed=500))
    assert [r.seed for r in result.results] == list(range(500, 520))


def test_timeout_campaign_reports_residual_unhappy():
    s = spec(
        k=3,
        strategy=Strategy.GREEDY,
        trials=10,
        allow_illegal_k=True,
        initial=(0, 0, 1),
        max_rounds=20,
    )
    result = run_campaign(s)
    assert result.summary.timeouts == 10
    assert result.summary.converged == 0
    assert result.summary.mean_tau is None
    assert result.summary.mean_final_unhappy_on_timeout == 2.0


def test_trials_csv_schema_and_determinism(tmp_path):
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    run_campaign(spec(trials=50, seed=4), out=str(out_a))
    run_campaign(spec(trials=50, seed=4), out=str(out_b))
    assert out_a.read_bytes() == out_b.read_bytes()
    with open(out_a) as fh:
        rows = list(csv.DictReader(fh))
    assert list(rows[0]) == ["trial", "seed", "tau", "timeout", "rounds_run"]
    assert len(rows) == 50
    for i, row in enumerate(rows):
        assert int(row["trial"]) == i
        assert int(row["seed"]) == 4 + i
        assert row["timeout"] == "false"
        assert int(row["tau"]) == int(row["rounds_run"])


def test_timeout_rows_have_empty_tau(tmp_path):
    out = tmp_path / "t.csv"
    s = spec(
        k=3, strategy=Strategy.GREEDY, trials=3, allow_illegal_k=True,
        initial=(0, 0, 1), max_rounds=5,
    )
    run_campaign(s, out=str(out))
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    assert all(row["tau"] == "" and row["timeout"] == "true" for row in rows)
    assert all(int(row["rounds_run"]) == 5 for row in rows)


def test_rounds_csv_matches_histories(tmp_path):
    out = tmp_path / "rounds.csv"
    result = run_campaign(spec(trials=10, seed=2, retention="full"), rounds_out=str(out))
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    total_rows = sum(len(r.history) for r in result.results)
    assert len(rows) == total_rows
    first = result.results[0]
    first_rows = [r for r in rows if r["trial"] == "0"]
    assert [int(r["round"]) for r in first_rows] == [rec.round for rec in first.history]
    assert [int(r["unhappy_count"]) for r in first_rows] == [
        3 - rec.happy_count for rec in first.history
    ]


def test_parallel_matches_sequential(tmp_path):
    seq_csv = tmp_path / "seq.csv"
    par_csv = tmp_path / "par.csv"
    seq = run_campaign(spec(trials=120, seed=9), out=str(seq_csv))
    par = run_campaign(spec(trials=120, seed=9), jobs=2, out=str(par_csv))
    assert seq.results == par.results
    assert seq_csv.read_bytes() == par_csv.read_bytes()
    a, b = seq.summary.to_dict(), par.summary.to_dict()
    a.pop("wall_time"), b.pop("wall_time")
    assert a == b


def test_trapped_campaign_csvs_match_across_jobs(tmp_path):
    # the greedy_trap benchmark configuration: forced orbits fast-forwarded in
    # every conflicted trial, histories pickled back from the workers
    trap = spec(k=3, strategy=Strategy.GREEDY, trials=10, seed=1, max_rounds=100_000,
                allow_illegal_k=True)
    files = {jobs: (tmp_path / f"trials{jobs}.csv", tmp_path / f"rounds{jobs}.csv")
             for jobs in (1, 2)}
    results = {jobs: run_campaign(trap, jobs=jobs, out=str(t), rounds_out=str(r))
               for jobs, (t, r) in files.items()}
    assert results[1].results == results[2].results
    assert sum(r.tau is None for r in results[1].results) == 8
    for a, b in zip(files[1], files[2]):
        assert a.read_bytes() == b.read_bytes()
    # the blocked writer gives one row per record, across many blocks
    rows = "".join(f"{i},{rec.round},{3 - rec.happy_count}\n"
                   for i, r in enumerate(results[1].results) for rec in r.history)
    assert files[1][1].read_text() == "trial,round,unhappy_count\n" + rows


def test_trapped_histories_stay_compact_across_jobs(tmp_path):
    # a million rounds per trapped trial: the workers send back only the
    # rounds played, and the rounds CSV expands the skipped orbit block by block
    trap = spec(k=3, strategy=Strategy.GREEDY, trials=4, seed=1, max_rounds=10**6,
                allow_illegal_k=True, retention="full")
    files = {jobs: (tmp_path / f"trials{jobs}.csv", tmp_path / f"rounds{jobs}.csv")
             for jobs in (1, 2)}
    results = {jobs: run_campaign(trap, jobs=jobs, out=str(t), rounds_out=str(r))
               for jobs, (t, r) in files.items()}
    assert results[1].results == results[2].results
    trapped = [r.history for r in results[2].results if r.tau is None]
    assert len(trapped) == 4 and all(len(h) == 10**6 for h in trapped)
    assert max(len(pickle.dumps(r.history)) for r in results[2].results) < 4096
    for a, b in zip(files[1], files[2]):
        assert filecmp.cmp(a, b, shallow=False)
    assert sum(1 for _ in open(files[2][1])) == 1 + sum(len(r.history) for r in results[2].results)


def test_converged_trial_with_an_improper_coloring_is_refused(monkeypatch, capsys):
    monkeypatch.setattr(campaign, "is_proper", lambda g, colors: False)
    with pytest.raises(ContractViolation, match="^trial 0 converged but its coloring is not proper$"):
        run_campaign(spec(trials=3))
    assert main(["run", "--family", "complete", "--n", "3", "--strategy", "frugal"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: trial 0 converged but its coloring is not proper\n"


def test_jobs_validation():
    with pytest.raises(ValueError, match="jobs"):
        run_campaign(spec(trials=5), jobs=0)
    with pytest.raises(ConfigError, match="jobs must be an integer, got 1.5"):
        run_campaign(spec(trials=5), jobs=1.5)


def test_quantile_95():
    assert quantile_95(list(range(1, 21))) == 19
    assert quantile_95([7]) == 7
    assert quantile_95([1, 100]) == 100


def test_sweep_empty_is_header_only():
    rows = sweep([], "complete", Strategy.FRUGAL, trials=5)
    assert rows == []
    table = format_sweep_csv(rows)
    assert table == ",".join(SWEEP_COLUMNS) + "\n"


def test_sweep_refuses_a_bad_size_before_any_campaign(monkeypatch):
    def ran(*args, **kwargs):
        raise AssertionError("a campaign ran")

    monkeypatch.setattr(campaign, "run_campaign", ran)
    with pytest.raises(ConfigError, match="n must be >= 1, got 0"):
        sweep([50, 0], "erdos_renyi", Strategy.FRUGAL, trials=2)
    # range(2.5) would raise TypeError while building the graph
    with pytest.raises(ConfigError, match="n must be an integer, got 2.5"):
        sweep([50, 2.5], "erdos_renyi", Strategy.FRUGAL, trials=2)
    # a size its family cannot build, and one whose palette is refused
    with pytest.raises(GraphFormatError, match="cycle needs n >= 3, got 2"):
        sweep([20, 2], "cycle", Strategy.FRUGAL, trials=2)
    with pytest.raises(IllegalPaletteError):
        sweep([3, 10], "star", Strategy.FRUGAL, k=3, trials=2)


def test_sweep_two_vertex_complete():
    rows = sweep([2], "complete", Strategy.FRUGAL, k_rule="delta+1", trials=50, base_seed=3)
    assert len(rows) == 1
    row = rows[0]
    assert row["n"] == 2 and row["k"] == 2
    assert row["timeouts"] == 0
    assert row["mean_tau"] >= 1.0
    assert row["e_t_bound"] == frugal_bounds(2).e_t_bound


def test_sweep_table_parses_and_orders():
    rows = sweep([3, 4], "cycle", Strategy.FRUGAL, k_rule="delta+1", trials=30, base_seed=1)
    table = format_sweep_csv(rows)
    lines = table.strip().split("\n")
    assert lines[0] == ",".join(SWEEP_COLUMNS)
    assert len(lines) == 3
    ns = [int(line.split(",")[0]) for line in lines[1:]]
    assert ns == [3, 4]


def test_sweep_erdos_renyi_policy_constant_degree():
    rows = sweep(
        [20, 40], "erdos_renyi", Strategy.FRUGAL,
        trials=20, base_seed=5, avg_degree=4.0, graph_seed=7,
    )
    assert [r["n"] for r in rows] == [20, 40]
    for r in rows:
        assert r["timeouts"] == 0
