import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import netcolor
from netcolor import (
    ConfigError, read_edge_list, complete_graph, cycle_graph, verification, write_edge_list,
)
from netcolor.cli import EXIT_BROKEN_PIPE, UsageError, _build_parser, load_config, main

# `python -m netcolor.cli` on the package under test, installed or not
CLI = [sys.executable, "-m", "netcolor.cli"]
CLI_ENV = {
    **os.environ,
    "PYTHONPATH": os.pathsep.join(
        p for p in (str(Path(netcolor.__file__).parents[1]), os.environ.get("PYTHONPATH")) if p
    ),
}


def run_cli(*argv):
    return main(list(argv))


def test_gen_to_file_roundtrips(tmp_path):
    out = tmp_path / "c5.edges"
    assert run_cli("gen", "--family", "cycle", "--n", "5", "--out", str(out)) == 0
    assert read_edge_list(str(out)) == cycle_graph(5)


def test_gen_to_stdout(capsys):
    assert run_cli("gen", "--family", "complete", "--n", "3") == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "3 3"
    assert lines[1:] == ["0 1", "0 2", "1 2"]


def test_gen_erdos_renyi_needs_p_and_seed():
    assert run_cli("gen", "--family", "erdos_renyi", "--n", "10") == 2
    assert run_cli("gen", "--family", "erdos_renyi", "--n", "10", "--p", "0.3") == 2
    assert run_cli("gen", "--family", "erdos_renyi", "--n", "10", "--p", "0.3",
                   "--graph-seed", "1") == 0


def test_run_erdos_renyi_graph_seed_defaults_to_seed(capsys):
    def spec_hash(*graph_seed):
        assert run_cli("run", "--family", "erdos_renyi", "--n", "30", "--p", "0.2",
                       "--strategy", "frugal", "--trials", "2", "--seed", "7", *graph_seed) == 0
        return json.loads(capsys.readouterr().out)["spec_hash"]

    assert spec_hash() == spec_hash("--graph-seed", "7") != spec_hash("--graph-seed", "8")


def test_run_with_family(tmp_path, capsys):
    out = tmp_path / "trials.csv"
    rc = run_cli(
        "run", "--family", "complete", "--n", "3", "--strategy", "frugal",
        "--trials", "50", "--seed", "5", "--out", str(out),
    )
    assert rc == 0
    captured = capsys.readouterr()
    payload = json.loads(captured.out)
    assert payload["n"] == 3 and payload["k"] == 3
    assert payload["strategy"] == "frugal"
    assert payload["trials"] == 50 and payload["timeouts"] == 0
    assert "mean_tau=" in captured.err
    header = out.read_text().split("\n", 1)[0]
    assert header == "trial,seed,tau,timeout,rounds_run"


def test_run_with_graph_file(tmp_path, capsys):
    path = tmp_path / "triangle.edges"
    write_edge_list(complete_graph(3), str(path))
    rc = run_cli("run", "--graph", str(path), "--strategy", "greedy",
                 "--k-rule", "delta+2", "--trials", "20")
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["k"] == 4 and payload["timeouts"] == 0


def test_run_allows_illegal_k_timeouts(capsys):
    rc = run_cli(
        "run", "--family", "complete", "--n", "3", "--strategy", "greedy",
        "--k", "3", "--allow-illegal-k", "--trials", "20", "--seed", "0",
        "--max-rounds", "50",
    )
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["timeouts"] == 18 and payload["converged"] == 2
    assert payload["mean_final_unhappy_on_timeout"] == 2.0


@pytest.mark.parametrize(
    "argv",
    [
        ("run", "--family", "complete", "--n", "3"),  # no strategy
        ("run", "--family", "complete", "--n", "3", "--strategy", "frugal",
         "--graph", "x.edges"),  # two graph sources
        ("run", "--family", "complete", "--n", "3", "--strategy", "frugal",
         "--k", "3", "--k-rule", "delta+1"),  # conflicting palette choices
        ("run", "--family", "complete", "--strategy", "frugal"),  # family without n
        ("run", "--strategy", "frugal"),  # no graph at all
        ("run", "--family", "complete", "--n", "3", "--strategy", "frugal",
         "--k", "2"),  # illegal palette without the override
        ("run", "--graph", "/nonexistent/g.edges", "--strategy", "frugal"),
        ("run", "--family", "complete", "--n", "zebra", "--strategy", "frugal"),
        ("sweep", "--strategy", "frugal"),  # sweep without --n
        ("sweep", "--n", "4,oops", "--strategy", "frugal", "--family", "cycle"),
        ("bounds", "--n", "0"),
        ("run", "--family", "cycle", "--n", "40", "--strategy", "frugal",
         "--seed", "-3"),  # seeds -s and s would give the same stream
        ("sweep", "--family", "cycle", "--n", "4", "--strategy", "frugal", "--seed", "-1"),
        # a negative graph seed would give the graph of |seed|
        ("gen", "--family", "erdos_renyi", "--n", "30", "--p", "0.2", "--graph-seed", "-7"),
        ("run", "--family", "erdos_renyi", "--n", "30", "--p", "0.2", "--graph-seed", "-7",
         "--strategy", "frugal"),
        ("sweep", "--family", "erdos_renyi", "--n", "30", "--p", "0.2", "--graph-seed", "-7",
         "--strategy", "frugal"),
    ],
)
def test_usage_errors_exit_2(argv, capsys):
    assert run_cli(*argv) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_bad_choice_is_argparse_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli("run", "--family", "complete", "--n", "3", "--strategy", "sneaky")
    assert exc.value.code == 2


def test_config_file_supplies_options(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        "# triangle smoke campaign\n"
        "family = complete\n"
        "n = 3\n"
        "strategy = frugal\n"
        "trials = 7\n"
        "seed = 3\n"
    )
    rc = run_cli("run", "--config", str(cfg), "--trials", "9")
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["trials"] == 9  # flag beats config
    assert payload["n"] == 3


# what main hands load_config for a bare `run`
RUN_OPTIONS = vars(_build_parser().parse_args(["run"]))


def test_config_file_errors():
    with pytest.raises(UsageError, match="not found"):
        load_config("/nonexistent/exp.cfg", RUN_OPTIONS)
    assert run_cli("run", "--config", "/nonexistent/exp.cfg") == 2


def test_config_rejects_unknown_and_malformed(tmp_path, capsys):
    bad_key = tmp_path / "a.cfg"
    bad_key.write_text("velocity = 9\n")
    with pytest.raises(UsageError, match=re.escape(f"{bad_key}:1: unknown option 'velocity'")):
        load_config(str(bad_key), RUN_OPTIONS)
    bad_line = tmp_path / "b.cfg"
    bad_line.write_text("# header\njust some words\n")
    with pytest.raises(UsageError, match=re.escape(f"{bad_line}:2: expected 'key = value'")):
        load_config(str(bad_line), RUN_OPTIONS)
    nested = tmp_path / "n.cfg"
    nested.write_text("config = other.cfg\n")
    with pytest.raises(UsageError, match="unknown option 'config'"):
        load_config(str(nested), RUN_OPTIONS)
    assert run_cli("run", "--config", str(bad_key)) == 2
    assert f"{bad_key}:1" in capsys.readouterr().err
    # values are checked by argparse, exactly like flags, before any graph is built
    bad_val = tmp_path / "c.cfg"
    for line in ("trials = many", "retention = bogus"):
        bad_val.write_text(f"family = complete\nn = 3\nstrategy = frugal\n{line}\n")
        with pytest.raises(SystemExit) as exc:
            run_cli("run", "--config", str(bad_val))
        assert exc.value.code == 2


def test_config_bool_coercion(tmp_path):
    cfg = tmp_path / "d.cfg"
    cfg.write_text("allow-illegal-k = yes\n")
    assert load_config(str(cfg), RUN_OPTIONS) == ["--allow-illegal-k"]
    cfg.write_text("allow_illegal_k = no\n")
    assert load_config(str(cfg), RUN_OPTIONS) == []
    cfg.write_text("allow_illegal_k = on\nallow_illegal_k = off\n")  # the last line wins
    assert load_config(str(cfg), RUN_OPTIONS) == []
    cfg.write_text("allow_illegal_k = maybe\n")
    with pytest.raises(UsageError, match="boolean"):
        load_config(str(cfg), RUN_OPTIONS)


def test_config_allows_illegal_k_end_to_end(tmp_path, capsys):
    cfg = tmp_path / "trap.cfg"
    cfg.write_text(
        "family = complete\nn = 3\nstrategy = greedy\nk = 3\n"
        "allow_illegal_k = true\nmax_rounds = 50\ntrials = 20\n"
    )
    assert run_cli("run", "--config", str(cfg)) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["k"] == 3 and payload["timeouts"] == 18


def test_sweep_config_with_flag_override(tmp_path):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("family = cycle\nn = 3,4\nstrategy = frugal\ntrials = 7\n")
    out = tmp_path / "sweep.csv"
    assert run_cli("sweep", "--config", str(cfg), "--trials", "11", "--out", str(out)) == 0
    rows = [line.split(",") for line in out.read_text().strip().split("\n")[1:]]
    assert [row[0] for row in rows] == ["3", "4"]
    assert [row[4] for row in rows] == ["11", "11"]  # the trials column


def test_readme_config_example_loads(tmp_path, capsys):
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("### Config files", 1)[1]
    example = section.split("```\n", 2)[1]
    cfg = tmp_path / "readme.cfg"
    cfg.write_text(example)
    assert run_cli("run", "--config", str(cfg), "--trials", "5") == 0
    assert json.loads(capsys.readouterr().out)["trials"] == 5


def test_verify_fast(tmp_path, capsys):
    report_path = tmp_path / "report.json"
    rc = run_cli("verify", "--level", "fast", "--out", str(report_path))
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["passed"] is True
    assert payload["level"] == "fast"
    assert len(payload["checks"]) == 4
    assert json.loads(report_path.read_text()) == payload


def test_verify_refuses_a_negative_seed_before_any_check(tmp_path, monkeypatch, capsys):
    def ran(*args, **kwargs):
        raise AssertionError("a check ran")

    for name in ("check_available_size_floor", "check_two_round_floor",
                 "check_engine_agreement", "check_envelope_dominance"):
        monkeypatch.setattr(verification, name, ran)
    report_path = tmp_path / "report.json"
    assert run_cli("verify", "--seed", "-3", "--out", str(report_path)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: seed must be >= 0, got -3\n"
    assert not report_path.exists()


def test_bounds_payload(capsys):
    assert run_cli("bounds", "--n", "1000") == 0
    payload = json.loads(capsys.readouterr().out)
    assert set(payload) == {
        "n", "mu", "e_t_bound", "var_t_bound", "a_n", "max_expectation_bound"
    }
    assert payload["n"] == 1000
    assert f"{payload['mu']:.3g}" == "0.000105"
    assert payload["e_t_bound"] == pytest.approx(2 * payload["max_expectation_bound"])


def test_bounds_with_failure_prob(capsys):
    assert run_cli("bounds", "--n", "1000", "--failure-prob", "0.01") == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["failure_prob"] == 0.01
    assert payload["greedy_bound"] > 0


def test_sweep_empty_n_prints_header(capsys):
    assert run_cli("sweep", "--n", "", "--strategy", "frugal", "--family", "cycle") == 0
    out = capsys.readouterr().out
    assert out == ("n,delta,k,strategy,trials,converged,timeouts,"
                   "mean_tau,median_tau,q95_tau,max_tau,e_t_bound\n")


def test_sweep_writes_table(tmp_path):
    out = tmp_path / "sweep.csv"
    rc = run_cli(
        "sweep", "--family", "cycle", "--n", "3,4", "--strategy", "frugal",
        "--k-rule", "delta+1", "--trials", "20", "--out", str(out),
    )
    assert rc == 0
    lines = out.read_text().strip().split("\n")
    assert len(lines) == 3
    assert [line.split(",")[0] for line in lines[1:]] == ["3", "4"]


def test_module_is_runnable_as_script():
    proc = subprocess.run(
        CLI + ["bounds", "--n", "10"], capture_output=True, text=True, env=CLI_ENV
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["n"] == 10


def test_package_is_runnable_with_python_m():
    proc = subprocess.run(
        [sys.executable, "-m", "netcolor", "verify", "--level", "full"],
        capture_output=True, text=True, env=CLI_ENV,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["passed"] is True
    assert [c["details"].get("checked") for c in report["checks"][:2]] == [612, 612]


def test_import_leaves_scipy_sparse_unloaded():
    # the exact chain solve and the chi-square threshold import scipy
    # themselves; an eager import would add its load time to every command
    code = (
        "import sys, netcolor, netcolor.cli, netcolor.verification; "
        "print('scipy.sparse' in sys.modules, sorted(m for m in sys.modules "
        "if m.split('.')[0] == 'scipy'))"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=CLI_ENV)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False []"


def test_trapped_campaign_memory_does_not_grow_with_max_rounds():
    # 35 of 40 greedy trials at k = 3 on a triangle are trapped for the
    # default 10**6 rounds: 8 B per skipped round would come to 280 MB
    code = (
        "import resource, sys\n"
        "from netcolor.cli import main\n"
        "status = main(sys.argv[1:])\n"
        "kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
        "print(kb // 1024 if sys.platform == 'darwin' else kb, file=sys.stderr)\n"
        "sys.exit(status)\n"
    )
    # Linux keeps ru_maxrss across exec, so a child of this large test
    # process would report the tester's peak: a small interpreter starts it
    launch = "import subprocess, sys; sys.exit(subprocess.call([sys.executable, *sys.argv[1:]]))"
    argv = ["run", "--family", "complete", "--n", "3", "--strategy", "greedy", "--k", "3",
            "--allow-illegal-k", "--seed", "1", "--trials", "40"]
    proc = subprocess.run([sys.executable, "-c", launch, "-c", code, *argv],
                          capture_output=True, text=True, env=CLI_ENV)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["timeouts"] == 35
    peak_kb = int(proc.stderr.splitlines()[-1])
    assert peak_kb < 80 * 1024


@pytest.mark.parametrize(
    "argv",
    [
        ("run", "--family", "complete", "--n", "3", "--strategy", "frugal", "--jobs", "0"),
        ("run", "--family", "complete", "--n", "3", "--strategy", "frugal", "--trials", "0"),
        ("run", "--family", "complete", "--n", "3", "--strategy", "frugal", "--k", "0"),
        ("run", "--family", "complete", "--n", "3", "--strategy", "frugal", "--k", "3",
         "--k-rule", "delta+1"),
        ("bounds", "--n", "0"),
        ("bounds", "--n", "5", "--failure-prob", "1.5"),
        # min(1.0, inf / n) and min(1.0, nan) would both play complete graphs
        ("sweep", "--family", "erdos_renyi", "--n", "50", "--avg-degree", "inf",
         "--strategy", "frugal", "--k-rule", "delta+1", "--trials", "2"),
        ("sweep", "--family", "erdos_renyi", "--n", "50", "--avg-degree", "nan",
         "--strategy", "frugal", "--k-rule", "delta+1", "--trials", "2"),
        ("sweep", "--family", "erdos_renyi", "--n", "50", "--avg-degree", "-3",
         "--strategy", "frugal", "--k-rule", "delta+1", "--trials", "2"),
        # avg_degree / n divided by zero, and n = 50 played before the bad size
        ("sweep", "--family", "erdos_renyi", "--n", "0",
         "--strategy", "frugal", "--k-rule", "delta+1", "--trials", "2"),
        ("sweep", "--family", "erdos_renyi", "--n", "50,0",
         "--strategy", "frugal", "--k-rule", "delta+1", "--trials", "2"),
        # a trapped trial's History would have a length past sys.maxsize
        ("run", "--family", "complete", "--n", "3", "--strategy", "greedy", "--k", "3",
         "--allow-illegal-k", "--max-rounds", "100000000000000000000", "--trials", "2",
         "--seed", "1"),
        # a var_t_bound of Infinity is not JSON, and 4.0 * 10**400 overflows
        ("bounds", "--n", str(10**300)),
        ("bounds", "--n", str(10**400)),
    ],
)
def test_config_errors_exit_2(argv, capsys):
    assert run_cli(*argv) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_runtime_value_error_exits_1(monkeypatch, capsys):
    # a ValueError that is not a ConfigError is a fault of the run, not of its inputs
    def boom(*args, **kwargs):
        raise ValueError("boom")

    monkeypatch.setattr(netcolor.cli, "run_campaign", boom)
    rc = run_cli("run", "--family", "complete", "--n", "3", "--strategy", "frugal")
    assert rc == 1
    assert capsys.readouterr().err == "error: boom\n"


def test_config_error_is_a_value_error():
    assert issubclass(ConfigError, ValueError) and issubclass(ConfigError, netcolor.NetcolorError)
    with pytest.raises(ConfigError, match="jobs"):
        netcolor.run_campaign(
            netcolor.ExperimentSpec(complete_graph(3), 3, netcolor.Strategy.FRUGAL, 1, 0), jobs=0
        )


@pytest.mark.skipif(not os.path.exists("/dev/stdout"), reason="no /dev/stdout")
def test_reader_closing_the_pipe_early_is_quiet():
    # two trapped greedy trials write ~600 kB of rounds CSV, far beyond a pipe buffer
    proc = subprocess.Popen(
        CLI + ["run", "--family", "complete", "--n", "3", "--strategy", "greedy", "--k", "3",
               "--allow-illegal-k", "--trials", "2", "--seed", "0", "--max-rounds", "30000",
               "--rounds-out", "/dev/stdout"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=CLI_ENV,
    )
    assert proc.stdout.readline() == b"trial,round,unhappy_count\n"
    proc.stdout.close()
    with proc.stderr:
        err = proc.stderr.read()
    assert proc.wait(timeout=60) == EXIT_BROKEN_PIPE
    assert err == b""


@pytest.mark.skipif(shutil.which("netcolor") is None, reason="console script not on PATH")
def test_console_script_usage_error_code():
    proc = subprocess.run(
        ["netcolor", "run", "--strategy", "frugal"], capture_output=True, text=True
    )
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:")
