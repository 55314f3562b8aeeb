import json

import pytest

from sagrs.cli import cli_main
from sagrs.harness import read_runs_csv

TINY = ["--pool-size", "8", "--reps", "2", "--ga-pop", "10",
        "--cycles", "3", "--suggestions", "2", "--seed", "5"]


def run_tiny(tmp_path, *extra):
    args = ["run", "--objective", "bohachevsky", "--system", "sagrs-lsm",
            "--out", str(tmp_path), *TINY, *extra]
    return cli_main(args)


def test_run_subcommand_writes_artifacts(tmp_path):
    assert run_tiny(tmp_path / "out") == 0
    out = tmp_path / "out"
    for fname in ("runs.csv", "cycles.csv", "summary.json", "metadata.json"):
        assert (out / fname).exists()
    assert len(read_runs_csv(out / "runs.csv")) == 2


def test_run_missing_objective_is_usage_error(capsys):
    with pytest.raises(SystemExit) as excinfo:
        cli_main(["run", "--system", "sagrs-lsm"])
    assert excinfo.value.code == 2


def test_unknown_system_is_usage_error():
    with pytest.raises(SystemExit) as excinfo:
        cli_main(["run", "--objective", "ackley", "--system", "hillclimber"])
    assert excinfo.value.code == 2


def test_unknown_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as excinfo:
        cli_main(["optimize"])
    assert excinfo.value.code == 2


def test_run_from_config_file(tmp_path):
    config = {
        "objective": "ackley",
        "system": "random-rbf",
        "pool_size": 8,
        "repetitions": 1,
        "cycles": [2],
        "suggestions": [2],
        "ga_population_size": 10,
        "base_seed": 3,
        "out_dir": str(tmp_path / "cfg_out"),
    }
    path = tmp_path / "experiment.json"
    path.write_text(json.dumps(config))
    assert cli_main(["run", "--config", str(path)]) == 0
    rows = read_runs_csv(tmp_path / "cfg_out" / "runs.csv")
    assert rows[0]["system"] == "random-rbf"
    assert rows[0]["rate"] == 0


def test_flags_override_config(tmp_path):
    path = tmp_path / "experiment.json"
    path.write_text(json.dumps({"objective": "ackley", "system": "sagrs-lsm"}))
    assert cli_main(["run", "--config", str(path), "--objective", "schwefel",
                     "--out", str(tmp_path / "o"), *TINY]) == 0
    rows = read_runs_csv(tmp_path / "o" / "runs.csv")
    assert rows[0]["objective"] == "schwefel"


def test_stats_subcommand_prints_summary_json(tmp_path, capsys):
    run_tiny(tmp_path / "out")
    capsys.readouterr()
    assert cli_main(["stats", str(tmp_path / "out" / "runs.csv")]) == 0
    printed = json.loads(capsys.readouterr().out)
    entry = printed[0]
    assert entry["system"] == "sagrs-lsm"
    stats = entry["metrics"]["best_fitness"]
    assert stats["min"] <= stats["median"] <= stats["max"]


def test_stats_missing_file(tmp_path):
    assert cli_main(["stats", str(tmp_path / "nope.csv")]) == 1


def test_compare_preset_row_count(tmp_path):
    assert cli_main(["compare", "--objective", "bohachevsky", "--seed", "7",
                     "--out", str(tmp_path / "cmp"), "--reps", "2",
                     "--cycles", "3", "--pool-size", "8", "--ga-pop", "10"]) == 0
    rows = read_runs_csv(tmp_path / "cmp" / "runs.csv")
    assert len(rows) == 5 * 2  # five systems x reps
    assert {r["system"] for r in rows} == {"sagrs-lsm", "sagrs-rbf", "ga",
                                           "random-lsm", "random-rbf"}


def test_sweep_rates_preset(tmp_path):
    assert cli_main(["sweep-rates", "--objective", "bohachevsky", "--reps", "1",
                     "--pool-size", "8", "--ga-pop", "10",
                     "--out", str(tmp_path / "sw")]) == 0
    rows = read_runs_csv(tmp_path / "sw" / "runs.csv")
    # 7 rates x 2 pool handling modes x 1 rep, at the preset 100-cycle runs
    assert len(rows) == 14


def test_failed_runs_exit_one(tmp_path):
    code = cli_main(["run", "--objective", "bohachevsky", "--system", "sagrs-lsm",
                     "--out", str(tmp_path / "f"), "--pool-size", "4", "--reps", "1",
                     "--cycles", "2", "--suggestions", "1", "--ga-pop", "10"])
    assert code == 1  # pool_size 4 < 2d+1 fails config validation per run


def test_compare_prints_summary_median(tmp_path, capsys):
    out = tmp_path / "cmp"
    # an even rep count, where the median averages the two middle values
    assert cli_main(["compare", "--objective", "ackley", "--seed", "7", "--out", str(out),
                     "--reps", "4", "--cycles", "3", "--pool-size", "8", "--ga-pop", "10"]) == 0
    printed = {}
    for line in capsys.readouterr().out.splitlines():
        if "median best fitness" in line:
            system, _, _, _, median = line.split()[:5]
            printed[system] = median
    summary = json.loads((out / "summary.json").read_text())
    assert printed == {e["system"]: f"{e['metrics']['best_fitness']['median']:.6g}" for e in summary}


@pytest.mark.parametrize("argv, message", [
    (["sweep-cycles", "--objective", "ackley", "--ga-pop", "0", "--out", "{out}"], "population_size"),
    (["run", "--objective", "ackley", "--system", "sagrs-lsm", "--dimension", "0",
      "--out", "{out}", *TINY], "dimension"),
    (["sweep-cycles", "--objective", "ackley", "--reps", "0", "--pool-size", "0",
      "--out", "{out}"], "repetitions"),
    (["compare", "--objective", "ackley", "--reps", "0", "--cycles", "3", "--pool-size", "8",
      "--ga-pop", "10", "--out", "{out}"], "repetitions"),
    (["stats", "{foreign_csv}"], "not a runs.csv"),
    (["compare", "--objective", "ackley", "--reps", "1", "--cycles", "0", "--pool-size", "8",
      "--ga-pop", "10", "--out", "{out}"], "cycles must be >= 1"),
    (["run", "--objective", "ackley", "--system", "sagrs-lsm", "--out", "{out}", *TINY,
      "--cycles", "0"], "cycles must be >= 1"),
    (["run", "--objective", "ackley", "--system", "sagrs-lsm", "--out", "{out}", *TINY,
      "--suggestions", "2", "0"], "suggestions must be >= 1"),
    (["run", "--objective", "ackley", "--system", "ga", "--pool-size", "-3", "--cycles", "2",
      "--suggestions", "4", "--reps", "1", "--ga-pop", "10", "--out", "{out}"], "pool_size must be >= 1"),
    (["compare", "--objective", "ackley", "--reps", "1", "--cycles", "3", "--pool-size", "0",
      "--ga-pop", "10", "--out", "{out}"], "pool_size must be >= 1"),
    (["run", "--objective", "ackley", "--system", "sagrs-lsm", "--window", "0", "--reps", "2",
      "--cycles", "2", "--pool-size", "10", "--out", "{out}"], "training_window must be >= 1"),
], ids=["ga-pop-0", "dimension-0", "sweep-reps-0", "compare-reps-0", "stats-foreign-csv",
        "compare-cycles-0", "run-cycles-0", "run-suggestions-0", "run-pool-size-negative",
        "compare-pool-size-0", "run-window-0"])
def test_bad_input_is_usage_error(tmp_path, capsys, argv, message):
    foreign_csv = tmp_path / "cycles.csv"
    foreign_csv.write_text("run_id,cycle\nx,1\n")
    argv = [a.format(out=tmp_path / "out", foreign_csv=foreign_csv) for a in argv]
    with pytest.raises(SystemExit) as excinfo:
        cli_main(argv)
    assert excinfo.value.code == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()  # rejected before any run started
