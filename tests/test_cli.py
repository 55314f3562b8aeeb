import argparse
import json
from pathlib import Path

import pytest

from sagrs import harness
from sagrs.cli import build_parser, cli_main
from sagrs.harness import RUN_CSV_COLUMNS, SYSTEMS, read_runs_csv

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


def test_help_describes_each_subcommand_once():
    parser = build_parser()
    (subcommands,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    names = [choice.dest for choice in subcommands._choices_actions]
    assert names == list(subcommands.choices)

    def listed(text, name):  # the lines of text that begin with name
        return sum(line.split()[:1] == [name] for line in text.splitlines())

    assert not any(listed(parser.description, name) for name in names)
    text = " ".join(parser.format_help().split())  # help wraps with the terminal width
    for choice in subcommands._choices_actions:
        assert listed(parser.format_help(), choice.dest) == 1
        assert text.count(" ".join(choice.help.split())) == 1


def test_unknown_system_is_usage_error():
    with pytest.raises(SystemExit) as excinfo:
        cli_main(["run", "--objective", "ackley", "--system", "hillclimber"])
    assert excinfo.value.code == 2


def test_unknown_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as excinfo:
        cli_main(["optimize"])
    assert excinfo.value.code == 2


# runs as it is; test_bad_input_is_usage_error changes one value at a time
VALID_CONFIG = {"objective": "ackley", "system": "sagrs-lsm", "pool_size": 8, "repetitions": 1,
                "cycles": [2], "suggestions": [2], "ga_population_size": 10}


def test_valid_config_runs(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({**VALID_CONFIG, "out_dir": str(tmp_path / "out")}))
    assert cli_main(["run", "--config", str(path)]) == 0


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
    # TINY's --ga-pop 10 overrides the config's invalid population size
    path.write_text(json.dumps({"objective": "ackley", "system": "sagrs-lsm", "ga_population_size": 1}))
    assert cli_main(["run", "--config", str(path), "--objective", "schwefel",
                     "--out", str(tmp_path / "o"), *TINY]) == 0
    rows = read_runs_csv(tmp_path / "o" / "runs.csv")
    assert rows[0]["objective"] == "schwefel"


def test_repeated_axis_flag_adds_to_its_axis(tmp_path):
    assert run_tiny(tmp_path / "o", "--rate", "1", "--rate", "2") == 0
    run_ids = [row["run_id"] for row in read_runs_csv(tmp_path / "o" / "runs.csv")]
    assert [run_id.split("_")[3] for run_id in run_ids] == ["r1", "r1", "r2", "r2"]  # sagrs-lsm_bohachevsky_d2_r1_...
    # a flag still replaces the config file's axis, not extends it
    path = tmp_path / "experiment.json"
    path.write_text(json.dumps({**VALID_CONFIG, "rates": [4]}))
    assert cli_main(["run", "--config", str(path), "--rate", "1", "--rate", "2", "--out", str(tmp_path / "c")]) == 0
    assert {row["rate"] for row in read_runs_csv(tmp_path / "c" / "runs.csv")} == {1, 2}


def test_stats_subcommand_prints_summary_json(tmp_path, capsys):
    run_tiny(tmp_path / "out")
    capsys.readouterr()
    assert cli_main(["stats", str(tmp_path / "out" / "runs.csv")]) == 0
    printed = json.loads(capsys.readouterr().out)
    entry = printed[0]
    assert entry["system"] == "sagrs-lsm"
    stats = entry["metrics"]["best_fitness"]
    assert stats["min"] <= stats["median"] <= stats["max"]


@pytest.mark.parametrize("argv", [
    # the ga rows leave convergence_cycle and acceptance_rate empty
    ["compare", "--objective", "schwefel", "--reps", "2", "--cycles", "2", "--pool-size", "8", "--ga-pop", "10"],
    ["run", "--objective", "ackley", "--system", "ga", "--rate", "1", "2", "--reps", "2", "--cycles", "2",
     "--pool-size", "8", "--ga-pop", "10"],
])
def test_stats_reproduces_summary_json(tmp_path, capsys, argv):
    assert cli_main([*argv, "--seed", "3", "--out", str(tmp_path / "out")]) == 0
    capsys.readouterr()
    assert cli_main(["stats", str(tmp_path / "out" / "runs.csv")]) == 0
    assert capsys.readouterr().out == (tmp_path / "out" / "summary.json").read_text()


def test_stats_missing_file(tmp_path, capsys):
    assert cli_main(["stats", str(tmp_path / "nope.csv")]) == 2
    assert capsys.readouterr().err == f"cannot read {tmp_path / 'nope.csv'}: No such file or directory\n"


def test_stats_unreadable_path_is_one_line_usage_error(tmp_path, capsys, monkeypatch):
    assert cli_main(["stats", str(tmp_path)]) == 2  # a directory
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and str(tmp_path) in err and "Traceback" not in err

    def unreadable(path):
        raise PermissionError(13, "Permission denied", str(path))

    monkeypatch.setattr("sagrs.cli.read_runs_csv", unreadable)
    (tmp_path / "runs.csv").write_text("")
    assert cli_main(["stats", str(tmp_path / "runs.csv")]) == 2
    assert capsys.readouterr().err == f"cannot read {tmp_path / 'runs.csv'}: Permission denied\n"


def test_compare_preset_row_count(tmp_path):
    assert cli_main(["compare", "--objective", "bohachevsky", "--seed", "7",
                     "--out", str(tmp_path / "cmp"), "--reps", "2",
                     "--cycles", "3", "--pool-size", "8", "--ga-pop", "10"]) == 0
    rows = read_runs_csv(tmp_path / "cmp" / "runs.csv")
    assert len(rows) == len(SYSTEMS) * 2  # systems x reps
    assert {r["system"] for r in rows} == set(SYSTEMS)


def test_sweep_rates_preset(tmp_path):
    assert cli_main(["sweep-rates", "--objective", "bohachevsky", "--reps", "1",
                     "--pool-size", "8", "--ga-pop", "10",
                     "--out", str(tmp_path / "sw")]) == 0
    rows = read_runs_csv(tmp_path / "sw" / "runs.csv")
    # 7 rates x 2 pool handling modes x 1 rep, at the preset 100-cycle runs
    assert len(rows) == 14


def test_failed_runs_exit_one(tmp_path, monkeypatch):
    def run_sagrs(obj, cfg, rng):
        raise RuntimeError("injected failure")

    monkeypatch.setattr(harness, "run_sagrs", run_sagrs)
    code = cli_main(["run", "--objective", "bohachevsky", "--system", "sagrs-lsm",
                     "--out", str(tmp_path / "f"), "--pool-size", "8", "--reps", "1",
                     "--cycles", "2", "--suggestions", "1", "--ga-pop", "10"])
    assert code == 1  # every run raised inside the batch


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
      "--suggestions", "0"], "rate 1, suggestions 0, cycles 3, pool_handling 'reset': "
                                  "suggestions_per_cycle must be >= 1"),
    (["run", "--objective", "ackley", "--system", "ga", "--pool-size", "-3", "--cycles", "2",
      "--suggestions", "4", "--reps", "1", "--ga-pop", "10", "--out", "{out}"], "pool_size must be >= 1"),
    (["compare", "--objective", "ackley", "--reps", "1", "--cycles", "3", "--pool-size", "0",
      "--ga-pop", "10", "--out", "{out}"], "pool_size must be >= 1"),
    (["run", "--objective", "ackley", "--system", "sagrs-lsm", "--window", "0", "--reps", "2",
      "--cycles", "2", "--pool-size", "10", "--out", "{out}"], "training_window must be >= 1"),
    # a config file skips argparse's types and choices; a dict stands for one
    (["run", "--config", {"dimension": 2.5}], "dimension must be an integer"),
    (["run", "--config", {"repetitions": 1.5}], "repetitions must be an integer"),
    (["run", "--config", {"base_seed": 0.5}], "base_seed must be an integer"),
    (["run", "--config", {"jobs": 1.5}], "jobs must be an integer"),
    (["run", "--config", {"pool_size": 10.5}], "pool_size must be an integer"),
    (["run", "--config", {"training_window": 2.5}], "training_window must be an integer"),
    (["run", "--config", {"rates": ["x"]}], "rate 'x', suggestions 2, cycles 2, pool_handling 'reset': "
                                            "evaluation_rate must be an integer, got 'x'"),
    (["run", "--config", {"suggestions": [2.5]}], "suggestions 2.5, cycles 2, pool_handling 'reset': "
                                                  "suggestions_per_cycle must be an integer, got 2.5"),
    (["run", "--config", {"cycles": [True]}], "cycles True, pool_handling 'reset': "
                                              "cycles must be an integer, got True"),
    (["run", "--config", {"cycles": [True, 1]}], "cycles True, pool_handling 'reset': "
                                                 "cycles must be an integer, got True"),
    (["run", "--config", {"objective": ["ackley"]}],
     "unknown objective ['ackley']; choose from ('ackley', 'bohachevsky', 'schwefel')"),
    (["run", "--config", {"pool_handling": ["sometimes"]}], "pool_handling 'sometimes': pool_handling "
                                                            "must be one of ('reset', 'no_reset')"),
    (["run", "--config", {"ga_population_size": 10.5}], "population_size must be an integer"),
    (["run", "--config", {"system": "ga", "ga_elitism": 0.5}], "elitism must be an integer"),
    (["run", "--config", {"ga": {"population_size": 10}}], "set it through the ga_* config keys"),
    (["run", "--config", {"ga": None}], "ga must be a GaConfig, got None"),
    (["run", "--config", {"ga_mutation_scale": float("nan")}], "mutation_scale must be a finite number"),
    # a runs.csv header over a row with too few cells, or too many
    (["stats", "{short_row_csv}"], "short.csv, line 2: the row's cell count differs"),
    (["stats", "{long_row_csv}"], "long.csv, line 3: the row's cell count differs"),
    # a cell that is not a number where runs.csv holds one
    (["stats", "{bad_int_csv}"], "bad-int.csv, line 2, column dimension: invalid literal for int()"),
    (["stats", "{bad_float_csv}"], "bad-float.csv, line 2, column best_fitness: could not convert"),
    # grid points no run can use: they used to start a batch of failed runs
    (["run", "--objective", "ackley", "--system", "sagrs-lsm", "--rate", "-1", "--out", "{out}", *TINY],
     "sagrs-lsm at rate -1, suggestions 2, cycles 3, pool_handling 'reset': evaluation_rate must be >= 0"),
    (["run", "--objective", "ackley", "--system", "sagrs-lsm", "--out", "{out}", *TINY, "--pool-size", "2"],
     "initial_pool_size must be >= 5 at dimension 2"),
    (["run", "--objective", "ackley", "--system", "ga", "--pool-size", "1", "--cycles", "1",
      "--suggestions", "1", "--reps", "1", "--out", "{out}"], "budget must be >= 4 to shape a GA run, got 2"),
    (["run", "--config", {"system": "ga", "ga_elitism": 5, "suggestions": [4]}],
     "ga at rate 1, suggestions 4, cycles 2, pool_handling 'reset': elitism must be in [0, population_size 4), "
     "got 5"),
    (["compare", "--objective", "ackley", "--reps", "1", "--cycles", "3", "--pool-size", "2",
      "--ga-pop", "10", "--out", "{out}"], "sagrs-lsm at rate 16, suggestions 8, cycles 3, pool_handling "
                                           "'reset': initial_pool_size must be >= 5 at dimension 2"),
    (["run", "--objective", "ackley", "--system", "ga", "--rate", "-3", "--out", "{out}", *TINY],
     "ga at rate -3, suggestions 2, cycles 3, pool_handling 'reset': evaluation_rate must be >= 0"),
    # the window would be ignored, and metadata.json would record it for runs it did not affect
    (["run", "--objective", "ackley", "--system", "ga", "--window", "40", "--out", "{out}", *TINY],
     "ga fits no surrogate, so training_window must be unset"),
    # a window the LSM cannot fit: every cycle would run on the mean fallback
    (["run", "--objective", "ackley", "--system", "sagrs-lsm", "--window", "3", "--cycles", "5", "--reps", "1",
      "--pool-size", "10", "--out", "{out}"],
     "training_window must be >= 5 at dimension 2 so both surrogates can fit, got 3"),
    # a repeated axis value would run the same runs twice, and count them twice in summary.json
    (["run", "--objective", "ackley", "--system", "sagrs-lsm", "--out", "{out}", *TINY, "--rate", "1", "1"],
     "sweep axis rates repeats 1"),
    (["run", "--objective", "ackley", "--system", "ga", "--out", "{out}", *TINY,
      "--pool-handling", "reset", "reset"], "sweep axis pool_handling repeats 'reset'"),
    (["run", "--objective", "ackley", "--system", "sagrs-lsm", "--out", "{out}", *TINY, "--rate", "1",
      "--rate", "1"], "sweep axis rates repeats 1"),
    # an axis is a list: a scalar is not iterable, and a string would split into letters
    (["run", "--config", {"cycles": 2}], "sweep axis cycles must be a list of values, got 2"),
    (["run", "--config", {"pool_handling": "no_reset"}],
     "sweep axis pool_handling must be a list of values, got 'no_reset'"),
    # a config file's error names the file, or the key
    (["run", "--config", "{bad_json_config}"],
     "bad.json: Expecting property name enclosed in double quotes: line 1 column 24 (char 23)"),
    (["run", "--config", "{array_config}"], "array.json must hold a JSON object"),
    (["run", "--config", {"out_dir": None}], "out_dir must be a path, got None"),
    (["compare", "--reps", "1", "--cycles", "2", "--pool-size", "8", "--out", "{out}"], "compare needs --objective"),
    (["sweep-rates", "--system", "sagrs-lsm", "--out", "{out}"], "sweep-rates needs --objective"),
    # elites past the mating pool would be refilled, not carried
    (["run", "--config", {"ga_population_size": 10, "ga_selection_factor": 0.1, "ga_elitism": 5}],
     "elitism must be <= the mating pool, ceil(selection_factor * population_size) = 1, got 5"),
], ids=["ga-pop-0", "dimension-0", "sweep-reps-0", "compare-reps-0", "stats-foreign-csv",
        "compare-cycles-0", "run-cycles-0", "run-suggestions-0", "run-pool-size-negative",
        "compare-pool-size-0", "run-window-0", "config-dimension-float", "config-reps-float",
        "config-seed-float", "config-jobs-float", "config-pool-size-float", "config-window-float",
        "config-rates-str", "config-suggestions-float", "config-cycles-bool", "config-cycles-bool-then-1",
        "config-objective-list",
        "config-pool-handling-unknown", "config-ga-pop-float", "config-ga-elitism-float",
        "config-ga-dict", "config-ga-null", "config-ga-mutation-scale-nan", "stats-short-row",
        "stats-long-row", "stats-bad-int", "stats-bad-float", "run-rate-negative", "run-pool-size-2",
        "run-ga-budget-2", "config-ga-elitism-over-shaped-pop", "compare-pool-size-2", "run-ga-rate-negative",
        "run-ga-window", "run-window-below-floor", "run-rate-repeated", "run-ga-pool-handling-repeated",
        "run-rate-repeated-flag", "config-cycles-scalar", "config-pool-handling-str", "config-invalid-json",
        "config-array", "config-out-dir-null", "compare-no-objective", "sweep-rates-no-objective",
        "config-ga-elitism-over-mating-pool"])
def test_bad_input_is_usage_error(tmp_path, capsys, argv, message):
    foreign_csv = tmp_path / "cycles.csv"
    foreign_csv.write_text("run_id,cycle\nx,1\n")
    header = ",".join(RUN_CSV_COLUMNS)
    short_row_csv, long_row_csv = tmp_path / "short.csv", tmp_path / "long.csv"
    short_row_csv.write_text(f"{header}\nx,ga,ackley,2,,4,3\n")
    long_row_csv.write_text(f"{header}\n{','.join('1' * len(RUN_CSV_COLUMNS))}\n{header},1\n")
    row = dict.fromkeys(RUN_CSV_COLUMNS, "")
    bad_int_csv, bad_float_csv = tmp_path / "bad-int.csv", tmp_path / "bad-float.csv"
    bad_int_csv.write_text(f"{header}\n{','.join({**row, 'dimension': 'abc'}.values())}\n")
    bad_float_csv.write_text(f"{header}\n{','.join({**row, 'best_fitness': 'zz'}.values())}\n")
    bad_json_config, array_config = tmp_path / "bad.json", tmp_path / "array.json"
    bad_json_config.write_text('{"objective": "ackley",}')
    array_config.write_text(json.dumps([VALID_CONFIG]))

    def fill(arg):
        if isinstance(arg, dict):  # a config file: VALID_CONFIG with these settings over it
            path = tmp_path / "config.json"
            path.write_text(json.dumps({**VALID_CONFIG, "out_dir": str(tmp_path / "out"), **arg}))
            return str(path)
        return arg.format(out=tmp_path / "out", foreign_csv=foreign_csv, short_row_csv=short_row_csv,
                          long_row_csv=long_row_csv, bad_int_csv=bad_int_csv, bad_float_csv=bad_float_csv,
                          bad_json_config=bad_json_config, array_config=array_config)

    argv = [fill(a) for a in argv]
    with pytest.raises(SystemExit) as excinfo:
        cli_main(argv)
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    assert err.startswith(f"usage: sagrs {argv[0]} ")  # the usage of the command that ran
    assert err.count("error:") == 1  # after argparse's usage text, one message line
    assert not (tmp_path / "out").exists()  # rejected before any run started


@pytest.mark.parametrize("command, under", [("run", True), ("run", False), ("compare", True), ("compare", False)])
def test_unusable_out_is_usage_error(tmp_path, capsys, command, under):
    # --out through a regular file, or onto one: no directory can be made there
    blocker = tmp_path / "file"
    blocker.write_text("kept")
    out = blocker / "x" if under else blocker
    argv = [command, "--objective", "ackley", "--reps", "1", "--cycles", "2", "--pool-size", "8",
            "--ga-pop", "10", "--out", str(out)]
    with pytest.raises(SystemExit) as excinfo:
        cli_main(argv + (["--system", "sagrs-lsm"] if command == "run" else []))
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"usage: sagrs {command} ") and "Traceback" not in err
    assert err.count("error:") == 1 and f"cannot create output directory {out}" in err
    assert blocker.read_text() == "kept"


def test_unwritable_out_is_usage_error(tmp_path, capsys, monkeypatch):
    out = tmp_path / "out"
    real_access = harness.os.access
    # os.access reads True for root even on a read-only directory, so deny it here
    monkeypatch.setattr(harness.os, "access",
                        lambda path, mode, **kw: False if Path(path) == out else real_access(path, mode, **kw))
    with pytest.raises(SystemExit) as excinfo:
        run_tiny(out)
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: sagrs run ") and "Traceback" not in err
    assert err.count("error:") == 1 and f"output directory {out} is not writable" in err
    assert list(out.iterdir()) == []
