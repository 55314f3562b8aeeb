import csv
import json

import numpy as np
import pytest

from sagrs.harness import (
    CYCLE_CSV_COLUMNS,
    GRID_KEY_COLUMNS,
    RUN_CSV_COLUMNS,
    ComparisonResult,
    ExperimentSpec,
    aggregate_rows,
    derive_seed,
    read_runs_csv,
    run_compare,
    run_experiment,
    summarize,
)
from sagrs.surrogate import EXCLUSION_EPSILON


def tiny_spec(out_dir, **overrides):
    from sagrs.evolution import GaConfig

    defaults = dict(
        objective="bohachevsky",
        system="sagrs-lsm",
        rates=(1,),
        suggestions=(2,),
        cycles=(3,),
        pool_size=8,
        repetitions=2,
        base_seed=0,
        out_dir=out_dir,
        ga=GaConfig(population_size=10),
    )
    defaults.update(overrides)
    return ExperimentSpec(**defaults)


# ------------------------------------------------------------ summarize


def test_summarize_hand_ranked_quartiles():
    stats = summarize([1, 2, 3, 4, 5])
    assert stats.q1 == 2.0
    assert stats.median == 3.0
    assert stats.q3 == 4.0
    assert stats.min == 1.0 and stats.max == 5.0 and stats.mean == 3.0


def test_summarize_single_value():
    stats = summarize([7.5])
    assert (stats.min, stats.q1, stats.median, stats.q3, stats.max, stats.mean) == (7.5,) * 6


def test_summarize_constant_list():
    stats = summarize([2.0, 2.0, 2.0, 2.0])
    assert stats.min == stats.max == stats.mean == 2.0


def test_summarize_empty_rejected():
    with pytest.raises(ValueError):
        summarize([])


def test_summarize_ordering_invariant():
    rng = np.random.default_rng(12)
    for _ in range(50):
        stats = summarize(rng.normal(size=int(rng.integers(1, 40))))
        assert stats.min <= stats.q1 <= stats.median <= stats.q3 <= stats.max


# ------------------------------------------------------------ seeding


def test_seed_derivation_is_stable_and_sensitive():
    a = derive_seed(0, "sagrs-lsm", "ackley", 2, 1, 4, 100, "reset", 100, 0)
    b = derive_seed(0, "sagrs-lsm", "ackley", 2, 1, 4, 100, "reset", 100, 0)
    assert a == b
    assert a != derive_seed(0, "sagrs-lsm", "ackley", 2, 1, 4, 100, "reset", 100, 1)
    assert a != derive_seed(1, "sagrs-lsm", "ackley", 2, 1, 4, 100, "reset", 100, 0)
    assert 0 <= a < 2**63


# ------------------------------------------------------------ experiments


def test_single_grid_point_row_counts(tmp_path):
    spec = tiny_spec(tmp_path / "exp", repetitions=1)
    result = run_experiment(spec)
    assert result.ok
    assert len(result.run_rows) == 1
    assert len(result.cycle_rows) == spec.cycles[0]
    with open(tmp_path / "exp" / "runs.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == list(RUN_CSV_COLUMNS)
    assert len(rows) == 2
    with open(tmp_path / "exp" / "cycles.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == list(CYCLE_CSV_COLUMNS)
    assert len(rows) == 1 + spec.cycles[0]


def test_grid_times_repetitions_row_count(tmp_path):
    spec = tiny_spec(tmp_path / "exp", rates=(0, 1), suggestions=(1, 2), repetitions=10)
    result = run_experiment(spec)
    assert len(result.run_rows) == 2 * 2 * 10
    assert result.ok


def test_rerun_is_byte_identical(tmp_path):
    for name in ("a", "b"):
        run_experiment(tiny_spec(tmp_path / name))
    for fname in ("runs.csv", "cycles.csv", "summary.json", "metadata.json"):
        assert (tmp_path / "a" / fname).read_bytes() == (tmp_path / "b" / fname).read_bytes()


def test_round_trip_median_through_csv(tmp_path):
    spec = tiny_spec(tmp_path / "exp", repetitions=5)
    result = run_experiment(spec)
    rows = read_runs_csv(tmp_path / "exp" / "runs.csv")
    medians = {s["system"]: s["metrics"]["best_fitness"]["median"] for s in aggregate_rows(rows)}
    in_memory = summarize([r["best_fitness"] for r in result.run_rows]).median
    assert medians["sagrs-lsm"] == in_memory
    # and the summary.json on disk agrees
    disk = json.loads((tmp_path / "exp" / "summary.json").read_text())
    assert disk[0]["metrics"]["best_fitness"]["median"] == in_memory


def test_aggregate_rows_skips_failed_runs():
    point = dict.fromkeys(GRID_KEY_COLUMNS, "x")
    finished = {**point, "best_fitness": 2.0, "convergence_cycle": 3, "acceptance_rate": 0.5,
                "true_evals": 14}
    failed = {**point, "best_fitness": None, "convergence_cycle": None, "acceptance_rate": None,
              "true_evals": None}
    only_failed = {**failed, "system": "y"}
    [entry] = aggregate_rows([failed, finished, only_failed])
    assert entry["system"] == "x"
    assert entry["runs"] == 1
    assert entry["metrics"]["best_fitness"]["median"] == 2.0


def test_seed_independence(tmp_path):
    base = run_experiment(tiny_spec(tmp_path / "s0", repetitions=3))
    other = run_experiment(tiny_spec(tmp_path / "s1", repetitions=3, base_seed=99))
    fits0 = [r["best_fitness"] for r in base.run_rows]
    fits1 = [r["best_fitness"] for r in other.run_rows]
    assert fits0 != fits1
    assert len(set(fits0)) == len(fits0)  # repetitions differ from each other


def test_all_systems_run(tmp_path):
    for system in ("sagrs-rbf", "random-lsm", "random-rbf", "ga"):
        result = run_experiment(tiny_spec(tmp_path / system, system=system, repetitions=1))
        assert result.ok, result.failures
        row = result.run_rows[0]
        assert row["best_fitness"] is not None
        if system == "ga":
            assert row["rate"] is None and row["pool_handling"] is None
            assert not result.cycle_rows  # no recommendation cycles
            assert row["true_evals"] <= 8 + 3 * 2
        else:
            assert row["true_evals"] == 8 + 3 * 2
        if system.startswith("random-"):
            assert row["rate"] == 0 and row["pool_handling"] == "reset"


def test_failed_run_recorded_batch_continues(tmp_path):
    spec = tiny_spec(tmp_path / "exp", rates=(1, -1), repetitions=1)
    result = run_experiment(spec)
    assert len(result.failures) == 1
    assert not result.ok
    assert len(result.run_rows) == 2
    good = [r for r in result.run_rows if r["best_fitness"] is not None]
    assert len(good) == 1
    # the failed row is present in the CSV with empty metric cells
    rows = read_runs_csv(tmp_path / "exp" / "runs.csv")
    assert sum(1 for r in rows if r["best_fitness"] is None) == 1


def test_parallel_jobs_match_serial_bytes(tmp_path):
    run_experiment(tiny_spec(tmp_path / "serial", repetitions=4, jobs=1))
    run_experiment(tiny_spec(tmp_path / "parallel", repetitions=4, jobs=2))
    for fname in ("runs.csv", "cycles.csv", "summary.json"):
        assert (tmp_path / "serial" / fname).read_bytes() == (tmp_path / "parallel" / fname).read_bytes()


def test_compare_rerun_in_parallel_matches_bytes(tmp_path):
    from sagrs.evolution import GaConfig

    for name, jobs in (("serial", 1), ("parallel", 2)):
        run_compare("ackley", repetitions=2, cycles=3, pool_size=8, base_seed=4,
                    ga=GaConfig(population_size=10), out_dir=tmp_path / name, jobs=jobs)
    for fname in ("runs.csv", "cycles.csv", "summary.json", "metadata.json"):
        assert (tmp_path / "serial" / fname).read_bytes() == (tmp_path / "parallel" / fname).read_bytes()


def test_spec_validation():
    with pytest.raises(ValueError):
        ExperimentSpec(objective="nope", system="sagrs-lsm")
    with pytest.raises(ValueError):
        ExperimentSpec(objective="ackley", system="simulated-annealing")
    with pytest.raises(ValueError):
        ExperimentSpec(objective="ackley", system="ga", repetitions=0)
    with pytest.raises(ValueError):
        ExperimentSpec(objective="ackley", system="ga", rates=())


def test_run_compare_unknown_objective_is_value_error(tmp_path):
    with pytest.raises(ValueError, match="unknown objective"):
        run_compare("sphere", out_dir=tmp_path / "cmp")
    assert not (tmp_path / "cmp").exists()


def test_median_best_fitness_skips_failed_runs():
    rows = [{"best_fitness": None}, {"best_fitness": 1.0}, {"best_fitness": 2.0}]
    comparison = ComparisonResult(rows_by_system={"ga": rows}, ga_budget=0, result=None)
    assert comparison.median_best_fitness("ga") == 1.5


def test_metadata_records_library_versions(tmp_path):
    import scipy

    run_experiment(tiny_spec(tmp_path / "exp", repetitions=1))
    versions = json.loads((tmp_path / "exp" / "metadata.json").read_text())["versions"]
    assert versions["numpy"] == np.__version__
    assert versions["scipy"] == scipy.__version__
    assert set(versions["blas"]) == {"numpy", "scipy"}


def test_metadata_records_exclusion_epsilon(tmp_path):
    from sagrs.evolution import GaConfig

    run_experiment(tiny_spec(tmp_path / "exp", repetitions=1))
    run_compare("ackley", repetitions=1, cycles=2, pool_size=8, ga=GaConfig(population_size=10),
                out_dir=tmp_path / "cmp")
    for name in ("exp", "cmp"):
        metadata = json.loads((tmp_path / name / "metadata.json").read_text())
        assert metadata["exclusion_epsilon"] == EXCLUSION_EPSILON


def test_env_var_sets_default_output_directory(tmp_path, monkeypatch):
    monkeypatch.setenv("SAGRS_OUT_DIR", str(tmp_path / "from_env"))
    spec = ExperimentSpec(objective="ackley", system="ga", repetitions=1,
                          cycles=(2,), suggestions=(2,), pool_size=8)
    assert spec.out_dir == tmp_path / "from_env"


def test_csv_floats_round_trip_exactly(tmp_path):
    result = run_experiment(tiny_spec(tmp_path / "exp"))
    rows = read_runs_csv(tmp_path / "exp" / "runs.csv")
    for disk, memory in zip(rows, result.run_rows):
        assert disk["best_fitness"] == memory["best_fitness"]
        assert disk["acceptance_rate"] == memory["acceptance_rate"]
