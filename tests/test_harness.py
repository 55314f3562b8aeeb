import csv
import json
import multiprocessing
import os
import time
from concurrent.futures import Future, ProcessPoolExecutor
from dataclasses import FrozenInstanceError, asdict

import numpy as np
import pytest

from sagrs import harness
from sagrs.evolution import GaConfig
from sagrs.harness import (
    CYCLE_CSV_COLUMNS,
    GRID_KEY_COLUMNS,
    RUN_CSV_COLUMNS,
    SYSTEMS,
    ComparisonResult,
    ExperimentSpec,
    aggregate_rows,
    derive_seed,
    read_runs_csv,
    run_compare,
    run_experiment,
    summarize,
)
from sagrs.recommender import SagrsConfig
from sagrs.surrogate import EXCLUSION_EPSILON


def tiny_spec(out_dir, **overrides):
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


def test_run_ids_and_seeds_are_pinned():
    # fixed values: reordering the coordinates would change every run's id
    # or seed, and with them every output byte
    spec = ExperimentSpec(objective="ackley", system="sagrs-rbf", rates=(4,), suggestions=(8,),
                          cycles=(100,), pool_handling=("no_reset",), pool_size=100, repetitions=3,
                          base_seed=11)
    job = harness._build_jobs(spec)[2]
    assert job["run_id"] == "sagrs-rbf_ackley_d2_r4_s8_c100_no_reset_p100_rep02"
    assert job["seed"] == 3308980551235040432
    assert {c: job[c] for c in GRID_KEY_COLUMNS} == {
        "system": "sagrs-rbf", "objective": "ackley", "dimension": 2, "rate": 4, "suggestions": 8,
        "cycles": 100, "pool_handling": "no_reset", "pool_size": 100,
    }


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


def test_failed_run_recorded_batch_continues(tmp_path, monkeypatch):
    original = harness.run_sagrs

    def run_sagrs(obj, cfg, rng):  # every run at rate 2 raises inside the batch
        if cfg.evaluation_rate == 2:
            raise RuntimeError("injected failure")
        return original(obj, cfg, rng)

    monkeypatch.setattr(harness, "run_sagrs", run_sagrs)
    spec = tiny_spec(tmp_path / "exp", rates=(1, 2), repetitions=1, jobs=1)  # in-process, where the patch holds
    result = run_experiment(spec)
    assert len(result.failures) == 1
    assert not result.ok
    assert len(result.run_rows) == 2
    good = [r for r in result.run_rows if r["best_fitness"] is not None]
    assert len(good) == 1
    # the failed row is present in the CSV with empty metric cells
    rows = read_runs_csv(tmp_path / "exp" / "runs.csv")
    assert sum(1 for r in rows if r["best_fitness"] is None) == 1
    assert rows == result.run_rows


@pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                    reason="the patched run_sagrs reaches forked workers only")
def test_killed_worker_keeps_finished_runs(tmp_path, monkeypatch):
    serial = run_experiment(tiny_spec(tmp_path / "serial", repetitions=2, jobs=1))
    original = harness.run_sagrs

    def run_sagrs(obj, cfg, rng):  # a run at rate 2 kills its worker once the rate-1 runs are done
        if cfg.evaluation_rate == 2:
            time.sleep(1.0)
            os._exit(9)
        return original(obj, cfg, rng)

    monkeypatch.setattr(harness, "run_sagrs", run_sagrs)
    result = run_experiment(tiny_spec(tmp_path / "exp", rates=(1, 2), repetitions=2, jobs=2))
    assert [row for row in result.run_rows if row["best_fitness"] is not None] == serial.run_rows
    dead = [row["run_id"] for row in result.run_rows if row["rate"] == 2]
    assert [run_id for run_id, _ in result.failures] == dead and len(dead) == 2
    assert all(message.startswith("BrokenProcessPool: ") for _, message in result.failures)
    assert read_runs_csv(tmp_path / "exp" / "runs.csv") == result.run_rows  # the artifacts were written


def test_jobs_carry_their_config_and_row_cells(tmp_path):
    configs = {}
    shown = {"ga": (None, None), "random-lsm": (0, "reset"), "random-rbf": (0, "reset")}
    for system in SYSTEMS:
        [job] = harness._build_jobs(tiny_spec(tmp_path, system=system, rates=(3,), repetitions=1))
        configs[system] = job["config"]
        assert (job["rate"], job["pool_handling"]) == shown.get(system, (3, "reset"))
        # run_id and seed come from the given coordinates
        assert job["run_id"] == f"{system}_bohachevsky_d2_r3_s2_c3_reset_p8_rep00"
        assert job["seed"] == derive_seed(0, system, "bohachevsky", 2, 3, 2, 3, "reset", 8, 0)
    assert configs["sagrs-rbf"] == SagrsConfig(model_kind="rbf", evaluation_rate=3, suggestions_per_cycle=2,
                                               cycles=3, initial_pool_size=8, ga=GaConfig(population_size=10))
    assert configs["ga"].budget == 8 + 3 * 2


def test_each_spec_builds_its_jobs_once(tmp_path, monkeypatch):
    built = []
    original = harness._build_jobs

    def build_jobs(spec):
        built.append(spec.system)
        return original(spec)

    monkeypatch.setattr(harness, "_build_jobs", build_jobs)
    run_compare("ackley", repetitions=1, cycles=2, pool_size=8, ga=GaConfig(population_size=10),
                out_dir=tmp_path / "cmp", jobs=1)
    assert built == list(SYSTEMS)  # one build per spec, when the spec is made
    built.clear()
    spec = tiny_spec(tmp_path / "exp", repetitions=1, jobs=1)
    run_experiment(spec)
    assert built == ["sagrs-lsm"]
    with pytest.raises(FrozenInstanceError):  # so the jobs built from a spec stay its jobs
        spec.rates = (2,)


@pytest.mark.parametrize("system, cells", [("ga", (None, None)), ("random-lsm", (0, "reset"))])
def test_failed_row_shows_the_cells_a_finished_one_does(tmp_path, monkeypatch, system, cells):
    def fail(*args, **kwargs):
        raise RuntimeError("injected failure")

    monkeypatch.setattr(harness, "run_ga_baseline", fail)
    monkeypatch.setattr(harness, "run_random_recommender", fail)
    result = run_experiment(tiny_spec(tmp_path / "exp", system=system, repetitions=1))
    [row] = result.run_rows
    assert result.failures and row["best_fitness"] is None
    assert (row["rate"], row["pool_handling"]) == cells


def test_parallel_jobs_match_serial_bytes(tmp_path):
    run_experiment(tiny_spec(tmp_path / "serial", repetitions=4, jobs=1))
    run_experiment(tiny_spec(tmp_path / "parallel", repetitions=4, jobs=2))
    for fname in ("runs.csv", "cycles.csv", "summary.json"):
        assert (tmp_path / "serial" / fname).read_bytes() == (tmp_path / "parallel" / fname).read_bytes()


def test_compare_rerun_in_parallel_matches_bytes(tmp_path):
    for name, jobs in (("serial", 1), ("parallel", 2)):
        run_compare("ackley", repetitions=2, cycles=3, pool_size=8, base_seed=4,
                    ga=GaConfig(population_size=10), out_dir=tmp_path / name, jobs=jobs)
    for fname in ("runs.csv", "cycles.csv", "summary.json", "metadata.json"):
        assert (tmp_path / "serial" / fname).read_bytes() == (tmp_path / "parallel" / fname).read_bytes()


def test_compare_runs_csv_round_trips(tmp_path):
    comparison = run_compare("ackley", repetitions=1, cycles=2, pool_size=8, base_seed=3,
                             ga=GaConfig(population_size=10), out_dir=tmp_path / "cmp")
    rows = comparison.result.run_rows
    assert [row["system"] for row in rows] == list(SYSTEMS)
    [ga_row] = comparison.rows_by_system["ga"]
    assert [ga_row[c] for c in ("rate", "pool_handling", "convergence_cycle", "acceptance_rate")] == [None] * 4
    header = (tmp_path / "cmp" / "runs.csv").read_text().splitlines()[0]
    assert header == ("run_id,system,objective,dimension,rate,suggestions,cycles,pool_handling,"
                      "pool_size,seed,best_fitness,convergence_cycle,acceptance_rate,true_evals")
    assert read_runs_csv(tmp_path / "cmp" / "runs.csv") == rows


def test_spec_validation():
    with pytest.raises(ValueError):
        ExperimentSpec(objective="nope", system="sagrs-lsm")
    with pytest.raises(ValueError):
        ExperimentSpec(objective="ackley", system="simulated-annealing")
    with pytest.raises(ValueError):
        ExperimentSpec(objective="ackley", system="ga", repetitions=0)
    with pytest.raises(ValueError):
        ExperimentSpec(objective="ackley", system="ga", rates=())
    # what a config file can hold but argparse's types and choices would reject
    for bad, message in (
        ({"repetitions": True}, "repetitions must be an integer"),
        ({"base_seed": 0.5}, "base_seed must be an integer"),
        ({"training_window": 2.5}, "training_window must be an integer"),
        ({"rates": (1, 1.5)}, "ga at rate 1.5, suggestions 4, cycles 100, pool_handling 'reset': "
                              "evaluation_rate must be an integer, got 1.5"),
        ({"pool_handling": ("reset", "sometimes")}, "ga at rate 1, suggestions 4, cycles 100, "
                                                    "pool_handling 'sometimes': pool_handling must be one of"),
    ):
        with pytest.raises(ValueError, match=message):
            ExperimentSpec(objective="ackley", system="ga", **bad)


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


def test_pool_worker_initializer_pins_one_blas_thread():
    controls = harness._openblas_thread_controls()
    if "scipy" not in controls:
        pytest.skip("scipy's OpenBLAS exposes no thread-count functions here")
    get_threads, set_threads = controls["scipy"]
    found = get_threads()
    set_threads(2)  # a forked worker starts from the parent's count
    try:
        with ProcessPoolExecutor(max_workers=1, initializer=harness._one_blas_thread) as pool:
            assert pool.submit(harness._openblas_threads).result() == 1
    finally:
        set_threads(found)


def fake_blas(monkeypatch, **counts):
    """Swap the OpenBLAS thread controls for fakes at the given counts; returns the counts and the sets."""
    sets = []

    def control(name):
        def set_threads(n):
            sets.append((name, n))
            counts[name] = n
        return (lambda: counts[name]), set_threads

    monkeypatch.setattr(harness, "_openblas_thread_controls", lambda: {name: control(name) for name in counts})
    return counts, sets


def test_one_blas_thread_sets_only_libraries_not_at_one(monkeypatch):
    counts, sets = fake_blas(monkeypatch, scipy=2, numpy=1)
    [(set_threads, found)] = harness._one_blas_thread()
    assert sets == [("scipy", 1)] and found == 2
    set_threads(found)  # the setter returned is the one of the library it set
    assert counts == {"scipy": 2, "numpy": 1}


def test_pool_never_starts_more_workers_than_runs(tmp_path, monkeypatch):
    # runs the jobs in this process: a real pool would fork every worker it is asked for
    started = []
    counts, _ = fake_blas(monkeypatch, scipy=2, numpy=1)

    class InlinePool:
        def __init__(self, max_workers, initializer):
            started.append((max_workers, counts["scipy"]))  # the count a forked worker inherits

        def __enter__(self):
            return self

        def __exit__(self, *exc_info):
            return False

        def submit(self, fn, *args):
            future = Future()
            future.set_result(fn(*args))
            return future

    monkeypatch.setattr(harness, "ProcessPoolExecutor", InlinePool)
    result = run_experiment(tiny_spec(tmp_path / "exp", repetitions=3, jobs=500))
    assert result.ok and len(result.run_rows) == 3
    assert started == [(3, 1)]
    assert counts == {"scipy": 2, "numpy": 1}  # restored after the batch
    run_experiment(tiny_spec(tmp_path / "one", repetitions=1, jobs=500))
    assert started == [(3, 1)]  # a single run goes in-process
    versions = json.loads((tmp_path / "exp" / "metadata.json").read_text())["versions"]
    assert versions["scipy_openblas_threads"] == 1


@pytest.mark.parametrize("jobs", [1, 2])
def test_batch_runs_and_records_one_blas_thread(tmp_path, monkeypatch, jobs):
    initializers = []

    class RecordingPool(ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            initializers.append(kwargs.get("initializer"))
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(harness, "ProcessPoolExecutor", RecordingPool)
    found = harness._openblas_threads()
    run_experiment(tiny_spec(tmp_path / "exp", jobs=jobs))
    assert initializers == ([harness._one_blas_thread] if jobs > 1 else [])
    versions = json.loads((tmp_path / "exp" / "metadata.json").read_text())["versions"]
    assert versions["scipy_openblas_threads"] == (1 if "scipy" in harness._openblas_thread_controls() else "unknown")
    assert harness._openblas_threads() == found  # the serial path restores the count it found


def test_metadata_records_exclusion_epsilon(tmp_path):
    run_experiment(tiny_spec(tmp_path / "exp", repetitions=1))
    run_compare("ackley", repetitions=1, cycles=2, pool_size=8, ga=GaConfig(population_size=10),
                out_dir=tmp_path / "cmp")
    metadata = {name: json.loads((tmp_path / name / "metadata.json").read_text()) for name in ("exp", "cmp")}
    for entry in metadata.values():
        assert entry["exclusion_epsilon"] == EXCLUSION_EPSILON
        assert "spec" not in entry and "comparison" not in entry
    # each spec's settings, without out_dir and jobs, which do not change the numbers
    assert metadata["exp"]["specs"] == [{
        "objective": "bohachevsky", "system": "sagrs-lsm", "dimension": 2, "rates": [1], "suggestions": [2],
        "cycles": [3], "pool_handling": ["reset"], "pool_size": 8, "repetitions": 1, "base_seed": 0,
        "ga": asdict(GaConfig(population_size=10)), "training_window": None,
    }]
    specs = metadata["cmp"]["specs"]
    assert [spec["system"] for spec in specs] == list(SYSTEMS)
    assert {(spec["objective"], spec["cycles"][0], spec["pool_size"], spec["repetitions"]) for spec in specs} == {
        ("ackley", 2, 8, 1)}
    ran_with = {spec["system"]: (spec["rates"], spec["suggestions"], spec["pool_handling"]) for spec in specs}
    assert ran_with == {  # ackley's presets; the random recommenders run rate 0 with resets
        "sagrs-lsm": ([16], [8], ["reset"]), "sagrs-rbf": ([1], [8], ["no_reset"]), "ga": ([0], [8], ["reset"]),
        "random-lsm": ([0], [8], ["reset"]), "random-rbf": ([0], [8], ["reset"]),
    }


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
