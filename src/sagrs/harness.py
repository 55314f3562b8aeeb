"""Experiment orchestration: sweeps, repetitions, seeding, CSV/JSON output.

Every run is a pure function of its parameters and a derived seed, so
re-running a spec reproduces the output files byte for byte. Results land
in an output directory as

    runs.csv       one summary row per run
    cycles.csv     one row per recommendation cycle per run
    summary.json   box-plot statistics per grid point and metric
    metadata.json  the settings of each spec that ran, and every default that affects the numbers
"""

from __future__ import annotations

import csv
import ctypes
import hashlib
import itertools
import json
import os
from collections.abc import Callable
from concurrent.futures.process import BrokenProcessPool, ProcessPoolExecutor
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np
import scipy
import scipy.linalg

from . import __version__, objectives
from .baselines import run_ga_baseline, run_random_recommender, shape_ga
from .evolution import GA_RNG_LAYOUT, GaConfig, check_counts
from .linalg import PANEL, SINGULARITY_TOL
from .objectives import make_objective
from .recommender import SagrsConfig, run_sagrs
from .surrogate import EXCLUSION_EPSILON, RBF_RIDGE_FACTOR


@dataclass(frozen=True)
class _System:
    run: Callable  # (objective, checked SagrsConfig, rng) -> RunResult
    model_kind: str | None  # the surrogate it fits; None fits none
    cells: dict  # row cells shown in place of the coordinates it does not use

    def compare_settings(self, presets: dict) -> dict:
        """Its rate, suggestions and pool_handling in run_compare, from an objective's presets by model kind."""
        if self.model_kind is None:  # the largest recommender budget; the rate and pool handling are inert
            return {"rate": 0, "suggestions": max(p["suggestions"] for p in presets.values()),
                    "pool_handling": "reset"}
        return presets[self.model_kind] | self.cells


_RANDOM = {"rate": 0, "pool_handling": "reset"}  # the random recommender: no GA, a reset population

# The runners are named inside lambdas, so a job resolves them in this module
# when it runs: perfbench wraps them here, and tests patch them.
_SYSTEMS = {
    "sagrs-lsm": _System(lambda *args: run_sagrs(*args), "lsm", {}),
    "sagrs-rbf": _System(lambda *args: run_sagrs(*args), "rbf", {}),
    "ga": _System(lambda obj, cfg, rng: run_ga_baseline(obj, cfg.budget, cfg.ga, rng=rng), None,
                  {"rate": None, "pool_handling": None}),
    "random-lsm": _System(lambda *args: run_random_recommender(*args), "lsm", _RANDOM),
    "random-rbf": _System(lambda *args: run_random_recommender(*args), "rbf", _RANDOM),
}
SYSTEMS = tuple(_SYSTEMS)

# A run's coordinates, in the order that names the run and derives its seed.
GRID_KEY_COLUMNS = (
    "system", "objective", "dimension", "rate", "suggestions", "cycles",
    "pool_handling", "pool_size",
)

SUMMARY_METRICS = ("best_fitness", "convergence_cycle", "acceptance_rate", "true_evals")

RUN_CSV_COLUMNS = ("run_id", *GRID_KEY_COLUMNS, "seed", *SUMMARY_METRICS)
CYCLE_CSV_COLUMNS = (
    "run_id", "cycle", "best_fitness_so_far", "accepted_count", "suggested_count",
    "surrogate_fit_ok",
)

OUT_DIR_ENV = "SAGRS_OUT_DIR"


def default_out_dir() -> Path:
    return Path(os.environ.get(OUT_DIR_ENV, "results"))


def default_jobs() -> int:
    """The cores this process may run on, the default worker count of a batch."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # macOS and Windows have no sched_getaffinity
        return os.cpu_count() or 1


def summarize(values) -> dict[str, float]:
    """Box-plot statistics of one metric over repetitions, as summary.json holds them.

    Quartiles by linear interpolation between closest ranks, plus mean.
    """
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        raise ValueError("cannot summarize an empty list")
    q1, median, q3 = np.percentile(arr, [25.0, 50.0, 75.0])
    return {"min": float(arr.min()), "q1": float(q1), "median": float(median),
            "q3": float(q3), "max": float(arr.max()), "mean": float(arr.mean())}


def derive_seed(base_seed: int, *parts) -> int:
    """Stable per-run seed: base_seed XOR a hash of the run coordinates."""
    key = "|".join(str(p) for p in parts)
    digest = hashlib.sha256(key.encode("utf-8")).digest()
    return (base_seed ^ int.from_bytes(digest[:8], "big")) & (2**63 - 1)


@dataclass(frozen=True)
class ExperimentSpec:
    objective: str
    system: str
    dimension: int = 2
    rates: tuple[int, ...] = (SagrsConfig.evaluation_rate,)
    suggestions: tuple[int, ...] = (SagrsConfig.suggestions_per_cycle,)
    cycles: tuple[int, ...] = (SagrsConfig.cycles,)
    pool_handling: tuple[str, ...] = (SagrsConfig.pool_handling,)
    pool_size: int = SagrsConfig.initial_pool_size
    repetitions: int = 10
    base_seed: int = 0
    out_dir: Path = field(default_factory=default_out_dir)
    ga: GaConfig = field(default_factory=GaConfig)
    training_window: int | None = SagrsConfig.training_window
    jobs: int = field(default_factory=default_jobs)

    def __post_init__(self):
        for axis_name in ("rates", "suggestions", "cycles", "pool_handling"):
            values = getattr(self, axis_name)
            if not isinstance(values, (list, tuple)):  # a config file's scalar or string
                raise ValueError(f"sweep axis {axis_name} must be a list of values, got {values!r}")
            if not values:
                raise ValueError(f"sweep axis {axis_name} must be nonempty")
            for i, value in enumerate(values):  # a repeat would run the same runs twice
                # True and 1.0 equal 1 but are no repeat of it: the config check rejects them by name
                if any(value == v and type(value) is type(v) for v in values[:i]):
                    raise ValueError(f"sweep axis {axis_name} repeats {value!r}")
            object.__setattr__(self, axis_name, tuple(values))
        if not isinstance(self.out_dir, (str, os.PathLike)):
            raise ValueError(f"out_dir must be a path, got {self.out_dir!r}")
        object.__setattr__(self, "out_dir", Path(self.out_dir))
        # A config file bypasses argparse's types and choices, so check them here.
        check_counts(self, dimension=None, repetitions=1, pool_size=1, base_seed=None, jobs=1)
        if not isinstance(self.ga, GaConfig):
            raise ValueError(f"ga must be a GaConfig, got {self.ga!r}; set it through the ga_* config keys")
        if self.system not in SYSTEMS:
            raise ValueError(f"unknown system {self.system!r}; choose from {SYSTEMS}")
        # checks each grid point's SagrsConfig; the spec is frozen, so its jobs cannot go stale,
        # and they are not a field, so asdict and metadata.json leave them out
        object.__setattr__(self, "_jobs", _build_jobs(self))
        if _SYSTEMS[self.system].model_kind is None and self.training_window is not None:
            raise ValueError(f"{self.system} fits no surrogate, so training_window must be unset")


@dataclass
class ExperimentResult:
    run_rows: list[dict]
    cycle_rows: list[dict]
    failures: list[tuple[str, str]]  # (run_id, error message)
    out_dir: Path

    @property
    def ok(self) -> bool:
        return not self.failures


def _build_jobs(spec: ExperimentSpec) -> list[dict]:
    """One job per run with its grid point's checked SagrsConfig; ValueError names a point no run can use."""
    # Called through the module: the harness's own make_objective is the
    # name runs resolve, and perfbench swaps it for one that logs a run.
    obj = objectives.make_objective(spec.objective, spec.dimension)
    system = _SYSTEMS[spec.system]
    jobs = []
    grid = itertools.product(spec.rates, spec.suggestions, spec.cycles, spec.pool_handling)
    for rate, sugg, cyc, handling in grid:
        try:
            # a system without a surrogate takes the config's budget and GA only
            cfg = SagrsConfig(model_kind=system.model_kind or "lsm", evaluation_rate=rate,
                              suggestions_per_cycle=sugg, cycles=cyc, pool_handling=handling,
                              initial_pool_size=spec.pool_size, ga=spec.ga, training_window=spec.training_window)
            if system.model_kind is None:  # run_ga_baseline's own shaping checks the budget and the elitism
                shape_ga(cfg.budget, cfg.ga)
            else:
                cfg.validate_for(obj)
        except ValueError as exc:
            raise ValueError(f"{spec.system} at rate {rate!r}, suggestions {sugg!r}, cycles {cyc!r}, "
                             f"pool_handling {handling!r}: {exc}") from None
        point = (spec.system, spec.objective, spec.dimension, rate, sugg, cyc, handling, spec.pool_size)
        for rep in range(spec.repetitions):
            jobs.append({
                "run_id": "{}_{}_d{}_r{}_s{}_c{}_{}_p{}_rep{:02d}".format(*point, rep),
                **dict(zip(GRID_KEY_COLUMNS, point)),
                **system.cells,
                "seed": derive_seed(spec.base_seed, *point, rep),
                "config": cfg,
            })
    return jobs


def _run_row(job: dict, metrics=()) -> dict:
    """The job's runs.csv row: its run coordinates, and metric cells that stay empty unless given."""
    return {column: job.get(column) for column in RUN_CSV_COLUMNS} | dict(zip(SUMMARY_METRICS, metrics))


def _execute_job(job: dict) -> tuple[dict, list[dict], str | None]:
    """Run one job's config; returns (summary row, cycle rows, error message or None)."""
    try:
        obj = make_objective(job["objective"], job["dimension"])
        # the config was checked when the job was built
        result = _SYSTEMS[job["system"]].run(obj, job["config"], np.random.default_rng(job["seed"]))
        metrics = (result.best_fitness, result.convergence_cycle, result.acceptance_rate,
                   result.true_evaluations_used)
        cycle_rows = [dict(zip(CYCLE_CSV_COLUMNS, (job["run_id"], r.cycle_index, r.best_true_fitness_so_far,
                                                   r.accepted_count, len(r.suggested), r.surrogate_fit_ok)))
                      for r in result.cycle_records]
    except Exception as exc:  # failed runs are recorded, the batch continues
        return _run_row(job), [], f"{type(exc).__name__}: {exc}"
    return _run_row(job, metrics), cycle_rows, None


# The OpenBLAS bundled with each library, found through an extension module whose
# dependencies include it, and its symbol suffix: numpy's 64-bit-integer build adds 64_.
_OPENBLAS = {"scipy": (scipy.linalg._flapack, ""), "numpy": (np.linalg._umath_linalg, "64_")}


def _openblas(name: str, restype, argtypes=()) -> dict:
    """``scipy_openblas_<name>`` of each bundled OpenBLAS that exports it, by library ("scipy", "numpy")."""
    functions = {}
    for library, (module, suffix) in _OPENBLAS.items():
        try:
            function = ctypes.CDLL(module.__file__)[f"scipy_openblas_{name}{suffix}"]
        except (AttributeError, OSError):
            continue
        function.argtypes, function.restype = list(argtypes), restype
        functions[library] = function
    return functions


def _openblas_cores() -> dict[str, str]:
    """The kernel each bundled OpenBLAS picked for this CPU or OPENBLAS_CORETYPE; "unknown" where it cannot say."""
    corenames = _openblas("get_corename", ctypes.c_char_p)
    return {library: corenames[library]().decode() if library in corenames else "unknown" for library in _OPENBLAS}


def _one_blas_thread() -> list[tuple]:
    """Set each bundled OpenBLAS not at one thread to one; returns (set, count found) pairs of those.

    A library without both thread-count functions is left as it is. Also the pool's
    initializer, which pins a spawn or forkserver worker. A forked worker inherits
    the batch's pin and sets nothing: setting a count restarts the threads, which spin.
    """
    setters = _openblas("set_num_threads", None, [ctypes.c_int])
    found = []
    for library, get_threads in _openblas("get_num_threads", ctypes.c_int).items():
        count = get_threads()
        if library in setters and count != 1:
            setters[library](1)
            found.append((setters[library], count))
    return found


def _run_jobs(jobs: list[dict], n_workers: int):
    """Run the jobs with one BLAS thread; returns the outcomes and scipy's OpenBLAS count, read inside the pin."""
    n_workers = min(n_workers, len(jobs))  # a fork start forks every worker at the first submit
    found = _one_blas_thread()  # before the pool forks its workers
    try:
        threads = _openblas("get_num_threads", ctypes.c_int)
        blas_threads = threads["scipy"]() if "scipy" in threads else "unknown"
        if n_workers > 1:
            outcomes = []
            with ProcessPoolExecutor(max_workers=n_workers, initializer=_one_blas_thread) as pool:
                futures = [pool.submit(_execute_job, job) for job in jobs]
                for job, future in zip(jobs, futures):
                    try:
                        outcomes.append(future.result())
                    except BrokenProcessPool as exc:  # a worker died: this run had not finished
                        outcomes.append((_run_row(job), [], f"{type(exc).__name__}: {exc}"))
            return outcomes, blas_threads
        return [_execute_job(job) for job in jobs], blas_threads
    finally:
        for set_threads, count in found:
            set_threads(count)


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def _write_csv(path: Path, columns, rows: list[dict]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_format_cell(row[c]) for c in columns])


def aggregate_rows(run_rows: list[dict]) -> list[dict]:
    """Box-plot statistics per grid point over its finished runs, one entry per metric present."""
    groups: dict[tuple, list[dict]] = {}
    for row in run_rows:
        if row["best_fitness"] is None:
            continue
        key = tuple(row[c] for c in GRID_KEY_COLUMNS)
        groups.setdefault(key, []).append(row)
    summaries = []
    for key in sorted(groups, key=lambda k: tuple(str(v) for v in k)):
        entry = dict(zip(GRID_KEY_COLUMNS, key))
        metrics = {}
        for metric in SUMMARY_METRICS:
            values = [row[metric] for row in groups[key] if row[metric] is not None]
            if values:
                metrics[metric] = summarize(values)
        entry["metrics"] = metrics
        entry["runs"] = len(groups[key])
        summaries.append(entry)
    return summaries


def _blas(library) -> str:
    """Name and version of the BLAS a numpy or scipy build links."""
    try:
        info = library.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy < 1.25 and scipy < 1.11 only print it
        return "unknown"
    return f"{info.get('name')} {info.get('version')}"


def _metadata(specs: list[dict], blas_threads: int | str) -> dict:
    """Everything the numbers depend on that is not in the row schema.

    specs holds the settings of each spec that ran, and blas_threads the
    OpenBLAS thread count the runs used.
    """
    return {
        "package_version": __version__,
        # factorization and matrix-product bits depend on the LAPACK/BLAS
        # build, the kernel it picked and its thread count
        "versions": {
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "blas": {"numpy": _blas(np), "scipy": _blas(scipy)},
            "openblas_core": _openblas_cores(),
            "scipy_openblas_threads": blas_threads,
        },
        "quartile_method": "linear interpolation between closest ranks",
        "seed_derivation": "base_seed XOR first 8 bytes of sha256 over the run coordinates",
        "csv_float_format": "%.17g",
        "rbf_sigma_method": "mean pairwise Euclidean distance over the training pool",
        "rbf_activation": "1 - exp(-r^2 / (2 sigma^2))",
        "rbf_ridge_factor": RBF_RIDGE_FACTOR,
        "lsm_form": "second-order polynomial without cross terms, normal-equation solve",
        "linear_solves": "Bunch-Kaufman symmetric-indefinite LDL^T (LAPACK dsytrf/dsytrs) for the LSM "
                         "normal equations and the plain and ridged RBF systems",
        "singularity_tol": SINGULARITY_TOL,
        "bunch_kaufman_panel": PANEL,
        "ga_operators": {
            "selection": "truncation; mating pool = ceil(selection_factor * population)",
            "recombination": "per-coordinate arithmetic blend with uniform weights",
            "clone": "better of two uniformly drawn parents when not recombining",
            "mutation": "per-individual Gaussian, std = mutation_scale * domain width",
        },
        "ga_rng_layout": GA_RNG_LAYOUT,
        "ga_budget_accounting": "capped at the ga spec's pool_size + cycles * suggestions; lazy scoring; "
                                "cached individuals (elites, clones) are never re-evaluated",
        "systems": {name: {"model_kind": row.model_kind, "cells": row.cells} for name, row in _SYSTEMS.items()},
        "objective_domains": {name: [lo, hi] for name, (_, lo, hi, _) in objectives._REGISTRY.items()},
        "exclusion_epsilon": EXCLUSION_EPSILON,
        "specs": specs,
    }


def _run_specs(specs: list[ExperimentSpec]) -> ExperimentResult:
    """Run the jobs of every spec, in order, as one batch, and persist the artifact set.

    The specs share their out_dir and jobs. metadata.json lists each spec's
    settings. A failed run keeps its row, with empty metric cells, and is
    listed in the result's failures; the batch goes on.
    """
    out_dir = specs[0].out_dir
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # a path through a regular file, or onto one
        raise ValueError(f"cannot create output directory {out_dir}: {exc.strerror or exc}") from exc
    if not os.access(out_dir, os.W_OK):
        raise ValueError(f"output directory {out_dir} is not writable")
    outcomes, blas_threads = _run_jobs([job for spec in specs for job in spec._jobs], specs[0].jobs)
    settings = [{k: v for k, v in asdict(spec).items() if k not in ("out_dir", "jobs")} for spec in specs]
    run_rows = [row for row, _, _ in outcomes]
    cycle_rows = [cr for _, rows, _ in outcomes for cr in rows]
    _write_csv(out_dir / "runs.csv", RUN_CSV_COLUMNS, run_rows)
    _write_csv(out_dir / "cycles.csv", CYCLE_CSV_COLUMNS, cycle_rows)
    for name, payload in (("summary.json", aggregate_rows(run_rows)),
                          ("metadata.json", _metadata(settings, blas_threads))):
        with open(out_dir / name, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return ExperimentResult(run_rows=run_rows, cycle_rows=cycle_rows, out_dir=out_dir,
                            failures=[(row["run_id"], err) for row, _, err in outcomes if err is not None])


def run_experiment(spec: ExperimentSpec) -> ExperimentResult:
    """Run the whole sweep grid x repetitions and persist the artifact set."""
    return _run_specs([spec])


# Per-objective settings for run_compare's systems. Rates and pool
# handling follow the qualitative tuning notes: a long no-reset optimization
# suits the globally fitted quadratic on smooth objectives, short
# optimizations with many suggestions suit the interpolating model, and the
# deceptive schwefel landscape favors rate 1 with resets for everything.
COMPARE_PRESETS: dict[tuple[str, str], dict] = {
    ("bohachevsky", "lsm"): {"rate": 16, "suggestions": 4, "pool_handling": "no_reset"},
    ("bohachevsky", "rbf"): {"rate": 1, "suggestions": 8, "pool_handling": "no_reset"},
    ("ackley", "lsm"): {"rate": 16, "suggestions": 8, "pool_handling": "reset"},
    ("ackley", "rbf"): {"rate": 1, "suggestions": 8, "pool_handling": "no_reset"},
    ("schwefel", "lsm"): {"rate": 1, "suggestions": 8, "pool_handling": "reset"},
    ("schwefel", "rbf"): {"rate": 1, "suggestions": 8, "pool_handling": "reset"},
}


@dataclass
class ComparisonResult:
    rows_by_system: dict[str, list[dict]]
    ga_budget: int
    result: ExperimentResult

    def best_fitness(self, system: str) -> list[float]:
        return [row["best_fitness"] for row in self.rows_by_system[system]]

    def median_best_fitness(self, system: str) -> float:
        """Median over the system's runs that finished; ValueError if none did."""
        return summarize([f for f in self.best_fitness(system) if f is not None])["median"]

    def convergence_cycles(self, system: str) -> list[int]:
        return [row["convergence_cycle"] for row in self.rows_by_system[system]]


def run_compare(objective: str, cycles: int | None = None, out_dir: Path | None = None,
                **shared) -> ComparisonResult:
    """Run every system in SYSTEMS on one objective, the plain GA capped at their budget.

    shared holds ExperimentSpec fields, passed to each system's spec; one left
    out takes the field's default, and so does cycles, a single count here.
    The cap is the largest budget any recommender configuration uses,
    pool_size + cycles * suggestions; ``true_evals`` in runs.csv is what a GA
    run spent. Bad settings raise ValueError before the first run starts,
    and so does a field that the presets set: system, rates, suggestions or
    pool_handling.
    """
    preset_fields = [name for name in ("system", "rates", "suggestions", "pool_handling") if name in shared]
    if preset_fields:
        raise ValueError(f"run_compare sets {', '.join(preset_fields)} itself; leave them out")
    objectives.make_objective(objective)  # an unknown name is a ValueError before the preset lookup
    if cycles is not None:
        shared["cycles"] = (cycles,)
    out_dir = out_dir if out_dir is not None else default_out_dir() / f"compare_{objective}"
    presets = {kind: preset for (name, kind), preset in COMPARE_PRESETS.items() if name == objective}
    specs = []
    for system, row in _SYSTEMS.items():
        settings = row.compare_settings(presets)
        specs.append(ExperimentSpec(objective, system, rates=(settings["rate"],), suggestions=(settings["suggestions"],),
                                    pool_handling=(settings["pool_handling"],), out_dir=out_dir, **shared))
    ga_budget = max(job["config"].budget for spec in specs for job in spec._jobs)
    result = _run_specs(specs)
    rows_by_system = {system: [r for r in result.run_rows if r["system"] == system] for system in SYSTEMS}
    return ComparisonResult(rows_by_system=rows_by_system, ga_budget=ga_budget, result=result)


def read_runs_csv(path: Path) -> list[dict]:
    """Read a runs.csv back into typed rows (inverse of the writer).

    Raises ValueError when the file lacks a runs.csv column, a row's cell
    count differs from the header's, or a numeric cell does not parse.
    """
    parsers = {**dict.fromkeys(("dimension", "rate", "suggestions", "cycles", "pool_size", "seed",
                                "convergence_cycle", "true_evals"), int),
               **dict.fromkeys(("best_fitness", "acceptance_rate"), float)}
    rows = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        missing = [c for c in RUN_CSV_COLUMNS if c not in (reader.fieldnames or ())]
        if missing:
            raise ValueError(f"{path} is not a runs.csv: no column {', '.join(missing)}")
        for raw in reader:
            if None in raw or None in raw.values():  # DictReader's marks of a long row and a short one
                raise ValueError(f"{path}, line {reader.line_num}: the row's cell count differs from the header's")
            row = {}
            for key, text in raw.items():
                try:
                    row[key] = None if text == "" else parsers.get(key, str)(text)
                except ValueError as exc:
                    raise ValueError(f"{path}, line {reader.line_num}, column {key}: {exc}") from None
            rows.append(row)
    return rows
