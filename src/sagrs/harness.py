"""Experiment orchestration: sweeps, repetitions, seeding, CSV/JSON output.

Every run is a pure function of its parameters and a derived seed, so
re-running a spec reproduces the output files byte for byte. Results land
in an output directory as

    runs.csv       one summary row per run
    cycles.csv     one row per recommendation cycle per run
    summary.json   box-plot statistics per grid point and metric
    metadata.json  every default that affects the numbers
"""

from __future__ import annotations

import csv
import ctypes
import hashlib
import itertools
import json
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np
import scipy
import scipy.linalg

from . import __version__, objectives
from .baselines import run_ga_baseline, run_random_recommender, shape_ga
from .evolution import GA_RNG_LAYOUT, GaConfig, is_int
from .objectives import make_objective
from .recommender import EXCLUSION_EPSILON, SagrsConfig, run_sagrs

SYSTEMS = ("sagrs-lsm", "sagrs-rbf", "ga", "random-lsm", "random-rbf")

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


@dataclass(frozen=True)
class SummaryStats:
    """Box-plot statistics of one metric over repetitions."""

    min: float
    q1: float
    median: float
    q3: float
    max: float
    mean: float


def summarize(values) -> SummaryStats:
    """Quartiles by linear interpolation between closest ranks, plus mean."""
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        raise ValueError("cannot summarize an empty list")
    q1, median, q3 = np.percentile(arr, [25.0, 50.0, 75.0])
    return SummaryStats(
        min=float(arr.min()), q1=float(q1), median=float(median),
        q3=float(q3), max=float(arr.max()), mean=float(arr.mean()),
    )


def derive_seed(base_seed: int, *parts) -> int:
    """Stable per-run seed: base_seed XOR a hash of the run coordinates."""
    key = "|".join(str(p) for p in parts)
    digest = hashlib.sha256(key.encode("utf-8")).digest()
    return (base_seed ^ int.from_bytes(digest[:8], "big")) & (2**63 - 1)


@dataclass
class ExperimentSpec:
    objective: str
    system: str
    dimension: int = 2
    rates: tuple[int, ...] = (1,)
    suggestions: tuple[int, ...] = (4,)
    cycles: tuple[int, ...] = (100,)
    pool_handling: tuple[str, ...] = ("reset",)
    pool_size: int = 100
    repetitions: int = 10
    base_seed: int = 0
    out_dir: Path = field(default_factory=default_out_dir)
    ga: GaConfig = field(default_factory=GaConfig)
    training_window: int | None = None
    jobs: int = field(default_factory=default_jobs)

    def __post_init__(self):
        self.rates = tuple(self.rates)
        self.suggestions = tuple(self.suggestions)
        self.cycles = tuple(self.cycles)
        self.pool_handling = tuple(self.pool_handling)
        self.out_dir = Path(self.out_dir)
        # A config file bypasses argparse's types and choices, so check them here.
        for name in ("dimension", "pool_size", "repetitions", "base_seed", "jobs"):
            if not is_int(getattr(self, name)):
                raise ValueError(f"{name} must be an integer, got {getattr(self, name)!r}")
        if not isinstance(self.ga, GaConfig):
            raise ValueError(f"ga must be a GaConfig, got {self.ga!r}; set it through the ga_* config keys")
        if self.system not in SYSTEMS:
            raise ValueError(f"unknown system {self.system!r}; choose from {SYSTEMS}")
        if self.repetitions < 1:
            raise ValueError("repetitions must be >= 1")
        if self.pool_size < 1:
            raise ValueError("pool_size must be >= 1")
        if self.jobs < 1:
            raise ValueError("jobs must be >= 1")
        for axis_name in ("rates", "suggestions", "cycles", "pool_handling"):
            if not getattr(self, axis_name):
                raise ValueError(f"sweep axis {axis_name} must be nonempty")
        _build_jobs(self)  # checks each grid point's SagrsConfig, which owns the loop settings


@dataclass
class ExperimentResult:
    run_rows: list[dict]
    cycle_rows: list[dict]
    summaries: list[dict]
    failures: list[tuple[str, str]]  # (run_id, error message)
    out_dir: Path

    @property
    def ok(self) -> bool:
        return not self.failures


# The row cells of the coordinates a system does not use; random-* runs rate 0 with resets.
_SHOWN_CELLS = {"ga": {"rate": None, "pool_handling": None},
                **dict.fromkeys(("random-lsm", "random-rbf"), {"rate": 0, "pool_handling": "reset"})}


def _build_jobs(spec: ExperimentSpec) -> list[dict]:
    """One job per run with its grid point's checked SagrsConfig; ValueError names a point no run can use."""
    # Called through the module: the harness's own make_objective is the
    # name runs resolve, and perfbench swaps it for one that logs a run.
    obj = objectives.make_objective(spec.objective, spec.dimension)
    kind = "lsm" if spec.system == "ga" else spec.system.rsplit("-", 1)[1]  # the GA fits no surrogate
    jobs = []
    grid = itertools.product(spec.rates, spec.suggestions, spec.cycles, spec.pool_handling)
    for rate, sugg, cyc, handling in grid:
        try:
            cfg = SagrsConfig(model_kind=kind, evaluation_rate=rate, suggestions_per_cycle=sugg, cycles=cyc,
                              pool_handling=handling, initial_pool_size=spec.pool_size, ga=spec.ga,
                              training_window=spec.training_window)
            if spec.system == "ga":  # run_ga_baseline's own shaping checks the budget and the elitism
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
                **_SHOWN_CELLS.get(spec.system, {}),
                "seed": derive_seed(spec.base_seed, *point, rep),
                "config": cfg,
            })
    return jobs


def _execute_job(job: dict) -> tuple[dict, list[dict], str | None]:
    """Run one job's config; returns (summary row, cycle rows, error message or None)."""
    # run coordinates come from the job; metric cells stay empty until set
    row = {column: job.get(column) for column in RUN_CSV_COLUMNS}
    cycle_rows: list[dict] = []
    try:
        obj = make_objective(job["objective"], job["dimension"])
        rng = np.random.default_rng(job["seed"])
        cfg = job["config"]  # checked when the job was built
        if job["system"] == "ga":
            result = run_ga_baseline(obj, cfg.budget, ga=cfg.ga, rng=rng)
            metrics = (result.best_fitness, None, None, result.true_evaluations_used)
        else:
            run = run_random_recommender if job["system"].startswith("random-") else run_sagrs
            result = run(obj, cfg, rng)
            metrics = (result.best_fitness, result.convergence_cycle, result.acceptance_rate,
                       result.true_evaluations_used)
            cycle_rows = [
                dict(zip(CYCLE_CSV_COLUMNS, (
                    job["run_id"], record.cycle_index, record.best_true_fitness_so_far,
                    record.accepted_count, len(record.suggested), record.surrogate_fit_ok,
                )))
                for record in result.cycle_records
            ]
        row.update(zip(SUMMARY_METRICS, metrics))
    except Exception as exc:  # failed runs are recorded, the batch continues
        return row, [], f"{type(exc).__name__}: {exc}"
    return row, cycle_rows, None


def _openblas_thread_controls() -> dict[str, tuple]:
    """(get, set) thread-count functions of the OpenBLAS bundled with scipy and numpy.

    Each is looked up through an extension module whose dependencies
    include that OpenBLAS; numpy's 64-bit-integer build suffixes its symbols
    with ``64_``. A library without the symbols is left out.
    """
    controls = {}
    for name, module, suffix in (("scipy", scipy.linalg._flapack, ""), ("numpy", np.linalg._umath_linalg, "64_")):
        try:
            lib = ctypes.CDLL(module.__file__)
            get_threads = lib[f"scipy_openblas_get_num_threads{suffix}"]
            set_threads = lib[f"scipy_openblas_set_num_threads{suffix}"]
        except (AttributeError, OSError):
            continue
        get_threads.argtypes, get_threads.restype = [], ctypes.c_int
        set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
        controls[name] = (get_threads, set_threads)
    return controls


def _openblas_threads() -> int | str:
    """Threads of the OpenBLAS that scipy's LAPACK links, read without setting it.

    "unknown" where the symbol is missing.
    """
    control = _openblas_thread_controls().get("scipy")
    return "unknown" if control is None else control[0]()


def _one_blas_thread() -> list[tuple]:
    """Set each bundled OpenBLAS not at one thread to one; returns (set, count found) pairs of those.

    Also the pool's initializer, which pins a spawn or forkserver worker. A forked worker
    inherits the batch's pin and sets nothing: setting a count restarts the threads, which spin.
    """
    found = []
    for get_threads, set_threads in _openblas_thread_controls().values():
        count = get_threads()
        if count != 1:
            set_threads(1)
            found.append((set_threads, count))
    return found


def _run_jobs(jobs: list[dict], n_workers: int):
    """Run the jobs with one BLAS thread; returns the outcomes and that count, read inside the pin."""
    n_workers = min(n_workers, len(jobs))  # a fork start forks every worker at the first submit
    found = _one_blas_thread()  # before the pool forks its workers
    try:
        if n_workers > 1:
            with ProcessPoolExecutor(max_workers=n_workers, initializer=_one_blas_thread) as pool:
                return list(pool.map(_execute_job, jobs)), _openblas_threads()
        return [_execute_job(job) for job in jobs], _openblas_threads()
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
                metrics[metric] = asdict(summarize(values))
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


def _metadata(extra: dict, blas_threads: int | str) -> dict:
    """Everything the numbers depend on that is not in the row schema.

    blas_threads is the OpenBLAS thread count the runs used.
    """
    return {
        "package_version": __version__,
        # factorization and matrix-product bits depend on the LAPACK/BLAS
        # build and its thread count
        "versions": {
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "blas": {"numpy": _blas(np), "scipy": _blas(scipy)},
            "scipy_openblas_threads": blas_threads,
        },
        "quartile_method": "linear interpolation between closest ranks",
        "seed_derivation": "base_seed XOR first 8 bytes of sha256 over the run coordinates",
        "csv_float_format": "%.17g",
        "rbf_sigma_method": "mean pairwise Euclidean distance over the training pool",
        "rbf_activation": "1 - exp(-r^2 / (2 sigma^2))",
        "lsm_form": "second-order polynomial without cross terms, normal-equation solve",
        "linear_solves": {
            "lsm_normal_equations": "LU with partial pivoting (LAPACK dgetrf/dgetrs)",
            "rbf_plain": "LU with partial pivoting (LAPACK dgetrf/dgetrs)",
            "rbf_ridged": "Bunch-Kaufman symmetric-indefinite LDL^T (LAPACK dsytrf/dsytrs)",
        },
        "ga_operators": {
            "selection": "truncation; mating pool = ceil(selection_factor * population)",
            "recombination": "per-coordinate arithmetic blend with uniform weights",
            "clone": "better of two uniformly drawn parents when not recombining",
            "mutation": "per-individual Gaussian, std = mutation_scale * domain width",
        },
        "ga_rng_layout": GA_RNG_LAYOUT,
        "ga_budget_accounting": "lazy scoring; cached individuals (elites, clones) are never re-evaluated",
        "ga_baseline_inert_columns": "rate and pool_handling are empty for the ga system; "
                                     "cycles, suggestions and pool_size set its evaluation budget",
        "random_recommender": "evaluation rate forced to 0 and pool handling to reset",
        "objective_domains": {name: [lo, hi] for name, (_, lo, hi, _) in objectives._REGISTRY.items()},
        "exclusion_epsilon": EXCLUSION_EPSILON,
        **extra,
    }


def _run_batch(jobs: list[dict], n_workers: int, out_dir: Path, metadata: dict) -> ExperimentResult:
    """Run the jobs and persist the artifact set; metadata extends _metadata().

    A failed run keeps its row, with empty metric cells, and is listed in
    the result's failures; the batch goes on.
    """
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # a path through a regular file, or onto one
        raise ValueError(f"cannot create output directory {out_dir}: {exc.strerror or exc}") from exc
    if not os.access(out_dir, os.W_OK):
        raise ValueError(f"output directory {out_dir} is not writable")
    outcomes, blas_threads = _run_jobs(jobs, n_workers)
    run_rows = [row for row, _, _ in outcomes]
    cycle_rows = [cr for _, rows, _ in outcomes for cr in rows]
    summaries = aggregate_rows(run_rows)
    _write_csv(out_dir / "runs.csv", RUN_CSV_COLUMNS, run_rows)
    _write_csv(out_dir / "cycles.csv", CYCLE_CSV_COLUMNS, cycle_rows)
    for name, payload in (("summary.json", summaries), ("metadata.json", _metadata(metadata, blas_threads))):
        with open(out_dir / name, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return ExperimentResult(
        run_rows=run_rows, cycle_rows=cycle_rows, summaries=summaries,
        failures=[(row["run_id"], err) for row, _, err in outcomes if err is not None],
        out_dir=out_dir,
    )


def run_experiment(spec: ExperimentSpec) -> ExperimentResult:
    """Run the whole sweep grid x repetitions and persist the artifact set."""
    settings = {k: v for k, v in asdict(spec).items() if k not in ("out_dir", "jobs")}
    return _run_batch(_build_jobs(spec), spec.jobs, spec.out_dir, {"spec": settings})


# Per-objective settings for the five-system comparison. Rates and pool
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
        return summarize([f for f in self.best_fitness(system) if f is not None]).median

    def convergence_cycles(self, system: str) -> list[int]:
        return [row["convergence_cycle"] for row in self.rows_by_system[system]]


def run_compare(
    objective: str,
    dimension: int = 2,
    repetitions: int = 10,
    base_seed: int = 0,
    out_dir: Path | None = None,
    cycles: int = 100,
    pool_size: int = 100,
    ga: GaConfig | None = None,
    jobs: int | None = None,
) -> ComparisonResult:
    """Run all five systems on one objective, the plain GA capped at their budget.

    The cap is the largest budget any recommender configuration uses,
    pool_size + cycles * suggestions; ``true_evals`` in runs.csv is what a GA
    run spent. ``jobs`` defaults to default_jobs(). Bad settings raise
    ValueError before the first run starts.
    """
    objectives.make_objective(objective, dimension)  # ValueError before the preset lookup
    ga = ga if ga is not None else GaConfig()
    jobs = jobs if jobs is not None else default_jobs()
    out_dir = Path(out_dir) if out_dir is not None else default_out_dir() / f"compare_{objective}"
    lsm = COMPARE_PRESETS[(objective, "lsm")]
    rbf = COMPARE_PRESETS[(objective, "rbf")]
    suggestions = max(lsm["suggestions"], rbf["suggestions"])
    ga_budget = pool_size + cycles * suggestions

    system_settings = {
        "sagrs-lsm": lsm,
        "sagrs-rbf": rbf,
        "random-lsm": {**lsm, "rate": 0, "pool_handling": "reset"},
        "random-rbf": {**rbf, "rate": 0, "pool_handling": "reset"},
        "ga": {"rate": 0, "suggestions": suggestions, "pool_handling": "reset"},
    }
    # what the five specs share, and the comparison's metadata records
    shared = dict(objective=objective, dimension=dimension, repetitions=repetitions,
                  base_seed=base_seed, pool_size=pool_size)
    jobs_list: list[dict] = []
    for system in SYSTEMS:
        settings = system_settings[system]
        jobs_list.extend(_build_jobs(ExperimentSpec(
            system=system,
            rates=(settings["rate"],),
            suggestions=(settings["suggestions"],),
            cycles=(cycles,),
            pool_handling=(settings["pool_handling"],),
            ga=ga,
            jobs=jobs,
            **shared,
        )))

    result = _run_batch(jobs_list, jobs, out_dir, {
        "comparison": {
            **shared,
            "cycles": cycles,
            "ga_budget": ga_budget,
            "presets": {f"{obj}-{kind}": dict(v) for (obj, kind), v in COMPARE_PRESETS.items()},
            "ga": asdict(ga),
        },
    })
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
