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
import hashlib
import itertools
import json
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np
import scipy

from . import __version__, objectives
from .baselines import run_ga_baseline, run_random_recommender
from .evolution import GA_RNG_LAYOUT, GaConfig
from .objectives import make_objective
from .recommender import EXCLUSION_EPSILON, SagrsConfig, run_sagrs

SYSTEMS = ("sagrs-lsm", "sagrs-rbf", "ga", "random-lsm", "random-rbf")

RUN_CSV_COLUMNS = (
    "run_id", "system", "objective", "dimension", "rate", "suggestions", "cycles",
    "pool_handling", "pool_size", "seed", "best_fitness", "convergence_cycle",
    "acceptance_rate", "true_evals",
)
CYCLE_CSV_COLUMNS = (
    "run_id", "cycle", "best_fitness_so_far", "accepted_count", "suggested_count",
    "surrogate_fit_ok",
)

SUMMARY_METRICS = ("best_fitness", "convergence_cycle", "acceptance_rate", "true_evals")

OUT_DIR_ENV = "SAGRS_OUT_DIR"


def default_out_dir() -> Path:
    return Path(os.environ.get(OUT_DIR_ENV, "results"))


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
    jobs: int = 1

    def __post_init__(self):
        self.rates = tuple(self.rates)
        self.suggestions = tuple(self.suggestions)
        self.cycles = tuple(self.cycles)
        self.pool_handling = tuple(self.pool_handling)
        self.out_dir = Path(self.out_dir)
        # Rejects an unknown objective or a dimension it does not support.
        # Called through the module: the harness's own make_objective is the
        # name runs resolve, and perfbench swaps it for one that logs a run.
        objectives.make_objective(self.objective, self.dimension)
        if self.system not in SYSTEMS:
            raise ValueError(f"unknown system {self.system!r}; choose from {SYSTEMS}")
        if self.repetitions < 1:
            raise ValueError("repetitions must be >= 1")
        if self.pool_size < 1:
            raise ValueError("pool_size must be >= 1")
        for axis_name in ("rates", "suggestions", "cycles", "pool_handling"):
            if not getattr(self, axis_name):
                raise ValueError(f"sweep axis {axis_name} must be nonempty")
        # No system can run these; a negative rate or a pool too small for
        # the surrogate stays a per-run failure.
        for axis_name in ("suggestions", "cycles"):
            if min(getattr(self, axis_name)) < 1:
                raise ValueError(f"{axis_name} must be >= 1, got {getattr(self, axis_name)}")
        if self.training_window is not None and self.training_window < 1:
            raise ValueError(f"training_window must be >= 1 when set, got {self.training_window}")
        if self.jobs < 1:
            raise ValueError("jobs must be >= 1")


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


def _build_jobs(spec: ExperimentSpec) -> list[dict]:
    jobs = []
    grid = itertools.product(spec.rates, spec.suggestions, spec.cycles, spec.pool_handling)
    for rate, sugg, cyc, handling in grid:
        for rep in range(spec.repetitions):
            run_id = (
                f"{spec.system}_{spec.objective}_d{spec.dimension}_r{rate}_s{sugg}"
                f"_c{cyc}_{handling}_p{spec.pool_size}_rep{rep:02d}"
            )
            seed = derive_seed(
                spec.base_seed, spec.system, spec.objective, spec.dimension,
                rate, sugg, cyc, handling, spec.pool_size, rep,
            )
            jobs.append({
                "run_id": run_id,
                "system": spec.system,
                "objective": spec.objective,
                "dimension": spec.dimension,
                "rate": rate,
                "suggestions": sugg,
                "cycles": cyc,
                "pool_handling": handling,
                "pool_size": spec.pool_size,
                "seed": seed,
                "ga": spec.ga,
                "training_window": spec.training_window,
            })
    return jobs


def _execute_job(job: dict) -> tuple[dict, list[dict], str | None]:
    """Run one job; returns (summary row, cycle rows, error message or None)."""
    # run coordinates come from the job; metric cells stay empty until set
    row = {column: job.get(column) for column in RUN_CSV_COLUMNS}
    cycle_rows: list[dict] = []
    try:
        obj = make_objective(job["objective"], job["dimension"])
        rng = np.random.default_rng(job["seed"])
        system = job["system"]
        if system == "ga":
            n_eval = job["pool_size"] + job["cycles"] * job["suggestions"]
            result = run_ga_baseline(obj, n_eval, ga=job["ga"], rng=rng)
            row.update({
                "rate": None,
                "pool_handling": None,
                "best_fitness": result.best_fitness,
                "true_evals": result.true_evaluations_used,
            })
        else:
            kind = system.rsplit("-", 1)[1]
            cfg = SagrsConfig(
                model_kind=kind,
                evaluation_rate=job["rate"],
                suggestions_per_cycle=job["suggestions"],
                cycles=job["cycles"],
                pool_handling=job["pool_handling"],
                initial_pool_size=job["pool_size"],
                ga=job["ga"],
                training_window=job["training_window"],
            )
            if system.startswith("random-"):
                result = run_random_recommender(obj, cfg, rng)
                row.update({"rate": 0, "pool_handling": "reset"})
            else:
                result = run_sagrs(obj, cfg, rng)
            row.update({
                "best_fitness": result.best_fitness,
                "convergence_cycle": result.convergence_cycle,
                "acceptance_rate": result.acceptance_rate,
                "true_evals": result.true_evaluations_used,
            })
            for record in result.cycle_records:
                cycle_rows.append({
                    "run_id": job["run_id"],
                    "cycle": record.cycle_index,
                    "best_fitness_so_far": record.best_true_fitness_so_far,
                    "accepted_count": record.accepted_count,
                    "suggested_count": len(record.suggested),
                    "surrogate_fit_ok": record.surrogate_fit_ok,
                })
    except Exception as exc:  # failed runs are recorded, the batch continues
        return row, [], f"{type(exc).__name__}: {exc}"
    return row, cycle_rows, None


def _run_jobs(jobs: list[dict], n_workers: int):
    if n_workers > 1 and len(jobs) > 1:
        with ProcessPoolExecutor(max_workers=n_workers) as pool:
            return list(pool.map(_execute_job, jobs))
    return [_execute_job(job) for job in jobs]


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


GRID_KEY_COLUMNS = (
    "system", "objective", "dimension", "rate", "suggestions", "cycles",
    "pool_handling", "pool_size",
)


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


def _metadata(extra: dict) -> dict:
    """Everything the numbers depend on that is not in the row schema."""
    return {
        "package_version": __version__,
        # LU and matrix-product bits depend on the LAPACK/BLAS build
        "versions": {
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "blas": {"numpy": _blas(np), "scipy": _blas(scipy)},
        },
        "quartile_method": "linear interpolation between closest ranks",
        "seed_derivation": "base_seed XOR first 8 bytes of sha256 over the run coordinates",
        "csv_float_format": "%.17g",
        "rbf_sigma_method": "mean pairwise Euclidean distance over the training pool",
        "rbf_activation": "1 - exp(-r^2 / (2 sigma^2))",
        "lsm_form": "second-order polynomial without cross terms, normal-equation solve",
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
    out_dir.mkdir(parents=True, exist_ok=True)
    if not os.access(out_dir, os.W_OK):
        raise OSError(f"output directory {out_dir} is not writable")
    outcomes = _run_jobs(jobs, n_workers)
    run_rows = [row for row, _, _ in outcomes]
    cycle_rows = [cr for _, rows, _ in outcomes for cr in rows]
    summaries = aggregate_rows(run_rows)
    _write_csv(out_dir / "runs.csv", RUN_CSV_COLUMNS, run_rows)
    _write_csv(out_dir / "cycles.csv", CYCLE_CSV_COLUMNS, cycle_rows)
    for name, payload in (("summary.json", summaries), ("metadata.json", _metadata(metadata))):
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
    jobs: int = 1,
) -> ComparisonResult:
    """Run all five systems on one objective with budget-matched settings.

    The plain GA gets the largest budget any recommender configuration uses,
    pool_size + cycles * suggestions. Bad settings raise ValueError before
    the first run starts.
    """
    objectives.make_objective(objective, dimension)  # ValueError before the preset lookup
    ga = ga if ga is not None else GaConfig()
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
    jobs_list: list[dict] = []
    for system in SYSTEMS:
        settings = system_settings[system]
        jobs_list.extend(_build_jobs(ExperimentSpec(
            objective=objective,
            system=system,
            dimension=dimension,
            rates=(settings["rate"],),
            suggestions=(settings["suggestions"],),
            cycles=(cycles,),
            pool_handling=(settings["pool_handling"],),
            pool_size=pool_size,
            repetitions=repetitions,
            base_seed=base_seed,
            ga=ga,
            jobs=jobs,
        )))

    result = _run_batch(jobs_list, jobs, out_dir, {
        "comparison": {
            "objective": objective,
            "dimension": dimension,
            "repetitions": repetitions,
            "base_seed": base_seed,
            "cycles": cycles,
            "pool_size": pool_size,
            "ga_budget": ga_budget,
            "presets": {f"{obj}-{kind}": dict(v) for (obj, kind), v in COMPARE_PRESETS.items()},
            "ga": asdict(ga),
        },
    })
    rows_by_system = {system: [r for r in result.run_rows if r["system"] == system] for system in SYSTEMS}
    return ComparisonResult(rows_by_system=rows_by_system, ga_budget=ga_budget, result=result)


def read_runs_csv(path: Path) -> list[dict]:
    """Read a runs.csv back into typed rows (inverse of the writer).

    Raises ValueError when the file lacks a runs.csv column.
    """
    int_cols = {"dimension", "rate", "suggestions", "cycles", "pool_size", "seed",
                "convergence_cycle", "true_evals"}
    float_cols = {"best_fitness", "acceptance_rate"}
    rows = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        missing = [c for c in RUN_CSV_COLUMNS if c not in (reader.fieldnames or ())]
        if missing:
            raise ValueError(f"{path} is not a runs.csv: no column {', '.join(missing)}")
        for raw in reader:
            row = {}
            for key, text in raw.items():
                if text == "":
                    row[key] = None
                elif key in int_cols:
                    row[key] = int(text)
                elif key in float_cols:
                    row[key] = float(text)
                else:
                    row[key] = text
            rows.append(row)
    return rows
