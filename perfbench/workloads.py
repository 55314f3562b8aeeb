"""The benchmark's workloads and the checks on their outputs.

One iteration of a workload repeats the same inputs, derived from the seed,
so every iteration does the same work and must give the same fingerprint.
The objective handed to the loop records when each true evaluation starts
and ends: the user's wait for the next suggestions is the gap between the
last evaluation of one cycle (or of the initial pool) and the first of the
next, covering fit, GA and selection.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import shutil
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np
from scipy.spatial.distance import pdist

import sagrs.baselines
import sagrs.harness
import sagrs.recommender
from sagrs import Objective, SagrsConfig, make_objective
from sagrs.recommender import EXCLUSION_EPSILON


class EvalLog:
    """True evaluations as the user sees them: point, start and end time."""

    def __init__(self):
        self.points: list[np.ndarray] = []
        self.starts: list[float] = []
        self.ends: list[float] = []

    def objective(self, base: Objective) -> Objective:
        def fn(x):
            start = perf_counter()
            value = base.fn(x)
            self.ends.append(perf_counter())
            self.starts.append(start)
            self.points.append(x.copy())
            return value

        return Objective(base.name, base.dimension, base.lower, base.upper, fn)

    def suggestion_gaps_ms(self, pool_size: int, suggestions: int, cycles: int) -> list[float]:
        firsts = range(pool_size, pool_size + cycles * suggestions, suggestions)
        return [(self.starts[i] - self.ends[i - 1]) * 1e3 for i in firsts]


def loop_run_problems(log: EvalLog, true_evals: int, budget: int) -> list[str]:
    """Budget and exclusion checks on one recommendation-loop run."""
    problems = []
    if true_evals != budget or len(log.points) != budget:
        problems.append(f"spent {true_evals} reported / {len(log.points)} seen, budget {budget}")
    if len(log.points) > 1 and pdist(np.array(log.points)).min() <= EXCLUSION_EPSILON:
        problems.append("a point was evaluated twice")
    return problems


@dataclass
class Iteration:
    """What one pass over a workload's inputs did, and how long it took."""

    seconds: float = 0.0  # wall time inside the calls into sagrs
    evals: int = 0  # true evaluations completed
    runs: int = 0  # runs attempted
    failed: int = 0  # failed runs plus failed checks
    gaps_ms: list[float] = field(default_factory=list)
    digest: str = ""
    budget: int = 0  # true evaluations the runs report spending
    worker_chunks: list = field(default_factory=list)  # (spans, counts) per job
    busy_s: float = 0.0  # summed wall time of the jobs in the harness pool
    jobs: int = 1

    def fail(self, message: str) -> None:
        print(f"perfbench: check failed: {message}", flush=True)
        self.failed += 1


@dataclass(frozen=True)
class LoopRun:
    label: str
    objective: str
    config: SagrsConfig
    random: bool = False  # through run_random_recommender


class LoopWorkload:
    """Recommendation-loop runs called in-process, one after another."""

    def __init__(self, runs: tuple[LoopRun, ...], seed: int):
        self.runs = runs
        self.seed = seed

    def iterate(self, tracer) -> Iteration:
        it = Iteration()
        digest = hashlib.sha256()
        for index, run in enumerate(self.runs):
            cfg = run.config
            budget = cfg.initial_pool_size + cfg.cycles * cfg.suggestions_per_cycle
            log = EvalLog()
            obj = log.objective(make_objective(run.objective))
            rng = np.random.default_rng([self.seed, index])
            # looked up at call time, so a traced run goes through the tracer's wrapper
            entry = sagrs.baselines.run_random_recommender if run.random else sagrs.recommender.run_sagrs
            if tracer is not None:
                tracer.run_id = f"{run.label}-{index}"
            it.runs += 1
            start = perf_counter()
            try:
                result = entry(obj, cfg, rng)
            except Exception:
                traceback.print_exc()
                it.fail(f"{run.label} raised")
                continue
            it.seconds += perf_counter() - start
            it.evals += len(log.points)
            it.budget += result.true_evaluations_used
            problems = loop_run_problems(log, result.true_evaluations_used, budget)
            for problem in problems:
                it.fail(f"{run.label}: {problem}")
            if not problems:  # the cycle boundaries are known only when the budget held
                it.gaps_ms += log.suggestion_gaps_ms(cfg.initial_pool_size, cfg.suggestions_per_cycle, cfg.cycles)
            for record in result.cycle_records:
                digest.update(float(record.best_true_fitness_so_far).hex().encode())
            digest.update(float(result.best_fitness).hex().encode())
        it.digest = digest.hexdigest()
        return it


class JobRecorder:
    """Runs each harness job with a recording objective.

    Installed on ``sagrs.harness`` for the life of the process. Pool workers
    write one file per job: the evaluation log, the job's wall time and, when
    the tracer is installed, the job's spans. The parent reads them back.
    """

    def __init__(self, tracer, out_dir: Path):
        self.out_dir = out_dir
        self.parent_pid = os.getpid()
        self.log: EvalLog | None = None
        self.tracing = False
        original_job = sagrs.harness._execute_job
        original_make = sagrs.harness.make_objective

        def make_objective_logged(name, dimension=2):
            return self.log.objective(original_make(name, dimension))

        def execute_job(job):
            in_worker = os.getpid() != self.parent_pid
            if in_worker:
                tracer.reset()
            tracer.run_id = job["run_id"]
            self.log = EvalLog()
            start = perf_counter()
            outcome = original_job(job)
            record = {
                "job": job, "busy_s": perf_counter() - start, "log": self.log,
                "chunk": (tracer.spans, tracer.counts) if in_worker and self.tracing else None,
            }
            with open(self.out_dir / f"{job['run_id']}.pkl", "wb") as fh:
                pickle.dump(record, fh)
            return outcome

        # The pool pickles the job function by name; these make the name
        # resolve to this wrapper in the parent and in the forked workers.
        execute_job.__module__ = original_job.__module__
        execute_job.__qualname__ = original_job.__qualname__
        sagrs.harness._execute_job = execute_job
        sagrs.harness.make_objective = make_objective_logged

    def collect(self) -> dict[str, dict]:
        records = {}
        for path in sorted(self.out_dir.glob("*.pkl")):
            with open(path, "rb") as fh:
                record = pickle.load(fh)
            path.unlink()
            records[record["job"]["run_id"]] = record
        return records


class CompareWorkload:
    """``run_compare`` on ackley through the harness process pool."""

    OBJECTIVE = "ackley"
    REPETITIONS = 4
    CYCLES = 25
    JOBS = 2

    def __init__(self, seed: int, scratch: Path, tracer):
        self.seed = seed
        self.scratch = scratch
        jobs_dir = scratch / "jobs"
        jobs_dir.mkdir()
        self.recorder = JobRecorder(tracer, jobs_dir)
        self.count = 0

    def iterate(self, tracer) -> Iteration:
        it = Iteration(jobs=self.JOBS)
        self.count += 1
        out_dir = self.scratch / f"compare-{self.count}"
        run_compare = sagrs.harness.run_compare
        if tracer is not None:
            run_compare = tracer.wrap("harness.compare", run_compare)
        self.recorder.tracing = tracer is not None
        start = perf_counter()
        try:
            cmp = run_compare(
                self.OBJECTIVE, repetitions=self.REPETITIONS, base_seed=self.seed,
                out_dir=out_dir, cycles=self.CYCLES, jobs=self.JOBS,
            )
        except Exception:
            traceback.print_exc()
            it.runs += 1
            it.fail("run_compare raised")
            return it
        it.seconds = perf_counter() - start
        records = self.recorder.collect()
        rows = cmp.result.run_rows
        it.runs = len(rows)
        for run_id, error in cmp.result.failures:
            it.fail(f"{run_id}: {error}")
        for row in rows:
            record = records.get(row["run_id"])
            if record is None or row["true_evals"] is None:
                it.fail(f"{row['run_id']}: no evaluation record")
                continue
            log, job = record["log"], record["job"]
            it.evals += len(log.points)
            it.budget += row["true_evals"]
            it.busy_s += record["busy_s"]
            if record["chunk"] is not None:
                it.worker_chunks.append(record["chunk"])
            if row["system"] == "ga":
                if len(log.points) != row["true_evals"] or row["true_evals"] > cmp.ga_budget:
                    it.fail(f"{row['run_id']}: spent {row['true_evals']} of budget {cmp.ga_budget}")
                continue
            budget = job["pool_size"] + job["cycles"] * job["suggestions"]
            problems = loop_run_problems(log, row["true_evals"], budget)
            for problem in problems:
                it.fail(f"{row['run_id']}: {problem}")
            if not problems:
                it.gaps_ms += log.suggestion_gaps_ms(job["pool_size"], job["suggestions"], job["cycles"])
        digest = hashlib.sha256()
        for name in ("runs.csv", "cycles.csv", "summary.json"):
            digest.update(hashlib.sha256((out_dir / name).read_bytes()).digest())
        it.digest = digest.hexdigest()
        shutil.rmtree(out_dir)
        return it


WORKLOADS = ("rbf-pool-growth", "compare-parallel")


def make_workload(name: str, seed: int, scratch: Path, tracer):
    if name == "rbf-pool-growth":
        preset = sagrs.harness.COMPARE_PRESETS[("bohachevsky", "rbf")]
        rbf = SagrsConfig(
            model_kind="rbf", evaluation_rate=preset["rate"], suggestions_per_cycle=preset["suggestions"],
            cycles=100, pool_handling=preset["pool_handling"], initial_pool_size=100,
        )
        return LoopWorkload((LoopRun("sagrs-rbf", "bohachevsky", rbf),
                             LoopRun("random-rbf", "bohachevsky", rbf, random=True)), seed)
    if name == "compare-parallel":
        return CompareWorkload(seed, scratch, tracer)
    raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")
