"""Benchmark of the sagrs recommendation loop, end to end and per layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload rbf-pool-growth --seed 1 --seconds 45 --trace 0

It imports sagrs from ``src/`` of the checkout, times a fresh interpreter's
set-up, runs one untimed warm-up iteration of the workload, then repeats
iterations for about ``--seconds``. ``--trace 0`` reports the end-to-end
metrics; ``--trace 1`` alternates untraced and traced iterations and reports
the per-layer metrics plus the tracing overhead. The last line of standard
output is one JSON object; the line before it records the environment and
the output fingerprint. Scratch files go to ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import gc
import gzip
import json
import multiprocessing
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".perfbench"
SETUP_REPEATS = 5
SETUP_CODE = (
    "import sys; sys.path.insert(0, sys.argv[1]); import sagrs; "
    "[sagrs.make_objective(name) for name in sagrs.OBJECTIVE_NAMES]"
)
# Two pool workers each running multi-threaded OpenBLAS on two cores took
# 5 to 20 s per compare-parallel iteration in one process, against 1.0 to
# 1.4 s with one BLAS thread; no number of repeats makes that steady. So that
# workload re-executes itself with one BLAS thread and records the value found.
SINGLE_BLAS_THREAD = ("compare-parallel",)
FOUND_ENV = "PERFBENCH_OPENBLAS_NUM_THREADS_FOUND"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def env_as_found() -> dict:
    """The environment before the single-BLAS-thread re-execution."""
    env = dict(os.environ)
    if FOUND_ENV in env:
        found = env.pop(FOUND_ENV)
        if found:
            env["OPENBLAS_NUM_THREADS"] = found
        else:
            del env["OPENBLAS_NUM_THREADS"]
    return env


def setup_seconds() -> tuple[float, int]:
    """Median wall time of a fresh interpreter importing sagrs and building
    the objectives, and the number of those interpreters that failed."""
    times, failed = [], 0
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        done = subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC)], cwd=ROOT, env=env_as_found())
        times.append(perf_counter() - start)
        failed += done.returncode != 0
    return statistics.median(times), failed


def environment(seed: int) -> dict:
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "OPENBLAS_NUM_THREADS": env_as_found().get("OPENBLAS_NUM_THREADS"),
        "OPENBLAS_NUM_THREADS_used": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "start_method": multiprocessing.get_start_method(),
        "seed": seed,
    }


def run_iterations(workload, tracer, seconds: float, trace: bool):
    """One warm-up iteration, then iterations for about ``seconds``,
    alternating untraced and traced ones when ``trace`` is set.

    Returns every iteration, the untraced timed ones, and the traced ones
    each paired with its span chunks.
    """
    iterations = [workload.iterate(None)]
    timed, traced = [], []
    last = iterations[0].seconds
    start = perf_counter()
    # at least one timed (and traced) iteration; after that, start another
    # only if it would mostly fit in the time left
    while not timed or (trace and not traced) or perf_counter() - start + last / 2 < seconds:
        gc.collect()  # start every iteration from the same heap state
        if trace and len(traced) < len(timed):
            tracer.reset()
            tracer.install()
            try:
                it = workload.iterate(tracer)
            finally:
                tracer.uninstall()
            traced.append((it, [(tracer.spans, tracer.counts), *it.worker_chunks]))
        else:
            it = workload.iterate(None)
            timed.append(it)
        iterations.append(it)
        last = it.seconds
    return iterations, timed, traced


def evals_per_s(iterations) -> float:
    return statistics.median(it.evals / it.seconds for it in iterations if it.seconds > 0)


def layer_metrics(totals: dict, it, overhead: float) -> dict:
    """Per-layer metrics of one traced iteration."""
    def get(key):
        return totals.get(key, 0)

    def ratio(num, den):
        return num / den if den else 0.0

    solves = get("linalg.solve.calls")
    batch_ms = get("harness.batch.ms")
    return {
        "linalg.solve.calls": solves,
        "linalg.solve.ms": get("linalg.solve.ms"),
        "linalg.solve.singular": get("linalg.solve.singular"),
        "linalg.solve.ok_ratio": ratio(solves - get("linalg.solve.singular"), solves),
        "surrogate.fit.calls": get("surrogate.fit.calls"),
        "surrogate.fit.ms": get("surrogate.fit.ms"),
        "surrogate.fit.fallbacks": get("surrogate.fit.fallbacks"),
        "surrogate.fit_rbf.ridge_ratio": ratio(get("surrogate.fit_rbf.ridged"), get("surrogate.fit_rbf.calls")),
        "surrogate.predict.calls": get("surrogate.predict.calls"),
        "surrogate.predict.ms": get("surrogate.predict.ms"),
        "evolution.step_generation.calls": get("evolution.step_generation.calls"),
        "evolution.step_generation.self_ms": get("evolution.step_generation.self_ms"),
        "surrogate.pool.add.calls": get("surrogate.pool.add.calls"),
        "surrogate.pool.add.rejected": get("surrogate.pool.add.rejected"),
        "surrogate.pool.min_distance.calls": get("surrogate.pool.min_distance.calls"),
        "surrogate.pool.min_distance.ms": get("surrogate.pool.min_distance.ms"),
        "surrogate.pool.points.ms": get("surrogate.pool.points.ms"),
        "recommender.run.ms": get("recommender.run.ms"),
        "recommender.select.self_ms": get("recommender.select.self_ms"),
        "recommender.select.accept_ratio": ratio(
            get("recommender.select.suggestions"), get("recommender.select.checked")),
        "objectives.evaluate.calls": get("objectives.evaluate.calls"),
        "objectives.evaluate.ms": get("objectives.evaluate.ms"),
        "baselines.ga.ms": get("baselines.ga.ms"),
        "harness.batch.ms": batch_ms,
        "harness.overhead_ms": get("harness.compare.ms") - batch_ms,
        "harness.parallel_efficiency": ratio(it.busy_s * 1e3, it.jobs * batch_ms),
        "trace.overhead_ratio": overhead,
    }


def unit_of(name: str) -> str:
    last = name.rsplit(".", 1)[1]
    if last in ("calls", "singular", "fallbacks", "rejected"):
        return "count"
    return "ms" if last.endswith("ms") else "ratio"


def write_spans(path: Path, chunks) -> None:
    """One JSON line per span: chunk, name, start, end, parent, run id."""
    with gzip.open(path, "wt") as fh:
        for chunk_index, (spans, _) in enumerate(chunks):
            for span in spans:
                fh.write(json.dumps([chunk_index, *span]) + "\n")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "sagrs" / "__init__.py").is_file():
        print(f"perfbench: no sagrs sources at {SRC}", file=sys.stderr)
        return 2
    if args.workload in SINGLE_BLAS_THREAD and os.environ.get("OPENBLAS_NUM_THREADS") != "1":
        env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", FOUND_ENV: os.environ.get("OPENBLAS_NUM_THREADS", "")}
        os.execve(sys.executable, [sys.executable, __file__, *sys.argv[1:]], env)
    sys.path.insert(0, str(SRC))
    import sagrs

    if Path(sagrs.__file__).resolve().parent != SRC / "sagrs":
        print(f"perfbench: imported sagrs from {sagrs.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from spans import Tracer, layer_totals
    from workloads import WORKLOADS, make_workload

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from {WORKLOADS}", file=sys.stderr)
        return 2

    SCRATCH.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=SCRATCH))
    try:
        tracer = Tracer()
        workload = make_workload(args.workload, args.seed, scratch, tracer)
        setup_s, setup_failed = setup_seconds() if args.trace == 0 else (None, 0)
        iterations, timed, traced = run_iterations(workload, tracer, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    attempted = sum(it.runs for it in iterations) + (SETUP_REPEATS if args.trace == 0 else 0)
    failed = sum(it.failed for it in iterations) + setup_failed
    digests = {it.digest for it in iterations}
    if len(digests) != 1:
        print(f"perfbench: check failed: outputs differ across iterations: {sorted(digests)}")
        failed += 1
    info = {"workload": args.workload, "env": environment(args.seed), "fingerprint": sorted(digests),
            "iterations": {"warmup": 1, "untraced": len(timed), "traced": len(traced)},
            "evals_per_iteration": timed[0].evals,
            "iteration_seconds": [round(it.seconds, 4) for it in iterations]}

    if not any(it.gaps_ms for it in timed):
        print(f"perfbench: no timed run passed its checks ({failed} failures); nothing to report", file=sys.stderr)
        return 1
    if args.trace == 0:
        # per-iteration percentiles, so a burst of load in one iteration
        # does not own the tail
        p50, p95 = np.median([np.percentile(it.gaps_ms, [50, 95]) for it in timed if it.gaps_ms], axis=0)
        info["suggest_samples_per_iteration"] = len(timed[0].gaps_ms)
        rss_kb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                  + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
        metrics = {
            "evals_per_s": (evals_per_s(timed), "1/s"),
            "suggest_p50_ms": (float(p50), "ms"),
            "suggest_p95_ms": (float(p95), "ms"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (rss_kb / 1024, "MB"),
            "ok_ratio": (1.0 - failed / attempted, "ratio"),
        }
    else:
        overhead = 1.0 - evals_per_s([it for it, _ in traced]) / evals_per_s(timed)
        rows = []
        for it, chunks in traced:
            totals = layer_totals(chunks)
            if totals.get("objectives.evaluate.calls") != it.budget:
                print(f"perfbench: check failed: objectives.evaluate called "
                      f"{totals.get('objectives.evaluate.calls')} times, runs spent {it.budget}")
                failed += 1
            rows.append(layer_metrics(totals, it, overhead))
        metrics = {name: (statistics.median(row[name] for row in rows), unit_of(name)) for name in rows[0]}
        spans_path = SCRATCH / f"spans-{args.workload}-seed{args.seed}.jsonl.gz"
        write_spans(spans_path, traced[-1][1])
        info["spans"] = str(spans_path.relative_to(ROOT))

    print(json.dumps(info))
    for name, (value, unit) in metrics.items():
        print(f"  {name:38s} {value:14.6g} {unit}", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
