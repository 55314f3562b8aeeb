"""Acceptance suite: every criterion prints one pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s`. Criteria 8-11 share three
full five-system comparisons (10 repetitions each, budget <= 1000 true
evaluations per run), built once per module.
"""

import json
import time
import warnings

import numpy as np
import pytest

from sagrs.baselines import ga_baseline_shape, run_random_recommender
from sagrs.evolution import GaConfig
from sagrs.harness import run_compare
from sagrs.objectives import OBJECTIVE_NAMES, Objective, make_objective
from sagrs.recommender import (
    CycleRecord,
    SagrsConfig,
    acceptance_rate,
    convergence_cycle,
    count_accepted,
    run_sagrs,
)
from sagrs.surrogate import (
    EXCLUSION_EPSILON,
    EvaluatedPool,
    Item,
    compute_sigma,
    design_row,
    fit_lsm,
    fit_rbf,
)

OBJECTIVES = ("bohachevsky", "ackley", "schwefel")


def report(num, name, ok, detail=""):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num:02d} {name}: {detail}")
    return ok


@pytest.fixture(scope="module")
def comparisons(tmp_path_factory):
    results = {}
    for objective in OBJECTIVES:
        results[objective] = run_compare(
            objective, repetitions=10, base_seed=0,
            out_dir=tmp_path_factory.mktemp(f"cmp_{objective}"),
        )
    return results


def test_criterion_01_rbf_interpolation_exactness():
    start = time.monotonic()
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(50):
        obj = make_objective(OBJECTIVE_NAMES[int(rng.integers(len(OBJECTIVE_NAMES)))])
        size = int(rng.integers(3, 31))
        pts = obj.sample_uniform(rng, size)
        pool = EvaluatedPool(items=[Item(p, obj.evaluate(p)) for p in pts])
        model = fit_rbf(pool)
        scale = 1.0 + max(abs(v) for v in pool.fitnesses())
        err = max(abs(got - f) for got, f in zip(model.predict(pool.points()), pool.fitnesses())) / scale
        worst = max(worst, err)
    elapsed = time.monotonic() - start
    ok = worst <= 1e-6 and elapsed < 5.0
    assert report(1, "RBF interpolation exactness", ok,
                  f"worst relative error {worst:.3e}, {elapsed:.2f}s")


def test_criterion_02_lsm_exact_recovery():
    start = time.monotonic()
    rng = np.random.default_rng(202)
    worst = 0.0
    for trial in range(100):
        d = 2 if trial % 4 else 3
        coeffs = rng.uniform(-5.0, 5.0, size=2 * d + 1)
        n = int(rng.integers(2 * d + 1, 40))
        pts = rng.uniform(-3.0, 3.0, size=(n, d))
        items = [Item(p, float(coeffs @ design_row(p))) for p in pts]
        model = fit_lsm(EvaluatedPool(items=items))
        worst = max(worst, float(np.max(np.abs(model.theta - coeffs))))
    elapsed = time.monotonic() - start
    ok = worst <= 1e-6 and elapsed < 5.0
    assert report(2, "LSM exact recovery", ok,
                  f"worst coefficient error {worst:.3e}, {elapsed:.2f}s")


def test_criterion_03_sigma_heuristic_matches_pairwise_mean():
    rng = np.random.default_rng(303)
    worst = 0.0
    cases = [np.array([[0.0, 0.0], [3.0, 4.0]]),
             np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])]
    cases += [rng.uniform(-50, 50, size=(int(rng.integers(2, 12)), 2)) for _ in range(20)]
    for pts in cases:
        pool = EvaluatedPool(items=[Item(p, 0.0) for p in pts])
        n = len(pts)
        dists = [float(np.linalg.norm(pts[i] - pts[j]))
                 for i in range(n) for j in range(i + 1, n)]
        worst = max(worst, abs(compute_sigma(pool) - sum(dists) / len(dists)))
    hand = abs(compute_sigma(EvaluatedPool(items=[Item(np.array([0.0, 0.0]), 0.0),
                                                  Item(np.array([3.0, 4.0]), 0.0)])) - 5.0)
    ok = worst <= 1e-12 and hand <= 1e-12
    assert report(3, "sigma equals mean pairwise distance", ok, f"worst deviation {worst:.2e}")


def test_criterion_04_exclusion_and_budget_over_full_runs():
    violations = 0
    budget_errors = 0
    for name in OBJECTIVES:
        for kind in ("lsm", "rbf"):
            for rate in (1, 16, 64):
                base = make_objective(name)
                log = []
                spy = Objective(name=base.name, dimension=2, lower=base.lower,
                                upper=base.upper,
                                fn=lambda x, f=base.fn: (log.append(np.array(x)), f(x))[1])
                cfg = SagrsConfig(model_kind=kind, evaluation_rate=rate,
                                  suggestions_per_cycle=4, cycles=15, initial_pool_size=30,
                                  ga=GaConfig(population_size=30))
                result = run_sagrs(spy, cfg, np.random.default_rng(rate * 7 + hash(kind) % 97))
                pts = np.array(log)
                for i in range(1, len(pts)):
                    dmin = np.min(np.sqrt(np.sum((pts[:i] - pts[i]) ** 2, axis=1)))
                    if dmin <= EXCLUSION_EPSILON:
                        violations += 1
                expected = cfg.initial_pool_size + cfg.cycles * cfg.suggestions_per_cycle
                if result.true_evaluations_used != expected or len(log) != expected:
                    budget_errors += 1
    ok = violations == 0 and budget_errors == 0
    assert report(4, "exclusion invariant and exact budget", ok,
                  f"{violations} exclusion violations, {budget_errors} budget mismatches "
                  "over 18 runs")


def test_criterion_05_ga_baseline_shape():
    exact = ga_baseline_shape(1000) == (31, 31)
    within = all(ga_baseline_shape(n)[0] ** 2 <= n for n in range(4, 10_001))
    ok = exact and within
    assert report(5, "baseline shape", ok, f"shape(1000)={ga_baseline_shape(1000)}")


def test_criterion_06_random_recommender_equivalence():
    obj = make_objective("ackley")
    cfg = SagrsConfig(model_kind="rbf", evaluation_rate=9, suggestions_per_cycle=2,
                      cycles=5, pool_handling="no_reset", initial_pool_size=10,
                      ga=GaConfig(population_size=12))
    forced = SagrsConfig(model_kind="rbf", evaluation_rate=0, suggestions_per_cycle=2,
                         cycles=5, pool_handling="reset", initial_pool_size=10,
                         ga=GaConfig(population_size=12))
    identical = True
    for seed in range(10):
        a = run_random_recommender(obj, cfg, np.random.default_rng(seed))
        b = run_sagrs(obj, forced, np.random.default_rng(seed))
        identical &= (
            a.best_fitness == b.best_fitness
            and a.convergence_cycle == b.convergence_cycle
            and a.acceptance_rate == b.acceptance_rate
            and a.true_evaluations_used == b.true_evaluations_used
            and all(
                ra.accepted_count == rb.accepted_count
                and ra.best_true_fitness_so_far == rb.best_true_fitness_so_far
                and all(np.array_equal(ia.point, ib.point) and ia.fitness == ib.fitness
                        for ia, ib in zip(ra.suggested, rb.suggested))
                for ra, rb in zip(a.cycle_records, b.cycle_records)
            )
        )
    assert report(6, "random recommender is rate-0 reset, bitwise", identical, "10 seeds")


def test_criterion_07_metric_oracles_on_synthetic_logs():
    rng = np.random.default_rng(707)
    mismatches = 0
    for _ in range(100):
        initial = list(rng.normal(0.0, 10.0, size=int(rng.integers(2, 8))))
        n_cycles = int(rng.integers(1, 12))
        k = int(rng.integers(1, 5))
        cycle_fitness = [list(rng.normal(0.0, 10.0, size=k)) for _ in range(n_cycles)]

        # module path: real pool and records
        counter = iter(range(10_000))
        pool = EvaluatedPool(items=[Item(np.array([float(next(counter)), 0.0]), f)
                                    for f in initial])
        records = []
        for index, fits in enumerate(cycle_fitness, start=1):
            items = [Item(np.array([float(next(counter)), 0.0]), f) for f in fits]
            accepted = count_accepted(items, pool)
            pool.add([item.point for item in items], [item.fitness for item in items])
            records.append(CycleRecord(index, items, accepted,
                                       pool.best_fitness(), True))
        got = (
            [r.accepted_count for r in records],
            convergence_cycle(records),
            acceptance_rate(records),
        )

        # independent brute-force recomputation from the raw log
        values = list(initial)
        brute_accepted = []
        for fits in cycle_fitness:
            worst = max(values)
            brute_accepted.append(sum(1 for f in fits if f < worst))
            values.extend(fits)
        brute_conv = 0
        for index, acc in enumerate(brute_accepted, start=1):
            if acc >= 1:
                brute_conv = index
        brute_rate = sum(brute_accepted) / (k * n_cycles)

        if got != (brute_accepted, brute_conv, brute_rate):
            mismatches += 1
    assert report(7, "metric oracles on synthetic logs", mismatches == 0,
                  f"{mismatches} mismatches in 100 randomized logs")


def _medians(comparison):
    return {system: comparison.median_best_fitness(system)
            for system in comparison.rows_by_system}


def _check_budgets(comparison):
    return all(row["true_evals"] <= 1000
               for rows in comparison.rows_by_system.values() for row in rows)


def test_criterion_08_bohachevsky_orderings(comparisons):
    med = _medians(comparisons["bohachevsky"])
    ordering_lsm = med["sagrs-lsm"] < med["random-lsm"] < med["ga"]
    ordering_rbf = med["sagrs-rbf"] < med["random-rbf"] < med["ga"]
    absolute = med["sagrs-lsm"] < 1.0
    ok = ordering_lsm and ordering_rbf and absolute and _check_budgets(comparisons["bohachevsky"])
    detail = ", ".join(f"{s}={med[s]:.3g}" for s in sorted(med))
    assert report(8, "bohachevsky medians ordered", ok, detail)


def test_criterion_09_ackley_orderings(comparisons):
    med = _medians(comparisons["ackley"])
    ok = (med["sagrs-lsm"] < med["random-lsm"] < med["ga"]
          and med["sagrs-rbf"] < med["random-rbf"] < med["ga"]
          and _check_budgets(comparisons["ackley"]))
    detail = ", ".join(f"{s}={med[s]:.3g}" for s in sorted(med))
    assert report(9, "ackley medians ordered", ok, detail)


def test_criterion_10_schwefel_weak_claims(comparisons):
    comparison = comparisons["schwefel"]
    med = _medians(comparison)
    flags = []
    if not med["sagrs-lsm"] <= med["ga"]:
        flags.append(f"sagrs-lsm median {med['sagrs-lsm']:.3g} above ga {med['ga']:.3g}")
    for kind in ("lsm", "rbf"):
        gap = abs(med[f"sagrs-{kind}"] - med[f"random-{kind}"])
        allowed = 0.25 * med[f"random-{kind}"]
        if gap > allowed:
            flags.append(f"{kind}: |sagrs - random| = {gap:.3g} exceeds 25% of random "
                         f"({allowed:.3g})")
    if flags:
        (comparison.result.out_dir / "criterion10_flags.json").write_text(
            json.dumps(flags, indent=2) + "\n")
        for flag in flags:
            warnings.warn(f"criterion 10 miss (recorded, not fatal): {flag}")
    detail = ", ".join(f"{s}={med[s]:.3g}" for s in sorted(med))
    if flags:
        detail += f" | {len(flags)} flagged warning(s) recorded"
    # the weakest claim in the source material: misses are flagged, not fatal
    assert report(10, "schwefel weak ordering", True, detail)
    assert _check_budgets(comparison)


def test_criterion_11_convergence_within_100_cycles(comparisons):
    worst = 0
    for objective in OBJECTIVES:
        comparison = comparisons[objective]
        for system in ("sagrs-lsm", "sagrs-rbf", "random-lsm", "random-rbf"):
            median_cc = float(np.median(comparison.convergence_cycles(system)))
            worst = max(worst, median_cc)
    ok = worst <= 100
    assert report(11, "median convergence cycle <= 100", ok,
                  f"worst median over objectives/systems: {worst:.0f}")
