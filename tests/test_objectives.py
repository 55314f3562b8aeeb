import math

import numpy as np
import pytest

from sagrs.objectives import OBJECTIVE_NAMES, Objective, ackley, bohachevsky, make_objective, schwefel

SCHWEFEL_OPTIMIZER = 420.9687


def brute_bohachevsky(x):
    # naive pairwise-term loop as an independent oracle
    total = 0.0
    for i in range(len(x) - 1):
        total += (
            x[i] ** 2
            + 2.0 * x[i + 1] ** 2
            - 0.3 * math.cos(3.0 * math.pi * x[i])
            - 0.4 * math.cos(4.0 * math.pi * x[i + 1])
            + 0.7
        )
    return total


def test_global_optima_values():
    assert abs(make_objective("bohachevsky").evaluate([0.0, 0.0])) <= 1e-12
    assert abs(make_objective("ackley").evaluate([0.0, 0.0])) <= 1e-12
    schwefel_opt = make_objective("schwefel").evaluate([SCHWEFEL_OPTIMIZER] * 2)
    assert abs(schwefel_opt) <= 1e-3


def test_every_objective_near_zero_at_its_optimum():
    optima = {"bohachevsky": [0.0, 0.0], "ackley": [0.0, 0.0],
              "schwefel": [SCHWEFEL_OPTIMIZER] * 2}
    for name in OBJECTIVE_NAMES:
        assert make_objective(name).evaluate(optima[name]) <= 1e-3


def test_bohachevsky_hand_value():
    # 1 + 2 + 0.3 - 0.4 + 0.7 = 3.6
    assert make_objective("bohachevsky").evaluate([1.0, 1.0]) == pytest.approx(3.6, abs=1e-12)


def test_bohachevsky_matches_brute_force_in_higher_dimensions():
    rng = np.random.default_rng(23)
    for d in (2, 3, 5):
        for _ in range(20):
            x = rng.uniform(-100, 100, size=d)
            assert bohachevsky(x) == pytest.approx(brute_bohachevsky(x), rel=1e-12)


def test_ackley_loose_upper_bound_in_domain():
    obj = make_objective("ackley")
    rng = np.random.default_rng(99)
    points = obj.sample_uniform(rng, 10_000)
    values = np.array([obj.evaluate(p) for p in points])
    assert np.all(values < 22.4)


def test_evaluate_is_deterministic_bitwise():
    obj = make_objective("schwefel")
    point = np.array([123.456, -321.0])
    assert obj.evaluate(point) == obj.evaluate(point)


def test_evaluate_dimension_mismatch():
    with pytest.raises(ValueError):
        make_objective("ackley", 2).evaluate([1.0, 2.0, 3.0])


@pytest.mark.parametrize("dimension, lower, upper, message", [
    (0, [], [], "dimension must be >= 1"),
    (2, [0.0], [1.0, 1.0], "bounds must have one entry per coordinate"),
    (2, [0.0, 0.0], [[1.0, 1.0]], "bounds must have one entry per coordinate"),
    (2, [0.0, 1.0], [1.0, 1.0], "lower bound must be strictly below upper bound"),
    (2, [0.0, 2.0], [1.0, 1.0], "lower bound must be strictly below upper bound"),
], ids=["dimension-0", "lower-short", "upper-2d", "lower-equals-upper", "lower-above-upper"])
def test_objective_rejects_bad_box(dimension, lower, upper, message):
    with pytest.raises(ValueError, match=message):
        Objective(name="box", dimension=dimension, lower=np.array(lower), upper=np.array(upper), fn=bohachevsky)


def test_clip_interior_fixed_point():
    obj = make_objective("bohachevsky")
    assert np.array_equal(np.clip([0.0, 0.0], obj.lower, obj.upper), [0.0, 0.0])


def test_clip_saturation():
    obj = make_objective("bohachevsky")
    assert np.array_equal(np.clip([150.0, -150.0], obj.lower, obj.upper), [100.0, -100.0])


def test_clip_asymmetric_bounds():
    obj = make_objective("ackley")
    assert np.array_equal(np.clip([-20.0, 40.0], obj.lower, obj.upper), [-15.0, 30.0])


def test_sample_uniform_zero_count_gives_empty():
    obj = make_objective("ackley")
    assert obj.sample_uniform(np.random.default_rng(0), 0).shape == (0, 2)
    with pytest.raises(ValueError):
        obj.sample_uniform(np.random.default_rng(0), -1)


def test_sample_uniform_within_bounds():
    obj = make_objective("schwefel")
    pts = obj.sample_uniform(np.random.default_rng(1), 10_000)
    assert np.all(pts >= obj.lower) and np.all(pts <= obj.upper)


def test_sample_uniform_deterministic_given_seed():
    obj = make_objective("bohachevsky")
    a = obj.sample_uniform(np.random.default_rng(77), 25)
    b = obj.sample_uniform(np.random.default_rng(77), 25)
    assert np.array_equal(a, b)


def test_unknown_objective_rejected():
    with pytest.raises(ValueError):
        make_objective("rosenbrock")


def test_dimension_constraints():
    with pytest.raises(ValueError):
        make_objective("bohachevsky", 1)  # needs the pairwise term
    assert make_objective("ackley", 1).dimension == 1
    assert abs(ackley(np.zeros(5))) <= 1e-12
    assert abs(schwefel(np.full(3, SCHWEFEL_OPTIMIZER))) <= 2e-3
