"""What the benchmark under perfbench/ relies on in the package.

perfbench wraps package names by attribute and reads the harness's job
dicts; a change that breaks either shows here, not only in its own run.
"""

import importlib.util
import sys
from pathlib import Path

import sagrs
from sagrs import harness

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # @dataclass looks its module up there
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves(monkeypatch):
    spans = load_spans(monkeypatch)
    assert spans.TARGETS
    for target in spans.TARGETS:
        # where Tracer.install looks the name up
        assert target.attr in target.resolve().__dict__, target


def test_jobs_carry_the_keys_perfbench_reads(tmp_path):
    spec = harness.ExperimentSpec(objective="ackley", system="sagrs-lsm", cycles=(2,), pool_size=8,
                                  repetitions=1, out_dir=tmp_path)
    [job] = harness._build_jobs(spec)
    # perfbench/workloads.py indexes these
    assert {key: job[key] for key in ("run_id", "pool_size", "cycles", "suggestions")} == {
        "run_id": "sagrs-lsm_ackley_d2_r1_s4_c2_reset_p8_rep00", "pool_size": 8, "cycles": 2, "suggestions": 4,
    }


def test_top_level_names_perfbench_reads():
    # workloads.py imports these three from the top level ...
    from sagrs import Objective, SagrsConfig, make_objective  # noqa: F401

    # ... and run.py's timed set-up makes every objective through it
    assert all(isinstance(make_objective(name), Objective) for name in sagrs.OBJECTIVE_NAMES)


def test_recommender_reexports_the_exclusion_radius():
    # workloads.py imports EXCLUSION_EPSILON from sagrs.recommender, which reads it nowhere itself
    import sagrs.recommender
    import sagrs.surrogate

    assert sagrs.recommender.EXCLUSION_EPSILON is sagrs.surrogate.EXCLUSION_EPSILON
