"""The tail rule, self-time folding, and the tracer against the program's
own phase timings."""

import random

import pytest

from summary import spread, tail
from tracer import LAYER_NAMES, Tracer, fold, self_times


# ----------------------------------------------------------------------
# tail percentile
# ----------------------------------------------------------------------
@pytest.mark.parametrize("n", [11, 12, 30, 100, 1575])
def test_tail_has_exactly_ten_samples_beyond_it(n):
    samples = random.Random(n).sample(range(10 * n), n)
    value, percentile = tail(samples)
    assert sum(x > value for x in samples) == 10
    assert percentile == pytest.approx(100.0 * (n - 10) / n)


def test_tail_of_one_to_a_hundred_is_p90():
    assert tail(list(range(1, 101))) == (90, 90.0)


def test_tail_is_the_highest_such_percentile():
    # 39 has ten samples above it in 0..49; 40 would leave only nine.
    assert tail(list(range(50))) == (39, 80.0)


def test_tail_needs_more_than_ten_samples():
    with pytest.raises(ValueError):
        tail(list(range(10)))


def test_spread_is_interquartile_distance_over_median():
    assert spread([1.0, 1.0, 1.0, 1.0]) == 0.0
    assert spread([90.0, 95.0, 100.0, 105.0, 110.0]) == pytest.approx(0.15)


# ----------------------------------------------------------------------
# self-time folding
# ----------------------------------------------------------------------
def _span(layer, start, end, parent, unit=0):
    return [layer, start, end, parent, unit]


NESTED = [
    _span("runner.scheduler", 0.0, 10.0, -1),  # 0: the whole unit
    _span("attack.satattack", 1.0, 8.0, 0),  # 1
    _span("sat.solver", 2.0, 5.0, 1),  # 2
    _span("sat.solver", 5.5, 7.0, 1),  # 3
    _span("sat.incremental", 8.5, 9.0, 0),  # 4
    _span("sat.solver", 12.0, 13.0, -1, unit=1),  # 5: next unit, top level
]


def test_self_time_subtracts_direct_children_only():
    assert self_times(NESTED) == pytest.approx([10 - 7 - 0.5, 7 - 3 - 1.5, 3.0, 1.5, 0.5, 1.0])


def test_fold_sums_self_time_per_layer_scaled_by_unit_factor():
    folded = fold(NESTED, {0: 1.0, 1: 0.5})
    assert folded["sat.solver"]["calls"] == 3
    assert folded["sat.solver"]["self_s"] == pytest.approx(3.0 + 1.5 + 0.5)
    assert folded["runner.scheduler"]["self_s"] == pytest.approx(2.5)
    assert folded["attack.satattack"]["self_s"] == pytest.approx(2.5)
    # Self times of a unit add up to the time its top-level spans cover.
    total = sum(folded[name]["self_s"] for name in LAYER_NAMES)
    assert total == pytest.approx(sum(folded[None].values()))
    assert folded[None] == pytest.approx({0: 10.0, 1: 0.5})


# ----------------------------------------------------------------------
# live tracing
# ----------------------------------------------------------------------
def test_uninstall_restores_every_entry_point():
    import repro.core.dynunlock as dynunlock
    from repro.sat.solver import CdclSolver

    solve, model = CdclSolver.solve, dynunlock.build_combinational_model
    tracer = Tracer()
    tracer.install()
    try:
        assert CdclSolver.solve is not solve
        assert dynunlock.build_combinational_model is not model
    finally:
        tracer.uninstall()
    assert CdclSolver.solve is solve
    assert dynunlock.build_combinational_model is model


def test_solver_self_time_matches_the_programs_solve_phase():
    """On one table2_cold step, the wrapper's ``sat.solver`` self time
    outside enumeration agrees with ``repro.observability``'s ``solve``
    phase, which times the same DIP-loop calls from inside the program."""
    from repro.observability import begin_job_span, end_job_span

    import workloads

    workload = workloads.Table2Cold(workloads.WorkCounter())
    tracer = Tracer()
    tracer.unit = 0
    tracer.install()
    span = begin_job_span("bench", "cross-check")
    try:
        step = workload.run(("s15850", 7))
    finally:
        record = end_job_span(span)
        tracer.uninstall()
    assert step.ok

    # The DIP loop's solve calls are the ones SatAttack.run makes itself;
    # enumeration's calls sit under sat.enumerate and are not in the phase.
    spans = tracer.spans
    own = self_times(spans)
    traced = sum(
        own[i]
        for i, (layer, _, _, parent, _) in enumerate(spans)
        if layer == "sat.solver" and parent >= 0 and spans[parent][0] == "attack.satattack"
    )
    phase = record["phases"]["solve"]
    assert phase > 0.1
    assert traced == pytest.approx(phase, rel=0.03)
