"""Reference-second arithmetic and the reference kernel's no-allocation rule."""

import dis
import gc
import tracemalloc

import pytest

import refclock
from refclock import NOMINAL_SLICE_S, RefClock, Timed, kernel, make_table, normalise


def test_nominal_slices_leave_wall_time_unchanged():
    assert normalise(2.0, [NOMINAL_SLICE_S] * 4) == pytest.approx(2.0)


def test_slow_slices_shrink_reference_time_by_their_median():
    # Kernel ran at 2x and 3x nominal around the unit: median slowdown 2.5x.
    slices = [2 * NOMINAL_SLICE_S, 3 * NOMINAL_SLICE_S]
    assert normalise(5.0, slices) == pytest.approx(2.0)


def test_one_preempted_slice_does_not_rescale_the_unit():
    slices = [NOMINAL_SLICE_S] * 5 + [5 * NOMINAL_SLICE_S]
    assert normalise(3.0, slices) == pytest.approx(3.0)


def test_normalise_rejects_missing_or_bad_readings():
    with pytest.raises(ValueError):
        normalise(1.0, [])
    with pytest.raises(ValueError):
        normalise(1.0, [NOMINAL_SLICE_S, 0.0])


def test_artifact_fields_recompute_the_reference_time():
    _, timed = RefClock().measure(sum, range(1000))
    record = timed.as_dict()
    assert record["ref_s"] == pytest.approx(normalise(record["wall_s"], record["slices_s"]))
    assert len(record["slices_s"]) == 2 * refclock.SLICES_PER_READING
    assert timed.factor == pytest.approx(record["ref_s"] / record["wall_s"])


def test_consecutive_units_share_the_reading_between_them():
    clock = RefClock()
    _, first = clock.measure(sum, range(10))
    _, second = clock.measure(sum, range(10))
    n = refclock.SLICES_PER_READING
    assert first.slices[n:] == second.slices[:n]
    clock.forget()
    _, third = clock.measure(sum, range(10))
    assert third.slices[:n] != second.slices[n:]


def test_timed_factor_of_an_empty_unit_is_one():
    assert Timed(0.0, [NOMINAL_SLICE_S], 0.0).factor == 1.0


def test_kernel_bytecode_builds_no_containers():
    ops = {ins.opname for ins in dis.get_instructions(kernel)}
    assert not {op for op in ops if op.startswith(("BUILD_", "LIST_", "DICT_", "SET_", "MAP_"))}
    assert "MAKE_FUNCTION" not in ops
    called = [ins.argval for ins in dis.get_instructions(kernel) if ins.opname == "LOAD_GLOBAL"]
    assert called == ["range"]


def test_kernel_allocates_no_container():
    # One pinned container keeps the generation-0 count at the threshold,
    # so a single container allocated inside the kernel -- even one freed
    # again at once -- starts a collection and fires the callback.
    table = make_table()
    kernel(table, 1000)
    seen = []

    def on_gc(phase, info):
        seen.append(phase)

    threshold = gc.get_threshold()
    gc.callbacks.append(on_gc)
    try:
        gc.collect()
        seen.clear()
        pinned = []  # noqa: F841
        gc.set_threshold(1)
        kernel(table, 50_000)
        gc.set_threshold(*threshold)
    finally:
        gc.set_threshold(*threshold)
        gc.callbacks.remove(on_gc)
    assert seen == []


def test_kernel_leaves_no_memory_behind():
    table = make_table()
    kernel(table, 1000)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        kernel(table, 50_000)
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert current - before <= 256
    assert peak - before < 1024


def test_kernel_values_stay_small_ints():
    table = make_table()
    kernel(table, 10_000)
    assert len(table) == refclock.TABLE_SIZE
    assert all(0 <= v < 256 for v in table)
