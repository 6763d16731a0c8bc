"""Reference seconds: timings corrected for the host's drifting speed.

The benchmark shares its host with other tenants, and a fixed pure-Python
loop on it swings by tens of percent within a minute (README, "Reading
reference seconds").  Every measured unit is therefore bracketed by short
slices of a frozen reference kernel, and its time is reported as

    ref_s = wall_s * NOMINAL_SLICE_S / median(slices before and after it)

so a unit that ran while the host was 20% slow is charged 20% less.  The
median, not the mean: now and then a single 12 ms slice is preempted and
reads 50-65 ms, and one such reading must not rescale a whole unit.  A
reference second is a wall second on a host that runs one kernel slice in
``NOMINAL_SLICE_S``.

The kernel is frozen: editing it, ``SLICE_ROUNDS`` or ``NOMINAL_SLICE_S``
rescales every number the benchmark has ever reported.  It uses list
indexing and small-int arithmetic only and allocates no containers, so it
never triggers the garbage collector and is never charged for garbage the
program under test left behind.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from statistics import median

TABLE_SIZE = 256
SLICE_ROUNDS = 100_000
NOMINAL_SLICE_S = 0.0125
SLICES_PER_READING = 3


def make_table() -> list[int]:
    """The kernel's working list (allocated once, outside any slice)."""
    return [(i * 167) & 255 for i in range(TABLE_SIZE)]


def kernel(table: list[int], rounds: int) -> int:
    """The frozen reference loop; every value it touches stays below 256."""
    acc = 0
    i = 0
    for _ in range(rounds):
        j = table[i]
        acc = (acc + j) & 255
        table[i] = j ^ acc
        i = (i + 97 + acc) & 255
    return acc


def normalise(wall_s: float, slices: list[float]) -> float:
    """``wall_s`` in reference seconds, given the slices taken around it."""
    if not slices or min(slices) <= 0.0:
        raise ValueError("need at least one positive slice reading")
    return wall_s * NOMINAL_SLICE_S / median(slices)


@dataclass
class Timed:
    """One bracketed measurement: raw seconds, slice readings, reference seconds.

    All three are kept so anyone can recompute ``ref_s`` from the artifact.
    """

    wall_s: float
    slices: list[float]
    ref_s: float

    @property
    def factor(self) -> float:
        return self.ref_s / self.wall_s if self.wall_s else 1.0

    def as_dict(self) -> dict:
        return {"wall_s": self.wall_s, "slices_s": self.slices, "ref_s": self.ref_s}


class RefClock:
    """Takes slice readings; consecutive units share the reading between them."""

    def __init__(self) -> None:
        self._table = make_table()
        kernel(self._table, 1000)  # let the interpreter specialise the loop
        self._last: list[float] | None = None
        self.spent = 0.0  # wall seconds spent in slices, not in the program

    def reading(self) -> list[float]:
        """Time ``SLICES_PER_READING`` kernel slices, in raw seconds."""
        out = []
        for _ in range(SLICES_PER_READING):
            start = time.perf_counter()
            kernel(self._table, SLICE_ROUNDS)
            out.append(time.perf_counter() - start)
        self.spent += sum(out)
        return out

    def measure(self, fn, *args):
        """Run ``fn(*args)`` between two readings; returns ``(result, Timed)``."""
        before = self._last if self._last is not None else self.reading()
        start = time.perf_counter()
        result = fn(*args)
        wall = time.perf_counter() - start
        after = self.reading()
        self._last = after
        slices = before + after
        return result, Timed(wall, slices, normalise(wall, slices))

    def forget(self) -> None:
        """Drop the shared reading (after untimed work between units)."""
        self._last = None
