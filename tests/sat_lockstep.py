"""Run the native and the Python SAT kernel in lock-step.

:class:`LockstepKernel` has the kernel API that
:class:`repro.sat.solver.CdclSolver` drives.  It forwards every call to a
:class:`~repro.sat.native.NativeKernel` and to a
:class:`~repro.sat.pykernel.PythonKernel` oracle, and fails the moment
the two disagree on a return value, a model, a core, ``n_vars`` or any
search counter.  The native kernel's results are the ones returned, so
the program under test runs on the kernel it ships with.

:func:`use_kernel` points :func:`repro.sat.solver.default_kernel` at a
kernel class for the duration of a test.
"""

from __future__ import annotations

import contextlib
from dataclasses import astuple

from repro.sat import solver as solver_module
from repro.sat.native import NativeKernel
from repro.sat.pykernel import PythonKernel
from repro.sat.solver import SolverStats

COUNTERS = ("decisions", "propagations", "conflicts", "restarts", "learned", "deleted")


def counters(stats: SolverStats) -> tuple[int, ...]:
    return tuple(getattr(stats, name) for name in COUNTERS)


class LockstepKernel:
    #: Every instance made while installed, so tests can count the calls.
    instances: list["LockstepKernel"] = []

    def __init__(self, stats, var_decay, restart_base, reduce_base):
        self.native = NativeKernel(stats, var_decay, restart_base, reduce_base)
        self.oracle = PythonKernel(SolverStats(), var_decay, restart_base, reduce_base)
        self.calls = 0
        LockstepKernel.instances.append(self)

    def _both(self, method: str, *args):
        outcomes = []
        for kernel in (self.native, self.oracle):
            try:
                outcomes.append(("ok", getattr(kernel, method)(*args)))
            except ValueError as exc:
                outcomes.append(("raised", str(exc)))
        self.calls += 1
        native, oracle = outcomes
        where = f"call #{self.calls} ({method})"
        assert native == oracle, f"{where}: native {native!r} != python {oracle!r}"
        assert counters(self.native.stats) == counters(self.oracle.stats), (
            f"{where}: native {astuple(self.native.stats)} != "
            f"python {astuple(self.oracle.stats)}"
        )
        assert self.native.n_vars == self.oracle.n_vars, where
        if native[0] == "raised":
            raise ValueError(native[1])
        return native[1]

    @property
    def n_vars(self) -> int:
        return self.native.n_vars

    def new_var(self) -> int:
        return self._both("new_var")

    def add_clause(self, lits) -> bool:
        return self._both("add_clause", list(lits))

    def add_clauses(self, max_var, clauses) -> None:
        self._both("add_clauses", max_var, list(clauses))

    def solve(self, assumptions, max_conflicts, timeout_s):
        return self._both("solve", assumptions, max_conflicts, timeout_s)


@contextlib.contextmanager
def use_kernel(kernel_class: type):
    """Make every solver created inside the block use ``kernel_class``."""
    previous = solver_module.default_kernel
    solver_module.default_kernel = lambda: kernel_class
    LockstepKernel.instances = []
    try:
        yield
    finally:
        solver_module.default_kernel = previous
