"""A conflict-driven clause-learning (CDCL) SAT solver.

This is a from-scratch replacement for the lingeling solver the paper
used.  It implements the standard modern architecture:

* two-literal watching for unit propagation;
* VSIDS-style variable activities with a lazy max-heap;
* first-UIP conflict analysis with cheap clause minimisation;
* non-chronological backjumping;
* Luby-sequence restarts;
* learned-clause database reduction;
* incremental use: clauses may be added between ``solve`` calls, and each
  call may carry a list of assumption literals.

:class:`CdclSolver` is the public face; the search runs in a *kernel*.
The native kernel (:mod:`repro.sat.native`, C through ``ctypes``) is used
whenever the system compiler can build it; otherwise the pure-Python
kernel (:mod:`repro.sat.pykernel`) runs.  Both walk the same search tree
call for call, so answers, models, cores and counters do not depend on
which one a process got.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from repro.sat import native
from repro.sat.cnf import Cnf
from repro.sat.pykernel import PythonKernel, _luby  # noqa: F401  (re-exported)


class SolverError(RuntimeError):
    """The solver produced an answer that failed its own check."""


@dataclass
class SolverStats:
    """Cumulative search counters across all solve calls."""
    decisions: int = 0
    propagations: int = 0
    conflicts: int = 0
    restarts: int = 0
    learned: int = 0
    deleted: int = 0
    solve_calls: int = 0
    solve_time: float = 0.0


@dataclass
class SolveResult:
    """Outcome of one ``solve`` call.

    On UNSAT answers reached under assumptions, ``core`` holds a subset
    of the assumption literals that is already jointly inconsistent with
    the formula (the *failed assumptions*); it is ``[]`` when the formula
    is unsatisfiable regardless of assumptions.
    """

    satisfiable: bool | None  # None means resource limit reached
    model: list[int] | None = None  # index 0 unused; values 0/1
    stats: SolverStats = field(default_factory=SolverStats)
    core: list[int] | None = None  # failed assumptions (DIMACS), UNSAT only

    def value(self, var: int) -> int:
        if self.model is None:
            raise RuntimeError("no model available")
        return self.model[var]


def default_kernel() -> type:
    """The kernel class new solvers use: native when it builds, else Python."""
    return native.NativeKernel if native.load() is not None else PythonKernel


class CdclSolver:
    """Incremental CDCL solver.

    ``var_decay``, ``restart_base`` and ``reduce_base`` expose the usual
    heuristic knobs (VSIDS decay, Luby restart unit, learned-DB budget);
    the defaults behave well on the locked-circuit instances this project
    generates.  ``stats`` is refreshed after every call.
    """

    def __init__(
        self,
        cnf: Cnf | None = None,
        var_decay: float = 0.95,
        restart_base: int = 128,
        reduce_base: int = 4000,
    ):
        self.stats = SolverStats()
        kernel = default_kernel()
        self._kernel = kernel(self.stats, var_decay, restart_base, reduce_base)
        if cnf is not None:
            self.add_cnf(cnf)

    @property
    def n_vars(self) -> int:
        return self._kernel.n_vars

    def new_var(self) -> int:
        return self._kernel.new_var()

    def add_cnf(self, cnf: Cnf) -> None:
        self._kernel.add_flat(cnf.n_vars, cnf.lits)

    def add_clause(self, lits: Sequence[int]) -> bool:
        """Add a clause of DIMACS literals.

        Must be called at decision level 0 (between solve calls this always
        holds).  Returns False when the formula became trivially UNSAT.
        """
        return self._kernel.add_clause(lits)

    def solve(
        self,
        assumptions: Iterable[int] = (),
        max_conflicts: int | None = None,
        timeout_s: float | None = None,
    ) -> SolveResult:
        """Search for a model; returns a :class:`SolveResult`.

        ``satisfiable`` is None when ``max_conflicts``/``timeout_s`` was
        exhausted before an answer was reached.
        """
        started = time.perf_counter()
        self.stats.solve_calls += 1
        satisfiable, model, core = self._kernel.solve(
            list(assumptions), max_conflicts, timeout_s
        )
        self.stats.solve_time += time.perf_counter() - started
        return SolveResult(satisfiable, model=model, stats=self.stats, core=core)

    # ------------------------------------------------------------------
    # convenience
    # ------------------------------------------------------------------
    def solve_cnf(self, cnf: Cnf, **kwargs) -> SolveResult:
        self.add_cnf(cnf)
        return self.solve(**kwargs)
