"""SAT substrate: CNF containers, circuit-to-CNF encoding, CDCL solver.

The paper runs the Subramanyan et al. SAT attack on top of the lingeling
solver.  Neither is available here, so this package implements the whole
stack from scratch:

* :mod:`repro.sat.cnf` — clause container with DIMACS import/export;
* :mod:`repro.sat.tseitin` — Tseitin encoding of netlists into CNF, with
  per-netlist compiled templates (:func:`encoding_for`) so repeated
  copies stamp in O(clauses) integer translation;
* :mod:`repro.sat.solver` — a conflict-driven clause-learning (CDCL)
  solver with two-literal watching, VSIDS decisions, phase saving, 1-UIP
  learning, Luby restarts, LBD-ranked learned-clause reduction and
  failed-assumption cores; its search runs in the C kernel of
  :mod:`repro.sat.native` when the system compiler can build it, else in
  the identical pure-Python kernel of :mod:`repro.sat.pykernel`;
* :mod:`repro.sat.incremental` — the session API
  (:class:`IncrementalSolver`): persistent ``add_clause`` /
  ``solve(assumptions=...)`` with activation-literal clause groups;
* :mod:`repro.sat.enumerate` — projected model enumeration via blocking
  clauses (used to count seed candidates).
"""

from repro.sat.cnf import Cnf, lit_of, var_of, is_negative
from repro.sat.tseitin import (
    CircuitEncoder,
    NetlistEncoding,
    compile_encoding,
    encoding_for,
)
from repro.sat.solver import CdclSolver, SolveResult, SolverError, SolverStats
from repro.sat.incremental import IncrementalSolver
from repro.sat.enumerate import enumerate_models
from repro.sat.preprocess import preprocess, PreprocessResult

__all__ = [
    "preprocess",
    "PreprocessResult",
    "Cnf",
    "lit_of",
    "var_of",
    "is_negative",
    "CircuitEncoder",
    "NetlistEncoding",
    "compile_encoding",
    "encoding_for",
    "CdclSolver",
    "IncrementalSolver",
    "SolveResult",
    "SolverError",
    "SolverStats",
    "enumerate_models",
]
