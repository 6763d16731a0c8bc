"""CNF formula container and DIMACS serialisation.

Literals follow the DIMACS convention: non-zero signed integers, where
``+v`` is the positive literal of variable ``v`` (variables are 1-based)
and ``-v`` its negation.
"""

from __future__ import annotations

from array import array
from pathlib import Path
from typing import Iterable, Sequence


def lit_of(var: int, positive: bool = True) -> int:
    """Build a literal from a variable index."""
    if var <= 0:
        raise ValueError("variables are 1-based positive integers")
    return var if positive else -var


def var_of(lit: int) -> int:
    """Variable index of a literal."""
    if lit == 0:
        raise ValueError("0 is not a literal")
    return abs(lit)


def is_negative(lit: int) -> bool:
    """True when the literal is a negated variable."""
    return lit < 0


class Cnf:
    """A growable CNF formula stored as one flat clause stream.

    ``lits`` holds every clause's literals followed by a 0 terminator, in
    an ``array('i')`` -- the layout the SAT kernels read, so a formula
    reaches the solver without a per-clause copy.  Tracks the highest
    variable used; fresh-variable allocation goes through
    :meth:`new_var` so encoders can interleave with manually numbered
    variables safely.
    """

    def __init__(self, n_vars: int = 0):
        self.n_vars = n_vars
        self.lits = array("i")
        self.n_clauses = 0

    def new_var(self) -> int:
        self.n_vars += 1
        return self.n_vars

    def new_vars(self, count: int) -> list[int]:
        return [self.new_var() for _ in range(count)]

    def add_clause(self, lits: Sequence[int]) -> None:
        clause = array("i", lits)
        n_vars = self.n_vars
        for lit in clause:
            if not lit:
                raise ValueError("literal 0 is not allowed")
            if lit > n_vars:
                n_vars = lit
            elif -lit > n_vars:
                n_vars = -lit
        self.n_vars = n_vars
        clause.append(0)
        self.lits.extend(clause)
        self.n_clauses += 1

    def add_clauses(self, clauses: Iterable[Sequence[int]]) -> None:
        for clause in clauses:
            self.add_clause(clause)

    def add_units(self, lits: Iterable[int]) -> None:
        """Add one unit clause per literal."""
        units = array("i", lits)
        if units:
            if 0 in units:
                raise ValueError("literal 0 is not allowed")
            self.n_vars = max(self.n_vars, max(units), -min(units))
        stream = array("i", bytes(2 * units.itemsize * len(units)))
        stream[::2] = units
        self.lits.extend(stream)
        self.n_clauses += len(units)

    def extend(self, other: "Cnf") -> None:
        """Append another formula (same variable namespace)."""
        self.n_vars = max(self.n_vars, other.n_vars)
        self.lits.extend(other.lits)
        self.n_clauses += other.n_clauses

    @property
    def clauses(self) -> tuple[tuple[int, ...], ...]:
        """The clauses as tuples: a read-only copy of the stream."""
        clauses = []
        clause: list[int] = []
        for lit in self.lits:
            if lit:
                clause.append(lit)
            else:
                clauses.append(tuple(clause))
                clause = []
        return tuple(clauses)

    # -- DIMACS -----------------------------------------------------------
    def to_dimacs(self) -> str:
        lines = [f"p cnf {self.n_vars} {self.n_clauses}"]
        for clause in self.clauses:
            lines.append(" ".join(str(l) for l in clause) + " 0")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_dimacs(cls, text: str) -> "Cnf":
        """Parse DIMACS CNF.

        Literals form one token stream split at 0, so a clause may span
        lines or share a line with others.  A clause missing its final 0,
        or a clause count that disagrees with the ``p cnf`` header, is an
        error.
        """
        cnf = cls()
        header: tuple[int, int] | None = None
        stream = array("i")
        for raw in text.splitlines():
            line = raw.strip()
            if not line or line.startswith("c"):
                continue
            if line.startswith("p"):
                parts = line.split()
                if header is not None or len(parts) != 4 or parts[1] != "cnf":
                    raise ValueError(f"bad problem line: {line!r}")
                header = (int(parts[2]), int(parts[3]))
                continue
            stream.extend(int(tok) for tok in line.split())
        if stream and stream[-1] != 0:
            raise ValueError("the last clause is not terminated by 0")
        if stream:
            cnf.n_vars = max(max(stream), -min(stream))
        cnf.lits = stream
        cnf.n_clauses = stream.count(0)
        if header is not None:
            declared_vars, declared_clauses = header
            if declared_clauses != cnf.n_clauses:
                raise ValueError(
                    f"header declares {declared_clauses} clauses, found {cnf.n_clauses}"
                )
            cnf.n_vars = max(cnf.n_vars, declared_vars)
        return cnf

    def save(self, path: str | Path) -> None:
        Path(path).write_text(self.to_dimacs())

    @classmethod
    def load(cls, path: str | Path) -> "Cnf":
        return cls.from_dimacs(Path(path).read_text())

    def evaluate(self, assignment: Sequence[int]) -> bool:
        """Check a full assignment (index 0 unused; values 0/1)."""
        satisfied = False
        for lit in self.lits:
            if not lit:
                if not satisfied:
                    return False
                satisfied = False
            elif not satisfied:
                value = assignment[abs(lit)]
                satisfied = value == 1 if lit > 0 else value == 0
        return True

    def __repr__(self) -> str:
        return f"Cnf(vars={self.n_vars}, clauses={self.n_clauses})"
