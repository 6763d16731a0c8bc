"""The pure-Python CDCL search kernel.

This is the reference implementation of the search that
:class:`repro.sat.solver.CdclSolver` runs: two-literal watching,
first-UIP analysis with cheap minimisation, VSIDS over a lazy heap,
LBD-ranked learned-clause reduction and Luby restarts.  The native
kernel (``_kernel.c``) ports it line for line; this one is the fallback
when no C compiler is available and the oracle the differential tests
run it against, call by call.

Literal encoding (internal): variable ``v`` (1-based) maps to codes
``2*v`` (positive) and ``2*v + 1`` (negative); ``code ^ 1`` negates.
Public APIs use DIMACS-signed literals.  Like the native kernel, this
one keeps every added clause as given, 0-terminated in one flat stream,
and checks each SAT model against that stream before returning it.
"""

from __future__ import annotations

import re
import time
from array import array
from heapq import heappush, heappop
from itertools import islice
from typing import TYPE_CHECKING, Sequence

if TYPE_CHECKING:
    from repro.sat.solver import SolverStats

_UNASSIGNED = -1

# Model check: a variable's value byte (3 = beyond the model) mapped to the
# truth of its positive and its negative literal.
_POSITIVE = bytes.maketrans(b"\x00\x01\x03", b"\x00\x01\x00")
_NEGATIVE = bytes.maketrans(b"\x00\x01\x03", b"\x01\x00\x00")
# A clause with no true literal, in the per-literal truth bytes of the
# stream where 2 marks a terminator.
_FALSIFIED = re.compile(rb"(?:^|\x02)\x00*\x02")


class _Clause:
    """Internal clause representation; lits are internal codes.

    ``lbd`` (literal block distance, the number of distinct decision
    levels in the clause when it was learned) ranks learned clauses for
    database reduction: low-LBD "glue" clauses are kept forever.
    """

    __slots__ = ("lits", "learnt", "deleted", "lbd")

    def __init__(self, lits: list[int], learnt: bool, lbd: int = 0):
        self.lits = lits
        self.learnt = learnt
        self.deleted = False
        self.lbd = lbd


class PythonKernel:
    """CDCL search state and loop; counters go to the shared ``stats``."""

    def __init__(
        self,
        stats: SolverStats,
        var_decay: float,
        restart_base: int,
        reduce_base: int,
    ):
        self.n_vars = 0
        self._learnts: list[_Clause] = []
        self._watches: list[list[_Clause]] = [[], []]  # index by lit code
        self._assign: list[int] = [_UNASSIGNED]
        self._level: list[int] = [0]
        self._reason: list[_Clause | None] = [None]
        self._phase: list[int] = [0]
        self._activity: list[float] = [0.0]
        self._heap: list[tuple[float, int]] = []
        self._in_heap: list[bool] = [False]
        self._var_inc = 1.0
        self._var_decay = 1.0 / var_decay
        self._restart_base = restart_base
        self._reduce_base = reduce_base
        self._trail: list[int] = []
        self._trail_lim: list[int] = []
        self._qhead = 0
        self._ok = True  # False once a top-level conflict is derived
        self._orig = array("i")  # every added clause as given, 0-terminated
        # Largest variable named in _orig: a clause dropped as a tautology
        # or as satisfied may name variables the search never created.
        self._orig_max_var = 0
        self.stats = stats

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def new_var(self) -> int:
        self.n_vars += 1
        self._assign.append(_UNASSIGNED)
        self._level.append(0)
        self._reason.append(None)
        self._phase.append(0)
        self._activity.append(0.0)
        self._in_heap.append(False)
        self._watches.append([])
        self._watches.append([])
        self._push_heap(self.n_vars)
        return self.n_vars

    def ensure_vars(self, max_var: int) -> None:
        while self.n_vars < max_var:
            self.new_var()

    def add_flat(self, max_var: int, lits: array, start: int = 0) -> None:
        """Add the 0-terminated clauses ``lits[start:]``, split at each 0."""
        if len(lits) > start and lits[-1] != 0:
            raise ValueError("a clause stream must end in 0")
        self.ensure_vars(max_var)
        clause: list[int] = []
        for lit in islice(lits, start, None):
            if lit:
                clause.append(lit)
            else:
                self.add_clause(clause)
                clause = []

    def add_clause(self, lits: Sequence[int]) -> bool:
        """Add a clause of DIMACS literals.

        Must be called at decision level 0 (between solve calls this always
        holds).  Returns False when the formula became trivially UNSAT.
        """
        if not self._ok:
            return False
        if 0 in lits:
            raise ValueError("literal 0 is not allowed")
        if self._trail_lim:
            self._backtrack(0)
        self._orig.extend(lits)
        self._orig.append(0)
        self._orig_max_var = max(self._orig_max_var, max(map(abs, lits), default=0))

        codes: list[int] = []
        seen: set[int] = set()
        for lit in lits:
            var = abs(lit)
            self.ensure_vars(var)
            code = (var << 1) | (1 if lit < 0 else 0)
            if code ^ 1 in seen:
                return True  # tautology
            if code in seen:
                continue
            value = self._value(code)
            if value == 1 and self._level[var] == 0:
                return True  # already satisfied at top level
            if value == 0 and self._level[var] == 0:
                continue  # falsified at top level; drop the literal
            seen.add(code)
            codes.append(code)

        if not codes:
            self._ok = False
            return False
        if len(codes) == 1:
            if not self._enqueue(codes[0], None):
                self._ok = False
                return False
            self._ok = self._propagate() is None
            return self._ok
        clause = _Clause(codes, learnt=False)
        self._watches[codes[0]].append(clause)
        self._watches[codes[1]].append(clause)
        return True

    def check_model(self, model: Sequence[int]) -> int:
        """Index of the first added clause ``model`` falsifies, or -1.

        ``model[v]`` is 0/1; variables at or beyond ``len(model)`` satisfy
        neither of their literals.
        """
        width = max(self.n_vars, self._orig_max_var)
        values = bytes(model[1:]) + b"\x03" * (width + 1 - len(model))
        # truth[l] for a DIMACS literal l, negative l indexing from the end.
        truth = (
            b"\x02" + values.translate(_POSITIVE) + values[::-1].translate(_NEGATIVE)
        )
        marks = bytes(map(truth.__getitem__, self._orig))
        falsified = _FALSIFIED.search(marks)
        if falsified is None:
            return -1
        return marks.count(2, 0, falsified.end() - 1)

    def _model(self) -> list[int]:
        """The current full assignment, unassigned variables as 0."""
        return [0] + [max(a, 0) for a in islice(self._assign, 1, None)]

    # ------------------------------------------------------------------
    # values / trail
    # ------------------------------------------------------------------
    def _value(self, code: int) -> int:
        a = self._assign[code >> 1]
        if a == _UNASSIGNED:
            return _UNASSIGNED
        return a ^ (code & 1)

    def _enqueue(self, code: int, reason: _Clause | None) -> bool:
        value = self._value(code)
        if value != _UNASSIGNED:
            return value == 1
        var = code >> 1
        self._assign[var] = 1 - (code & 1)
        self._level[var] = len(self._trail_lim)
        self._reason[var] = reason
        self._phase[var] = self._assign[var]
        self._trail.append(code)
        return True

    def _backtrack(self, target_level: int) -> None:
        if len(self._trail_lim) <= target_level:
            return
        boundary = self._trail_lim[target_level]
        for code in reversed(self._trail[boundary:]):
            var = code >> 1
            self._assign[var] = _UNASSIGNED
            self._reason[var] = None
            if not self._in_heap[var]:
                self._push_heap(var)
        del self._trail[boundary:]
        del self._trail_lim[target_level:]
        self._qhead = len(self._trail)

    # ------------------------------------------------------------------
    # propagation
    # ------------------------------------------------------------------
    def _propagate(self) -> _Clause | None:
        # Hot path: attribute lookups hoisted, literal values inlined.
        trail = self._trail
        watches = self._watches
        assign = self._assign
        level = self._level
        reason = self._reason
        phase = self._phase
        trail_append = trail.append
        current_level = len(self._trail_lim)
        props = 0
        while self._qhead < len(trail):
            p_true = trail[self._qhead]
            self._qhead += 1
            props += 1
            falsified = p_true ^ 1
            watch_list = watches[falsified]
            kept: list[_Clause] = []
            kept_append = kept.append
            i = 0
            n = len(watch_list)
            conflict: _Clause | None = None
            while i < n:
                clause = watch_list[i]
                i += 1
                if clause.deleted:
                    continue
                lits = clause.lits
                # Normalise: watched literals sit at positions 0 and 1.
                if lits[0] == falsified:
                    lits[0], lits[1] = lits[1], lits[0]
                other = lits[0]
                a = assign[other >> 1]
                if a >= 0 and (a ^ (other & 1)) == 1:
                    kept_append(clause)
                    continue
                # Look for a replacement watch.
                replaced = False
                for k in range(2, len(lits)):
                    lk = lits[k]
                    ak = assign[lk >> 1]
                    if ak < 0 or (ak ^ (lk & 1)) == 1:
                        lits[1], lits[k] = lk, lits[1]
                        watches[lk].append(clause)
                        replaced = True
                        break
                if replaced:
                    continue
                # No replacement: clause is unit or conflicting.
                kept_append(clause)
                if a < 0:
                    # Enqueue `other` with this clause as reason.
                    var = other >> 1
                    value_bit = 1 - (other & 1)
                    assign[var] = value_bit
                    level[var] = current_level
                    reason[var] = clause
                    phase[var] = value_bit
                    trail_append(other)
                else:
                    conflict = clause
                    # Keep remaining watchers untouched.
                    kept.extend(c for c in watch_list[i:] if not c.deleted)
                    break
            watches[falsified] = kept
            if conflict is not None:
                self._qhead = len(trail)
                self.stats.propagations += props
                return conflict
        self.stats.propagations += props
        return None

    # ------------------------------------------------------------------
    # conflict analysis
    # ------------------------------------------------------------------
    def _analyze(self, conflict: _Clause) -> tuple[list[int], int]:
        """First-UIP analysis; returns (learnt clause codes, backjump level).

        ``learnt[0]`` is the asserting literal.
        """
        current_level = len(self._trail_lim)
        seen = bytearray(self.n_vars + 1)
        learnt: list[int] = [0]
        counter = 0
        p = -1
        reason_lits = conflict.lits
        index = len(self._trail) - 1

        while True:
            for q in reason_lits:
                if q == p:
                    continue
                var = q >> 1
                if not seen[var] and self._level[var] > 0:
                    seen[var] = 1
                    self._bump_var(var)
                    if self._level[var] >= current_level:
                        counter += 1
                    else:
                        learnt.append(q)
            # Walk the trail back to the next marked variable.
            while not seen[self._trail[index] >> 1]:
                index -= 1
            p = self._trail[index]
            index -= 1
            var = p >> 1
            seen[var] = 0
            counter -= 1
            if counter == 0:
                learnt[0] = p ^ 1
                break
            reason = self._reason[var]
            assert reason is not None, "non-decision must have a reason"
            reason_lits = reason.lits

        # Mark remaining literals for the minimisation pass.
        for q in learnt[1:]:
            seen[q >> 1] = 1
        minimised = [learnt[0]]
        for q in learnt[1:]:
            if not self._redundant(q, seen):
                minimised.append(q)
        learnt = minimised

        # Compute backjump level and place its literal at position 1.
        back_level = 0
        if len(learnt) > 1:
            max_idx = 1
            for idx in range(1, len(learnt)):
                if self._level[learnt[idx] >> 1] > self._level[learnt[max_idx] >> 1]:
                    max_idx = idx
            learnt[1], learnt[max_idx] = learnt[max_idx], learnt[1]
            back_level = self._level[learnt[1] >> 1]
        return learnt, back_level

    def _analyze_final(self, failed_code: int) -> list[int]:
        """Assumption core of a failed assumption (MiniSat's analyzeFinal).

        ``failed_code`` is an assumption literal whose negation is implied
        by the formula plus earlier assumptions.  Walks the implication
        graph backwards from it and collects the assumption decisions the
        derivation actually used; returns them (including the failed
        literal itself) as DIMACS literals.
        """
        core_codes = [failed_code]
        if self._trail_lim:
            seen = bytearray(self.n_vars + 1)
            seen[failed_code >> 1] = 1
            level = self._level
            reason_of = self._reason
            for idx in range(len(self._trail) - 1, self._trail_lim[0] - 1, -1):
                p = self._trail[idx]
                var = p >> 1
                if not seen[var]:
                    continue
                seen[var] = 0
                reason = reason_of[var]
                if reason is None:
                    # An assumption decision this derivation used.  (When
                    # p == failed_code^1 both polarities were assumed and
                    # the opposite assumption is the whole core.)
                    core_codes.append(p)
                else:
                    for q in reason.lits:
                        if level[q >> 1] > 0:
                            seen[q >> 1] = 1
        return [
            -(code >> 1) if code & 1 else (code >> 1) for code in core_codes
        ]

    def _redundant(self, code: int, seen: bytearray) -> bool:
        """Cheap (non-recursive) literal redundancy test."""
        reason = self._reason[code >> 1]
        if reason is None:
            return False
        for q in reason.lits:
            var = q >> 1
            if var == code >> 1:
                continue
            if not seen[var] and self._level[var] > 0:
                return False
        return True

    def _record_learnt(self, learnt: list[int]) -> None:
        if len(learnt) == 1:
            ok = self._enqueue(learnt[0], None)
            assert ok, "asserting unit must be enqueueable after backjump"
            return
        level = self._level
        lbd = len({level[code >> 1] for code in learnt})
        clause = _Clause(learnt, learnt=True, lbd=lbd)
        self._learnts.append(clause)
        self.stats.learned += 1
        self._watches[learnt[0]].append(clause)
        self._watches[learnt[1]].append(clause)
        ok = self._enqueue(learnt[0], clause)
        assert ok, "asserting literal must be enqueueable after backjump"

    # ------------------------------------------------------------------
    # decision heuristics
    # ------------------------------------------------------------------
    def _bump_var(self, var: int) -> None:
        self._activity[var] += self._var_inc
        if self._activity[var] > 1e100:
            for v in range(1, self.n_vars + 1):
                self._activity[v] *= 1e-100
            self._var_inc *= 1e-100
        if not self._in_heap[var]:
            self._push_heap(var)
        else:
            heappush(self._heap, (-self._activity[var], var))

    def _push_heap(self, var: int) -> None:
        heappush(self._heap, (-self._activity[var], var))
        self._in_heap[var] = True

    def _pick_branch_var(self) -> int | None:
        while self._heap:
            neg_act, var = heappop(self._heap)
            if self._assign[var] == _UNASSIGNED and -neg_act == self._activity[var]:
                self._in_heap[var] = False
                return var
            if self._assign[var] == _UNASSIGNED and -neg_act != self._activity[var]:
                continue  # stale entry; a fresher one exists
            if self._assign[var] != _UNASSIGNED:
                self._in_heap[var] = False
        # Heap exhausted (or only stale entries left): linear scan.
        for var in range(1, self.n_vars + 1):
            if self._assign[var] == _UNASSIGNED:
                return var
        return None

    # ------------------------------------------------------------------
    # learned clause reduction
    # ------------------------------------------------------------------
    def _reduce_db(self) -> None:
        """Drop the worst half of the learned clauses.

        Ranking is by literal block distance, then clause size (glue-style
        heuristics): binary and LBD<=2 clauses are kept unconditionally,
        as are clauses currently locked as a propagation reason.
        """
        locked = set()
        for var in range(1, self.n_vars + 1):
            reason = self._reason[var]
            if reason is not None and reason.learnt:
                locked.add(id(reason))
        candidates = [c for c in self._learnts if not c.deleted]
        ranked = sorted(candidates, key=lambda c: (c.lbd, len(c.lits)))
        removed = 0
        for clause in ranked[len(ranked) // 2 :]:
            if (
                clause.lbd <= 2
                or len(clause.lits) <= 2
                or id(clause) in locked
            ):
                continue
            clause.deleted = True
            removed += 1
        self._learnts = [c for c in candidates if not c.deleted]
        self.stats.deleted += removed

    # ------------------------------------------------------------------
    # main search
    # ------------------------------------------------------------------
    def solve(
        self,
        assumptions: Sequence[int],
        max_conflicts: int | None,
        timeout_s: float | None,
    ) -> tuple[bool | None, list[int] | None, list[int] | None]:
        """Search; returns ``(satisfiable, model, core)``.

        ``satisfiable`` is None when ``max_conflicts``/``timeout_s`` was
        exhausted before an answer was reached.
        """
        started = time.perf_counter()
        if not self._ok:
            return False, None, []

        assumption_codes: list[int] = []
        for lit in assumptions:
            var = abs(lit)
            if var == 0:
                raise ValueError("literal 0 is not allowed")
            self.ensure_vars(var)
            assumption_codes.append((var << 1) | (1 if lit < 0 else 0))

        self._backtrack(0)
        if self._propagate() is not None:
            self._ok = False
            return False, None, []

        conflicts_here = 0
        luby_index = 1
        restart_base = self._restart_base
        restart_budget = restart_base * _luby(luby_index)
        conflicts_since_restart = 0
        reduce_budget = self._reduce_base

        while True:
            conflict = self._propagate()
            if conflict is not None:
                self.stats.conflicts += 1
                conflicts_here += 1
                conflicts_since_restart += 1
                if not self._trail_lim:
                    self._ok = False
                    return False, None, []
                learnt, back_level = self._analyze(conflict)
                self._backtrack(back_level)
                self._record_learnt(learnt)
                self._var_inc *= self._var_decay
                if max_conflicts is not None and conflicts_here >= max_conflicts:
                    self._backtrack(0)
                    return None, None, None
                if timeout_s is not None and (
                    conflicts_here % 64 == 0
                    and time.perf_counter() - started > timeout_s
                ):
                    self._backtrack(0)
                    return None, None, None
                if len(self._learnts) > reduce_budget:
                    self._reduce_db()
                    reduce_budget += 1000
                if conflicts_since_restart >= restart_budget:
                    self.stats.restarts += 1
                    luby_index += 1
                    restart_budget = restart_base * _luby(luby_index)
                    conflicts_since_restart = 0
                    self._backtrack(0)
                continue

            # Assumption handling: decide the first unassigned assumption.
            decided_assumption = False
            for code in assumption_codes:
                value = self._value(code)
                if value == 0:
                    core = self._analyze_final(code)
                    self._backtrack(0)
                    return False, None, core
                if value == _UNASSIGNED:
                    self._trail_lim.append(len(self._trail))
                    self._enqueue(code, None)
                    decided_assumption = True
                    break
            if decided_assumption:
                continue

            var = self._pick_branch_var()
            if var is None:
                model = self._model()
                self._backtrack(0)
                bad = self.check_model(model)
                if bad >= 0:
                    from repro.sat.solver import SolverError

                    raise SolverError(
                        f"python kernel model falsifies added clause #{bad}"
                    )
                return True, model, None
            self.stats.decisions += 1
            self._trail_lim.append(len(self._trail))
            code = (var << 1) | (1 - self._phase[var])
            self._enqueue(code, None)


def _luby(i: int) -> int:
    """The Luby restart sequence 1,1,2,1,1,2,4,..."""
    k = 1
    while (1 << (k + 1)) - 1 <= i:
        k += 1
    while i > (1 << k) - 1:
        i -= (1 << k) - 1
        k = 1
        while (1 << (k + 1)) - 1 <= i:
            k += 1
    return 1 << (k - 1) if k > 0 else 1
