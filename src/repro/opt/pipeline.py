"""The composable optimization pipeline: ``optimize(netlist, level=...)``.

Levels (cumulative):

* ``0`` -- no-op: the input netlist is returned untouched.
* ``1`` (default) -- structural hashing + cone-of-influence sweep,
  iterated to a structural fixpoint.  Pure graph rewriting, linear in
  the netlist; this is the level every attack encodes through unless
  told otherwise.
* ``2`` -- level 1 plus SAT sweeping: simulation-proposed equivalences
  confirmed through the incremental solver's assumption API and merged,
  re-running the level-1 fixpoint after each merge round, until a round
  proves nothing new (every proven merge is already a pinned alias) or
  its rebuild reproduces the round's input.

The pipeline pins the whole netlist interface automatically: primary
inputs (hence key inputs), primary outputs, and flip-flop Q/D nets are
never renamed, reordered or removed, so recovered keys and oracle
wirings map back to the original netlist unchanged.  Extra nets can be
pinned with ``pin=``.

``REPRO_OPT_LEVEL`` overrides the default level process-wide; explicit
``level=`` arguments always win.  Every pass reports an
:class:`OptStats` entry (gates before/after, wall time) so callers --
the ``dynunlock opt`` CLI, the opt bench -- can show where the
reduction came from; ``OptStats.converged`` says whether every loop
reached its fixpoint rather than a safety bound.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field

from repro.netlist.gates import GateType
from repro.netlist.netlist import Netlist
from repro.observability import spans as obs
from repro.opt.satsweep import sat_sweep
from repro.opt.structhash import structural_hash
from repro.opt.sweep import sweep

#: The level attacks preprocess with when nothing is specified.
DEFAULT_LEVEL = 1
MAX_LEVEL = 2

#: Safety bounds on fixpoint iteration (reached only by pathological
#: oscillation, which the rewrites are not expected to exhibit); running
#: out clears ``OptStats.converged``.
_MAX_FIXPOINT_ROUNDS = 8
_MAX_SATSWEEP_ROUNDS = 4


def resolve_level(level: int | None) -> int:
    """Normalise an optimization level request.

    ``None`` means "the active default": the ``REPRO_OPT_LEVEL``
    environment variable when set, else :data:`DEFAULT_LEVEL`.
    """
    if level is None:
        env = os.environ.get("REPRO_OPT_LEVEL", "").strip()
        level = int(env) if env else DEFAULT_LEVEL
    level = int(level)
    if not 0 <= level <= MAX_LEVEL:
        raise ValueError(
            f"optimization level must be in 0..{MAX_LEVEL}, got {level}"
        )
    return level


@dataclass(frozen=True)
class PassStats:
    """One pass's contribution: gate delta and wall time."""

    name: str
    gates_before: int
    gates_after: int
    time_s: float
    detail: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "gates_before": self.gates_before,
            "gates_after": self.gates_after,
            "time_s": self.time_s,
            "detail": dict(self.detail),
        }


@dataclass
class OptStats:
    """Whole-pipeline accounting (JSON-safe via :meth:`as_dict`)."""

    level: int
    gates_before: int
    gates_after: int
    time_s: float
    passes: list[PassStats] = field(default_factory=list)
    unused_inputs: list[str] = field(default_factory=list)
    #: False when a fixpoint loop stopped at its safety bound instead.
    converged: bool = True

    @property
    def gates_removed(self) -> int:
        return self.gates_before - self.gates_after

    @property
    def reduction(self) -> float:
        """Fraction of gates removed (0.0 on an empty netlist)."""
        if self.gates_before == 0:
            return 0.0
        return self.gates_removed / self.gates_before

    def as_dict(self) -> dict:
        return {
            "level": self.level,
            "gates_before": self.gates_before,
            "gates_after": self.gates_after,
            "gates_removed": self.gates_removed,
            "reduction": self.reduction,
            "time_s": self.time_s,
            "converged": self.converged,
            "unused_inputs": list(self.unused_inputs),
            "passes": [p.as_dict() for p in self.passes],
        }


@dataclass
class OptResult:
    """The optimized netlist plus the stats that produced it.

    ``level1`` is the level-1 fixpoint a level >= 1 run starts from (the
    result itself at level 1, None at level 0), so one level-2 call
    yields both levels' netlists.
    """

    netlist: Netlist
    stats: OptStats
    level1: Netlist | None = None


def _interface_pins(netlist: Netlist, extra: frozenset[str]) -> frozenset[str]:
    pins = set(extra)
    pins.update(netlist.outputs)
    for dff in netlist.dffs.values():
        pins.add(dff.d)
        pins.add(dff.q)
    return frozenset(pins)


def optimize(
    netlist: Netlist,
    level: int | None = None,
    *,
    pin: tuple[str, ...] = (),
    sat_seed: int = 0xA115,
    sat_max_checks: int = 256,
) -> OptResult:
    """Optimize ``netlist`` at ``level``; see the module docstring.

    The input netlist is never mutated; at level 0 it is returned as-is
    (same object) with empty stats.
    """
    level = resolve_level(level)
    started = time.perf_counter()
    gates_before = netlist.n_gates
    stats = OptStats(
        level=level,
        gates_before=gates_before,
        gates_after=gates_before,
        time_s=0.0,
    )
    if level == 0:
        return OptResult(netlist=netlist, stats=stats)

    pinned = _interface_pins(netlist, frozenset(pin))
    current = level1 = _level1_fixpoint(netlist, pinned, stats)

    if level >= 2:
        current = _satsweep_fixpoint(
            current, pinned, stats, seed=sat_seed, max_checks=sat_max_checks
        )

    stats.gates_after = current.n_gates
    stats.time_s = time.perf_counter() - started
    for record in reversed(stats.passes):
        if record.name == "sweep":
            stats.unused_inputs = list(record.detail.get("unused_inputs", ()))
            break
    if obs.active():
        # One span update per pipeline run; nothing on the per-pass path.
        obs.add_phase("opt", stats.time_s)
        obs.incr("opt_gates_removed", stats.gates_removed)
    return OptResult(netlist=current, stats=stats, level1=level1)


def _level1_fixpoint(
    netlist: Netlist, pinned: frozenset[str], stats: OptStats
) -> Netlist:
    """Iterate structhash + sweep until the gate set stops changing."""
    current = netlist
    for _ in range(_MAX_FIXPOINT_ROUNDS):
        t0 = time.perf_counter()
        hashed, detail = structural_hash(current, pinned)
        stats.passes.append(
            PassStats(
                "structhash",
                current.n_gates,
                hashed.n_gates,
                time.perf_counter() - t0,
                detail,
            )
        )
        t0 = time.perf_counter()
        swept, detail = sweep(hashed, pinned)
        stats.passes.append(
            PassStats(
                "sweep",
                hashed.n_gates,
                swept.n_gates,
                time.perf_counter() - t0,
                detail,
            )
        )
        if swept.gates == current.gates:
            return swept
        current = swept
    stats.converged = False
    return current


def _satsweep_fixpoint(
    netlist: Netlist,
    pinned: frozenset[str],
    stats: OptStats,
    *,
    seed: int,
    max_checks: int,
) -> Netlist:
    """Prove-and-merge rounds until one leaves the netlist unchanged.

    Both stops are exact: ``sat_sweep`` and the rebuild are pure
    functions of the netlist, so a round whose merges are all already
    realised, or whose rebuild reproduces its input, would repeat
    forever.
    """
    current = netlist
    for _ in range(_MAX_SATSWEEP_ROUNDS):
        before = current.n_gates
        t0 = time.perf_counter()
        substitutions, detail = sat_sweep(
            current, pinned, seed=seed, max_checks=max_checks
        )
        stats.passes.append(
            PassStats(
                "satsweep",
                before,
                before,  # merges apply in the rebuild below
                time.perf_counter() - t0,
                detail,
            )
        )
        if all(
            _realised(current, net, value)
            for net, value in substitutions.items()
        ):
            return current
        t0 = time.perf_counter()
        merged, detail = structural_hash(
            current, pinned, substitutions=substitutions
        )
        stats.passes.append(
            PassStats(
                "satsweep-merge",
                before,
                merged.n_gates,
                time.perf_counter() - t0,
                detail,
            )
        )
        rebuilt = _level1_fixpoint(merged, pinned, stats)
        if _same_netlist(rebuilt, current):
            return current
        current = rebuilt
    stats.converged = False
    return current


def _realised(netlist: Netlist, net: str, value: str | int) -> bool:
    """Is the substitution ``net -> value`` already an alias gate?

    The rebuild materialises a merged pinned net as ``BUF(rep)`` or a
    constant gate; merging it again re-creates exactly that gate.
    """
    gate = netlist.gates[net]
    if isinstance(value, int):
        return gate.gtype is (GateType.CONST1 if value else GateType.CONST0)
    return gate.gtype is GateType.BUF and gate.inputs == (value,)


def _same_netlist(a: Netlist, b: Netlist) -> bool:
    """Equal name, interface, flops and gates, all in order."""
    return (
        a.name == b.name
        and a.inputs == b.inputs
        and a.outputs == b.outputs
        and list(a.dffs.values()) == list(b.dffs.values())
        and list(a.gates.values()) == list(b.gates.values())
    )
