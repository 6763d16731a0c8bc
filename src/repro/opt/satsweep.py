"""SAT sweeping: prove and merge functionally equivalent nets.

The classic ABC-style loop, built from parts this repo already trusts:

1. **Propose** -- drive the netlist with rounds of 64 random packed
   lanes through :class:`~repro.sim.logicsim.BitParallelSimulator`;
   nets with identical simulation signatures are *candidate* equivalent
   (and all-zero / all-one signatures propose candidate constants).
2. **Confirm** -- encode the combinational semantics once (flip-flop Q
   nets as free variables, exactly the replay semantics every
   equivalence check in this repo uses) into one
   :class:`~repro.sat.incremental.IncrementalSolver` session.  Each
   candidate pair gets a selector literal asserting "the two nets
   differ"; an UNSAT answer under that assumption is a proof of
   equivalence, a model is a counterexample that is fed back into the
   signatures to split every class it distinguishes (the CEGAR-ish
   refinement that keeps later checks cheap).
3. **Merge** -- proven equivalences come back as a substitution map;
   :func:`repro.opt.structhash.structural_hash` rebuilds the netlist
   with reads redirected to each class representative and
   :mod:`repro.opt.sweep` reclaims the dead cones.

Determinism: patterns derive from ``hash_label`` streams, solver runs
are conflict-bounded (never wall-clock-bounded), and classes are walked
in topological order -- the same netlist always sweeps to the same
result, which the runner cache and the fuzz campaign rely on.
"""

from __future__ import annotations

import random

from repro.netlist.netlist import Netlist
from repro.sat.cnf import Cnf
from repro.sat.incremental import IncrementalSolver
from repro.sat.tseitin import encode_gate_clauses
from repro.sim.logicsim import BitParallelSimulator
from repro.util.bitvec import PACK_WORD_BITS, lane_mask
from repro.util.rng import hash_label

#: Substitution value: a representative net name, or a constant bit.
Value = "str | int"

DEFAULT_SEED = 0xA115
DEFAULT_ROUNDS = 2
DEFAULT_MAX_CHECKS = 256
DEFAULT_MAX_CONFLICTS = 5_000


def simulation_signatures(
    sim: BitParallelSimulator,
    rng: random.Random,
    n_rounds: int = DEFAULT_ROUNDS,
) -> dict[str, list[int]]:
    """Random-lane signatures of every net (``n_rounds`` x 64 patterns)."""
    netlist = sim.netlist
    free = list(netlist.inputs) + netlist.dff_q_nets()
    signatures: dict[str, list[int]] = {net: [] for net in sim.net_index}
    for _ in range(n_rounds):
        packed = {net: rng.getrandbits(PACK_WORD_BITS) for net in free}
        words = sim.run_packed(packed, PACK_WORD_BITS)
        for net, word in words.items():
            signatures[net].append(word)
    return signatures


def sat_sweep(
    netlist: Netlist,
    pinned: frozenset[str] = frozenset(),
    *,
    seed: int = DEFAULT_SEED,
    n_rounds: int = DEFAULT_ROUNDS,
    max_checks: int = DEFAULT_MAX_CHECKS,
    max_conflicts: int = DEFAULT_MAX_CONFLICTS,
) -> tuple[dict[str, Value], dict]:
    """Propose-and-prove equivalent nets; returns ``(substitutions, stats)``.

    ``substitutions`` maps each proven-redundant gate output to its
    class representative (a topologically earlier net) or to a constant
    bit; apply it with :func:`~repro.opt.structhash.structural_hash`.
    ``pinned`` does not exempt a net from being merged -- the rebuild
    materialises aliases for pinned nets -- it only never *removes* one.
    """
    stats = {
        "candidate_classes": 0,
        "checks": 0,
        "proven_pairs": 0,
        "proven_consts": 0,
        "refuted": 0,
        "unknown": 0,
    }
    if not netlist.gates:
        return {}, stats

    rng = random.Random(hash_label(seed, f"opt/satsweep/{netlist.name}"))
    sim = BitParallelSimulator(netlist)
    signatures = simulation_signatures(sim, rng, n_rounds)
    mask = lane_mask(PACK_WORD_BITS)

    # Topological rank: free nets first (they are always preferred
    # representatives), then gate outputs in dependency order -- merging
    # a net into an earlier-ranked one can never create a cycle.
    free = list(netlist.inputs) + netlist.dff_q_nets()
    rank: dict[str, int] = {net: i for i, net in enumerate(free)}
    for gate in netlist.topological_gates():
        rank[gate.output] = len(rank)

    solver, var_of = _encode(netlist)

    def refine(pattern: dict[str, int]) -> None:
        """Fold one counterexample pattern into every signature.

        The single bit is broadcast across the full lane width so the
        appended word compares consistently with the random-round words
        -- in particular the all-ones constant test (``w == mask``)
        keeps working after a refinement.
        """
        words = sim.run_packed(pattern, 1)
        for net, word in words.items():
            signatures[net].append(mask if word & 1 else 0)

    def proved_unequal_to(net: str, value: int) -> bool | None:
        """Is ``net`` proven constant ``value``?  None = budget exhausted."""
        var = var_of[net]
        assumption = -var if value else var  # assert net != value
        result = solver.solve(
            assumptions=[assumption], max_conflicts=max_conflicts
        )
        if result.satisfiable is False:
            return True
        if result.satisfiable is None:
            return None
        refine({n: solver.value(var_of[n]) for n in free})
        return False

    def proved_equal(a: str, b: str) -> bool | None:
        """Is ``a == b`` for all inputs?  None = budget exhausted."""
        va, vb = var_of[a], var_of[b]
        sel = solver.new_group()
        solver.add_clause([va, vb], group=sel)
        solver.add_clause([-va, -vb], group=sel)
        result = solver.solve(assumptions=[sel], max_conflicts=max_conflicts)
        solver.release_group(sel)
        if result.satisfiable is False:
            return True
        if result.satisfiable is None:
            return None
        refine({n: solver.value(var_of[n]) for n in free})
        return False

    substitutions: dict[str, Value] = {}
    budget = max_checks

    # Constant candidates first: a proven constant beats any pair merge.
    for gate in netlist.topological_gates():
        if budget <= 0:
            break
        net = gate.output
        sig = signatures[net]
        for value, matches in ((0, lambda w: w == 0), (1, lambda w: w == mask)):
            if all(matches(w) for w in sig):
                budget -= 1
                stats["checks"] += 1
                proven = proved_unequal_to(net, value)
                if proven:
                    substitutions[net] = value
                    stats["proven_consts"] += 1
                elif proven is None:
                    stats["unknown"] += 1
                else:
                    stats["refuted"] += 1
                break

    # Equal-signature classes, representatives by topological rank.
    classes: dict[tuple[int, ...], list[str]] = {}
    for net in rank:
        if net in substitutions:
            continue
        classes.setdefault(tuple(signatures[net]), []).append(net)
    for members in classes.values():
        if len(members) < 2:
            continue
        stats["candidate_classes"] += 1
        members.sort(key=rank.__getitem__)
        rep = members[0]
        for net in members[1:]:
            if budget <= 0:
                break
            if net not in netlist.gates:
                continue  # two free nets can never merge
            # A counterexample from an earlier check may have split the
            # class; re-compare the (refined) signatures first.
            if signatures[net] != signatures[rep]:
                continue
            budget -= 1
            stats["checks"] += 1
            proven = proved_equal(rep, net)
            if proven:
                substitutions[net] = rep
                stats["proven_pairs"] += 1
            elif proven is None:
                stats["unknown"] += 1
            else:
                stats["refuted"] += 1

    return substitutions, stats


def _encode(netlist: Netlist) -> tuple[IncrementalSolver, dict[str, int]]:
    """One-shot CNF of the combinational semantics (Q nets free)."""
    cnf = Cnf()
    var_of: dict[str, int] = {}

    def var_for(net: str) -> int:
        var = var_of.get(net)
        if var is None:
            var = cnf.new_var()
            var_of[net] = var
        return var

    for net in list(netlist.inputs) + netlist.dff_q_nets():
        var_for(net)
    for gate in netlist.topological_gates():
        out = var_for(gate.output)
        ins = [var_for(n) for n in gate.inputs]
        encode_gate_clauses(cnf, gate, out, ins)
    solver = IncrementalSolver()
    solver.absorb(cnf)
    return solver, var_of
