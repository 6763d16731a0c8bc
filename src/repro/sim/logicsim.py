"""Combinational logic evaluation.

Two paths share one gate semantics, both stdlib-only:

* the scalar path (:func:`evaluate`) is the reference;
* the packed path (:class:`BitParallelSimulator`) pre-compiles the
  netlist to a flat instruction list over dense net indices and
  evaluates any number of patterns (lanes) per Python bitwise
  operation — the runtime simulator under the chip oracles (one lane
  per query), brute-force candidate refinement and fault simulation.
  :func:`simulator_for` caches one compile per netlist version.
"""

from __future__ import annotations

from functools import cached_property
from typing import Mapping, Sequence
from weakref import WeakKeyDictionary

from repro.netlist.gates import GateType, evaluate_gate
from repro.netlist.netlist import Netlist, NetlistError
from repro.util.bitvec import PACK_WORD_BITS, lane_mask, pack_lanes


def evaluate(
    netlist: Netlist,
    input_values: Mapping[str, int],
    state_values: Mapping[str, int] | None = None,
) -> dict[str, int]:
    """Evaluate every net of the combinational part once.

    ``input_values`` maps primary-input nets to bits; ``state_values`` maps
    DFF Q nets to bits (required when the netlist has flip-flops).  Returns
    the full net -> bit valuation, from which callers read outputs or DFF D
    pins.
    """
    values: dict[str, int] = {}
    for net in netlist.inputs:
        if net not in input_values:
            raise NetlistError(f"missing value for primary input {net!r}")
        values[net] = _as_bit(input_values[net], net)
    for q_net in netlist.dffs:
        if state_values is None or q_net not in state_values:
            raise NetlistError(f"missing state value for flip-flop {q_net!r}")
        values[q_net] = _as_bit(state_values[q_net], q_net)

    for gate in netlist.topological_gates():
        operands = [values[n] for n in gate.inputs]
        values[gate.output] = evaluate_gate(gate.gtype, operands)
    return values


def _as_bit(value: int, net: str) -> int:
    if value not in (0, 1):
        raise NetlistError(f"net {net!r}: bit value must be 0/1, got {value!r}")
    return int(value)


_BITS = frozenset((0, 1))


def check_bits(bits: Sequence[int], what: str) -> None:
    """Reject anything but 0/1 in a one-lane input vector.

    The compiled simulator masks its inputs to the lane width, so callers
    feeding it outside input check the bits here first.
    """
    if not _BITS.issuperset(bits):
        bad = next(bit for bit in bits if bit not in _BITS)
        raise NetlistError(f"{what} bits must be 0/1, got {bad!r}")


class CombinationalSimulator:
    """Reusable evaluator for a fixed netlist.

    ``run`` evaluates a single pattern over the netlist's cached
    topological order, which construction computes up front (so a
    combinational cycle raises here, not on the first pattern).
    """

    def __init__(self, netlist: Netlist):
        self.netlist = netlist
        netlist.topological_gates()

    def run(
        self,
        input_values: Mapping[str, int],
        state_values: Mapping[str, int] | None = None,
    ) -> dict[str, int]:
        return evaluate(self.netlist, input_values, state_values)

    def run_outputs(
        self,
        input_values: Mapping[str, int],
        state_values: Mapping[str, int] | None = None,
    ) -> list[int]:
        values = self.run(input_values, state_values)
        return [values[net] for net in self.netlist.outputs]


# Instruction kinds of the compiled program.  Inverting gate types share
# the kind of their base type and set the instruction's ``invert`` flag
# (NAND = AND + invert, NOT = BUF + invert, CONST1 = CONST + invert).
_XOR, _AND, _OR, _BUF, _MUX, _CONST = range(6)
_KIND_OF: dict[GateType, tuple[int, bool]] = {
    GateType.AND: (_AND, False),
    GateType.NAND: (_AND, True),
    GateType.OR: (_OR, False),
    GateType.NOR: (_OR, True),
    GateType.XOR: (_XOR, False),
    GateType.XNOR: (_XOR, True),
    GateType.BUF: (_BUF, False),
    GateType.NOT: (_BUF, True),
    GateType.MUX: (_MUX, False),
    GateType.CONST0: (_CONST, False),
    GateType.CONST1: (_CONST, True),
}


def _compile_gate(
    gtype: GateType, out: int, ins: list[int]
) -> tuple[int, bool, int, int, tuple[int, ...]]:
    """One instruction: ``(kind, invert, out, first operand, the rest)``.

    Constants have no operand; they read slot 0 and discard it.
    """
    kind, invert = _KIND_OF[gtype]
    return kind, invert, out, ins[0] if ins else 0, tuple(ins[1:])


class BitParallelSimulator:
    """Packed-integer bit-parallel evaluator for a fixed netlist.

    Construction compiles the netlist once: every net gets a dense slot
    index and the topological gate order becomes a flat instruction
    list, so each evaluation is a straight-line pass of Python bitwise
    operations with no dict lookups.  A *lane* is one pattern; all lanes
    of a net live in one ``int`` (bit ``j`` = lane ``j``), so a 64-lane
    run evaluates 64 patterns for the cost of one.

    Flip-flop Q nets are treated as extra inputs: the *free* nets are
    the primary inputs followed by the Q nets in canonical flop order,
    and they hold slots ``0 .. len(free_nets) - 1``.  ``output_slots``
    and ``d_slots`` locate the primary outputs and the flops' D nets, so
    a one-lane :meth:`run_slots` pass is one functional clock edge with
    no name lookups -- the capture step of every chip oracle.
    """

    def __init__(self, netlist: Netlist):
        self.version = netlist.version
        self.free_nets: list[str] = list(netlist.inputs) + netlist.dff_q_nets()
        index: dict[str, int] = {}
        for net in self.free_nets:
            index[net] = len(index)
        order = netlist.topological_gates()
        for gate in order:
            if gate.output not in index:
                index[gate.output] = len(index)
        self._net_index = index
        self._n_nets = len(index)
        self._program = [
            _compile_gate(gate.gtype, index[gate.output], [index[n] for n in gate.inputs])
            for gate in order
        ]
        self.output_slots = [index[net] for net in netlist.outputs]
        self._d_nets = netlist.dff_d_nets()

    @property
    def net_index(self) -> Mapping[str, int]:
        """Net name -> dense slot index (stable for this simulator)."""
        return self._net_index

    @cached_property
    def d_slots(self) -> list[int]:
        """Slot of each flop's D net, in canonical flop order."""
        return [self._net_index[net] for net in self._d_nets]

    def run_packed(
        self,
        packed_inputs: Mapping[str, int],
        n_lanes: int,
        force: Mapping[str, int] | None = None,
    ) -> dict[str, int]:
        """Evaluate ``n_lanes`` patterns in one pass.

        ``packed_inputs`` maps every primary input and DFF Q net to a
        packed word (lane ``j`` in bit ``j``).  ``force`` overrides nets
        with fixed packed words *after* their driver is evaluated — the
        stuck-at injection hook used by fault simulation.  Returns the
        packed word of every net.
        """
        slots = self._run_named(packed_inputs, n_lanes, force)
        return {net: slots[slot] for net, slot in self._net_index.items()}

    def _run_named(
        self,
        packed_inputs: Mapping[str, int],
        n_lanes: int,
        force: Mapping[str, int] | None = None,
    ) -> list[int]:
        words: list[int] = []
        for net in self.free_nets:
            word = packed_inputs.get(net)
            if word is None:
                raise NetlistError(f"missing packed value for net {net!r}")
            words.append(word)
        return self.run_slots(words, n_lanes, force)

    def run_slots(
        self,
        free_words: Sequence[int],
        n_lanes: int,
        force: Mapping[str, int] | None = None,
    ) -> list[int]:
        """Straight-line packed evaluation; returns the raw slot array.

        ``free_words`` holds one packed word per free net, in
        ``free_nets`` order (primary inputs, then Q nets); read results
        through ``net_index``, ``output_slots`` or ``d_slots``.
        """
        if len(free_words) != len(self.free_nets):
            raise NetlistError(
                f"expected {len(self.free_nets)} free-net words, "
                f"got {len(free_words)}"
            )
        mask = lane_mask(n_lanes)
        slots = [word & mask for word in free_words]
        slots.extend([0] * (self._n_nets - len(slots)))

        force_slots: dict[int, int] | None = None
        if force:
            index = self._net_index
            force_slots = {index[net]: word & mask for net, word in force.items()}
            for slot, word in force_slots.items():
                slots[slot] = word

        XOR, AND, OR, MUX, CONST = _XOR, _AND, _OR, _MUX, _CONST
        for kind, invert, out, first, rest in self._program:
            acc = slots[first]
            if kind is XOR:
                for i in rest:
                    acc ^= slots[i]
            elif kind is AND:
                for i in rest:
                    acc &= slots[i]
            elif kind is OR:
                for i in rest:
                    acc |= slots[i]
            elif kind is MUX:
                acc = ((slots[rest[0]] & ~acc) | (slots[rest[1]] & acc)) & mask
            elif kind is CONST:
                acc = 0
            if invert:
                acc ^= mask
            if force_slots is not None:
                forced = force_slots.get(out)
                if forced is not None:
                    acc = forced
            slots[out] = acc

        return slots

    def run_packed_outputs(
        self,
        packed_inputs: Mapping[str, int],
        n_lanes: int,
        force: Mapping[str, int] | None = None,
    ) -> list[int]:
        """Packed words of the primary outputs only (see :meth:`run_packed`).

        Skips the name -> word dict entirely — this is the per-fault hot
        path of fault simulation.
        """
        slots = self._run_named(packed_inputs, n_lanes, force)
        return [slots[slot] for slot in self.output_slots]

    def run_patterns(
        self, patterns: Sequence[Mapping[str, int]]
    ) -> list[list[int]]:
        """Evaluate scalar pattern dicts in 64-lane chunks.

        Returns one output-bit row per pattern, in the netlist's output
        order — the bit-parallel equivalent of calling
        :meth:`CombinationalSimulator.run_outputs` per pattern.
        """
        results: list[list[int]] = []
        nets = self.free_nets
        for start in range(0, len(patterns), PACK_WORD_BITS):
            chunk = patterns[start : start + PACK_WORD_BITS]
            n_lanes = len(chunk)
            rows = [[pattern[net] for net in nets] for pattern in chunk]
            packed = dict(zip(nets, pack_lanes(rows)))
            out_words = self.run_packed_outputs(packed, n_lanes)
            for lane in range(n_lanes):
                results.append([(word >> lane) & 1 for word in out_words])
        return results


_SIM_CACHE: "WeakKeyDictionary[Netlist, BitParallelSimulator]" = WeakKeyDictionary()


def simulator_for(netlist: Netlist) -> BitParallelSimulator:
    """Cached :class:`BitParallelSimulator` of ``netlist``.

    Same contract as :func:`repro.sat.tseitin.encoding_for`: the cache
    key is the netlist object, paired with its mutation
    :attr:`~repro.netlist.netlist.Netlist.version`, so every oracle built
    on one netlist shares one compile and any edit recompiles.
    """
    cached = _SIM_CACHE.get(netlist)
    if cached is not None and cached.version == netlist.version:
        return cached
    sim = BitParallelSimulator(netlist)
    _SIM_CACHE[netlist] = sim
    return sim
