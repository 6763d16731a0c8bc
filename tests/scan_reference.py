"""Edge-by-edge reference implementations of the chip oracles.

The runtime oracles (:mod:`repro.scan.oracle`, :mod:`repro.scan.multichain`,
:mod:`repro.locking.iolock`) answer a query with precomputed key masks and
one lane of the compiled simulator.  The classes here answer it the long
way, exactly as the chip protocol reads: power-on reset, every shift edge
as a list copy through :func:`repro.scan.chain.shift_cycle` (or the
multi-chain per-edge loop), and the capture through the dict-walk
:class:`~repro.sim.seqsim.SequentialSimulator`.  Tests compare the two
bit for bit.
"""

from __future__ import annotations

from typing import Sequence

from repro.netlist.netlist import Netlist
from repro.scan.chain import ScanChainSpec, shift_in, shift_out, xor_int
from repro.scan.multichain import MultiChainSpec
from repro.scan.oracle import KeystreamLike, ScanResponse
from repro.sim.logicsim import evaluate
from repro.sim.seqsim import SequentialSimulator


def _input_map(netlist: Netlist, primary_inputs: Sequence[int] | None) -> dict:
    nets = netlist.inputs
    if primary_inputs is None:
        return {net: 0 for net in nets}
    if len(primary_inputs) != len(nets):
        raise ValueError("primary input width mismatch")
    return dict(zip(nets, primary_inputs))


def _capture(sim, netlist, applied, inputs, keystream, n_captures):
    sim.set_state_vector(applied)
    primary_outputs: list[int] = []
    for _ in range(n_captures):
        keystream.next_key()  # capture edges: PRNG advances, path idle
        values = sim.step(inputs)
        primary_outputs = [values[net] for net in netlist.outputs]
    return sim.get_state_vector(), primary_outputs


class ReferenceScanOracle:
    """Single-chain oracle: reset, 2n + c - 1 simulated edges, capture."""

    def __init__(
        self,
        netlist: Netlist,
        spec: ScanChainSpec,
        keystream: KeystreamLike,
        obfuscation_enabled: bool = True,
    ):
        self.netlist = netlist
        self.spec = spec
        self.keystream = keystream
        self.obfuscation_enabled = obfuscation_enabled
        self._sim = SequentialSimulator(netlist)
        self.query_count = 0
        self.shift_cycles = 0

    def _keys(self, count: int) -> list[list[int]]:
        keys = [self.keystream.next_key() for _ in range(count)]
        if self.obfuscation_enabled:
            return keys
        return [[0] * max(1, self.keystream.width) for _ in keys]

    def query(self, scan_in, primary_inputs=None, n_captures=1) -> ScanResponse:
        n = self.spec.n_flops
        self.query_count += 1
        self.shift_cycles += 2 * n + n_captures - 1
        self.keystream.restart()
        self._sim.reset(0)
        applied = shift_in(self.spec, [0] * n, list(scan_in), self._keys(n), xor_int)
        captured, primary_outputs = _capture(
            self._sim,
            self.netlist,
            applied,
            _input_map(self.netlist, primary_inputs),
            self.keystream,
            n_captures,
        )
        observed = shift_out(
            self.spec, captured, self._keys(n - 1), xor_int, fill_bit=0
        )
        return ScanResponse(scan_out=observed, primary_outputs=primary_outputs)

    def unlocked_query(self, scan_in, primary_inputs=None, n_captures=1):
        previous = self.obfuscation_enabled
        self.obfuscation_enabled = False
        try:
            return self.query(scan_in, primary_inputs, n_captures=n_captures)
        finally:
            self.obfuscation_enabled = previous


class ReferenceMultiChainScanOracle:
    """Multi-chain oracle: all chains shift together, one key per edge."""

    def __init__(
        self,
        netlist: Netlist,
        spec: MultiChainSpec,
        keystream: KeystreamLike,
        obfuscation_enabled: bool = True,
    ):
        self.netlist = netlist
        self.spec = spec
        self.keystream = keystream
        self.obfuscation_enabled = obfuscation_enabled
        self._sim = SequentialSimulator(netlist)
        self.query_count = 0

    def _split(self, bits: Sequence[int]) -> list[list[int]]:
        chunks: list[list[int]] = []
        offset = 0
        for length in self.spec.chain_lengths:
            chunks.append(list(bits[offset : offset + length]))
            offset += length
        return chunks

    def _shift_all_chains(self, states, scan_in_bits, key):
        new_states = []
        for chain, state in enumerate(states):
            gates = {
                position: key_index
                for key_index, position in self.spec.gates_in_chain(chain)
            }
            new_state = [scan_in_bits[chain]]
            for p in range(len(state) - 1):
                bit = state[p]
                key_index = gates.get(p)
                if key_index is not None and self.obfuscation_enabled:
                    bit ^= key[key_index]
                new_state.append(bit)
            new_states.append(new_state)
        return new_states

    def query(self, scan_in, primary_inputs=None, n_captures=1) -> ScanResponse:
        spec = self.spec
        self.query_count += 1
        self.keystream.restart()
        self._sim.reset(0)

        patterns = self._split(scan_in)
        max_len = spec.max_length
        states = [[0] * length for length in spec.chain_lengths]
        for t in range(max_len):
            key = self.keystream.next_key()
            si_bits = []
            for chain, length in enumerate(spec.chain_lengths):
                if t < max_len - length:
                    si_bits.append(0)  # front padding of a shorter chain
                else:
                    si_bits.append(patterns[chain][max_len - 1 - t])
            states = self._shift_all_chains(states, si_bits, key)

        applied = [bit for state in states for bit in state]
        captured, primary_outputs = _capture(
            self._sim,
            self.netlist,
            applied,
            _input_map(self.netlist, primary_inputs),
            self.keystream,
            n_captures,
        )
        states = self._split(captured)

        observed = [[None] * length for length in spec.chain_lengths]
        for chain, state in enumerate(states):
            observed[chain][len(state) - 1] = state[-1]
        for j in range(max_len - 1):
            key = self.keystream.next_key()
            states = self._shift_all_chains(states, [0] * spec.n_chains, key)
            for chain, state in enumerate(states):
                position = len(state) - 1 - (j + 1)
                if position >= 0:
                    observed[chain][position] = state[-1]
        scan_out = [bit for chain_bits in observed for bit in chain_bits]
        assert None not in scan_out
        return ScanResponse(scan_out=scan_out, primary_outputs=primary_outputs)


class ReferenceIoOracle:
    """Input/output oracle through the dict-walk :func:`evaluate`."""

    def __init__(self, core: Netlist):
        self.core = core
        self.query_count = 0

    def query(self, x_bits: Sequence[int]) -> list[int]:
        self.query_count += 1
        values = evaluate(self.core, dict(zip(self.core.inputs, x_bits)))
        return [values[net] for net in self.core.outputs]
