"""The attacker's oracle: a working chip with dynamically locked scan.

Implements the exact query protocol assumed by the paper's threat model:
the attacker supplies an (incorrect) test key, so the PRNG drives the key
gates during every shift; each query is preceded by a power-on reset so
the PRNG restarts from its secret seed; the capture edge also advances the
PRNG but the key gates only sit on the scan path, so capture itself is
clean.

Because every query restarts the PRNG, one oracle sees the same keystream
on every query, and shifting is linear over GF(2): the chain state after
a load is ``pattern XOR load_mask`` and the observed response is
``captured XOR unload_mask``.  The oracle derives both masks once per
(obfuscation on/off, capture count) by running the generic shift code of
:mod:`repro.scan.chain` on an all-zero pattern -- the same code the
symbolic model derivation runs -- and captures through the compiled
:class:`~repro.sim.logicsim.BitParallelSimulator`, one lane per query.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol, Sequence

from repro.netlist.netlist import Netlist, NetlistError
from repro.scan.chain import ScanChainSpec, shift_in, shift_out, xor_int
from repro.sim.logicsim import check_bits, simulator_for


class KeystreamLike(Protocol):
    """Anything producing per-cycle dynamic keys (LFSR, nonlinear PRNG).

    ``restart()`` models power-on reset: afterwards the keystream is back
    at its power-on state, so the sequence of ``next_key()`` results
    after every ``restart()`` is the same.  The scan oracles rely on this
    to derive their key masks once instead of on every query.
    """

    width: int

    def next_key(self) -> list[int]: ...

    def restart(self) -> None: ...


@dataclass
class ScanResponse:
    """Result of one scan query."""

    scan_out: list[int]
    primary_outputs: list[int]


def capture(
    netlist: Netlist,
    applied: list[int],
    primary_inputs: Sequence[int] | None,
    n_captures: int,
) -> tuple[list[int], list[int]]:
    """``n_captures`` functional edges from the loaded chain state.

    Returns ``(captured state, primary outputs)``; the outputs are
    sampled before the last edge.  ``primary_inputs`` (None = all zero)
    are held for every edge.  One lane of the netlist's cached compiled
    simulator per edge.
    """
    n_pi = len(netlist.inputs)
    if primary_inputs is None:
        pis = [0] * n_pi
    else:
        if len(primary_inputs) != n_pi:
            raise ValueError(
                f"expected {n_pi} primary input bits, got {len(primary_inputs)}"
            )
        check_bits(primary_inputs, "primary input")
        pis = list(primary_inputs)
    sim = simulator_for(netlist)
    d_slots = sim.d_slots
    state = applied
    for _ in range(n_captures):
        slots = sim.run_slots(pis + state, 1)
        state = [slots[d] for d in d_slots]
    return state, [slots[o] for o in sim.output_slots]


class ScanOracle:
    """Protocol-level simulation of the locked chip.

    ``netlist`` is the *unlocked* functional netlist; the obfuscation is
    applied by the scan protocol layer, which is behaviourally identical
    to inserting physical XOR key gates in the scan path (the structural
    emitter in :mod:`repro.scan.structural` is cross-checked against this
    in the test suite).
    """

    def __init__(
        self,
        netlist: Netlist,
        spec: ScanChainSpec,
        keystream: KeystreamLike,
        obfuscation_enabled: bool = True,
    ):
        if spec.n_flops != netlist.n_dffs:
            raise NetlistError(
                f"chain length {spec.n_flops} != flop count {netlist.n_dffs}"
            )
        if keystream.width < spec.n_keygates:
            raise ValueError(
                "keystream width smaller than the number of key gates"
            )
        self.netlist = netlist
        self.spec = spec
        self.keystream = keystream
        self.obfuscation_enabled = obfuscation_enabled
        simulator_for(netlist)  # compile now: a cyclic netlist fails here
        self._masks: dict[tuple[bool, int], tuple[list[int], list[int]]] = {}
        self.query_count = 0
        self.shift_cycles = 0

    # ------------------------------------------------------------------
    @property
    def n_flops(self) -> int:
        return self.spec.n_flops

    @property
    def n_primary_inputs(self) -> int:
        return len(self.netlist.inputs)

    def _key_masks(self, n_captures: int) -> tuple[list[int], list[int]]:
        """``(load_mask, unload_mask)`` of a query with ``n_captures``.

        Derived on first use by running the power-on keystream through
        the generic :func:`~repro.scan.chain.shift_in` /
        :func:`~repro.scan.chain.shift_out` on an all-zero pattern, then
        cached per (``obfuscation_enabled``, ``n_captures``).
        """
        key = (self.obfuscation_enabled, n_captures)
        masks = self._masks.get(key)
        if masks is None:
            masks = self._masks[key] = self._derive_masks(n_captures)
        return masks

    def _derive_masks(self, n_captures: int) -> tuple[list[int], list[int]]:
        n = self.spec.n_flops
        if not self.obfuscation_enabled:
            return [0] * n, [0] * n
        keystream = self.keystream
        keystream.restart()
        load_keys = [keystream.next_key() for _ in range(n)]
        for _ in range(n_captures):  # capture edges: PRNG advances, path idle
            keystream.next_key()
        unload_keys = [keystream.next_key() for _ in range(n - 1)]
        load_mask = shift_in(self.spec, [0] * n, [0] * n, load_keys, xor_int)
        unload_mask = shift_out(self.spec, [0] * n, unload_keys, xor_int, fill_bit=0)
        return load_mask, unload_mask

    # ------------------------------------------------------------------
    def query(
        self,
        scan_in: Sequence[int],
        primary_inputs: Sequence[int] | None = None,
        n_captures: int = 1,
    ) -> ScanResponse:
        """One full test operation: reset, load, capture(s), unload.

        ``scan_in[l]`` is the pattern bit aimed at chain position ``l``;
        the returned ``scan_out[l]`` is what the tester observes for the
        response bit captured in position ``l`` (both corrupted by the
        dynamic obfuscation when enabled).  ``n_captures`` functional
        edges are applied back-to-back with the same primary inputs (the
        multi-capture protocol DynUnlock's restart refinement uses);
        primary outputs are sampled before the last capture edge.
        """
        n = self.spec.n_flops
        if len(scan_in) != n:
            raise ValueError(f"scan_in must have {n} bits, got {len(scan_in)}")
        if n_captures < 1:
            raise ValueError("at least one capture edge is required")
        check_bits(scan_in, "scan_in")
        self.query_count += 1
        self.shift_cycles += 2 * n + n_captures - 1

        load_mask, unload_mask = self._key_masks(n_captures)
        applied = [bit ^ m for bit, m in zip(scan_in, load_mask)]
        captured, primary_outputs = capture(
            self.netlist, applied, primary_inputs, n_captures
        )
        observed = [bit ^ m for bit, m in zip(captured, unload_mask)]
        return ScanResponse(scan_out=observed, primary_outputs=primary_outputs)

    # ------------------------------------------------------------------
    def unlocked_query(
        self,
        scan_in: Sequence[int],
        primary_inputs: Sequence[int] | None = None,
        n_captures: int = 1,
    ) -> ScanResponse:
        """Ground-truth query with obfuscation bypassed.

        This is what a trusted tester holding the secret key would see;
        used by tests and by the post-attack verification step ("does the
        recovered seed descramble real responses correctly").
        """
        previous = self.obfuscation_enabled
        self.obfuscation_enabled = False
        try:
            return self.query(scan_in, primary_inputs, n_captures=n_captures)
        finally:
            self.obfuscation_enabled = previous
