"""Combinational locks attacked through a plain input/output oracle.

The classic SAT-attack setting: the attacker holds the locked netlist
(with key inputs) plus an activated chip whose scan chains are *not*
protected, so the whole combinational core is controllable and
observable -- an input/output oracle.  This module provides that
setting over the repo's sequential benchmarks: the netlist's flops are
cut into pseudo-primary I/O (full-scan transformation) and the lock is
applied to the resulting core.

Two locks build on it: :func:`lock_core_with_rll` (the random XOR/XNOR
baseline the original SAT attack was formulated against -- Table I's
implicit first row) and the SARLock-style point function in
:mod:`repro.locking.sarlock`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Sequence

from repro.locking.rll import lock_combinational_rll
from repro.netlist.netlist import Netlist
from repro.netlist.transform import extract_combinational_core
from repro.sim.logicsim import check_bits, simulator_for


@dataclass(frozen=True)
class IoPublicView:
    """Reverse-engineerable facts: the key input names of the locked core."""

    key_inputs: tuple[str, ...]
    key_bits: int


class IoOracle:
    """The activated chip: answers input -> output queries on the true core.

    ``query`` takes the non-key input bits in the core's canonical input
    order and returns all output bits; ``query_count`` mirrors the scan
    oracles' accounting so matrix cells can report query budgets.
    """

    def __init__(self, core: Netlist):
        self._core = core
        simulator_for(core)  # compile now: a cyclic netlist fails here
        self.inputs = list(core.inputs)
        self.outputs = list(core.outputs)
        self.query_count = 0

    def query(self, x_bits: Sequence[int]) -> list[int]:
        """One lane of the core's cached compiled simulator."""
        if len(x_bits) != len(self.inputs):
            raise ValueError(
                f"expected {len(self.inputs)} input bits, got {len(x_bits)}"
            )
        check_bits(x_bits, "input")
        self.query_count += 1
        sim = simulator_for(self._core)
        slots = sim.run_slots(x_bits, 1)
        return [slots[o] for o in sim.output_slots]


@dataclass
class IoLock:
    """A locked combinational core plus the unlocked original it hides.

    ``locked`` carries the key inputs; ``original`` is the oracle's
    function (the full-scan core of the benchmark netlist).  The
    interface mirrors the scan locks: ``public_view()`` for the
    attacker's static knowledge, ``make_oracle()`` for the chip.
    """

    locked: Netlist
    original: Netlist
    key_inputs: list[str]
    secret_key: tuple[int, ...]

    @property
    def key_bits(self) -> int:
        return len(self.secret_key)

    @property
    def netlist(self) -> Netlist:
        return self.locked

    def public_view(self) -> IoPublicView:
        return IoPublicView(
            key_inputs=tuple(self.key_inputs), key_bits=len(self.secret_key)
        )

    def make_oracle(self) -> IoOracle:
        return IoOracle(self.original)


def lock_core_with_rll(
    netlist: Netlist, key_bits: int, rng: random.Random
) -> IoLock:
    """RLL-lock the full-scan combinational core of a sequential netlist."""
    core, _, _ = extract_combinational_core(netlist)
    rll = lock_combinational_rll(core, key_bits, rng)
    return IoLock(
        locked=rll.locked,
        original=core,
        key_inputs=rll.key_inputs,
        secret_key=rll.secret_key,
    )
