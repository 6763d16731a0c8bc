"""Logic simulation substrate.

Two simulators share the netlist IR:

* :mod:`repro.sim.logicsim` — combinational evaluation, scalar and
  bit-parallel; the compiled bit-parallel simulator
  (:func:`~repro.sim.logicsim.simulator_for`) runs the chip oracles'
  capture edges and candidate replay;
* :mod:`repro.sim.seqsim` — cycle-accurate sequential simulation with
  explicit flip-flop state, which drives the structural (gate-level)
  scan oracle.
"""

from repro.sim.logicsim import evaluate, CombinationalSimulator
from repro.sim.seqsim import SequentialSimulator

__all__ = [
    "evaluate",
    "CombinationalSimulator",
    "SequentialSimulator",
]
