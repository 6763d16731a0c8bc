"""Logic simulation substrate.

Two simulators share the netlist IR:

* :mod:`repro.sim.logicsim` — combinational evaluation, scalar and
  bit-parallel (up to 64 patterns per pass);
* :mod:`repro.sim.seqsim` — cycle-accurate sequential simulation with
  explicit flip-flop state, used as ground truth for the scan oracle.
"""

from repro.sim.logicsim import evaluate, CombinationalSimulator
from repro.sim.seqsim import SequentialSimulator

__all__ = [
    "evaluate",
    "CombinationalSimulator",
    "SequentialSimulator",
]
