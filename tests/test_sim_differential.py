"""The compiled simulator against the dict-walk reference, gate for gate.

The chip oracles and the fuzz invariants' reference side both run on
:class:`~repro.sim.logicsim.BitParallelSimulator`, so the key-equivalence
invariant compares the compiled simulator with itself on the
combinational part.  This module pins it, one lane and packed, against
:func:`repro.sim.logicsim.evaluate` on every gate type and on every
registry benchmark at quick scale.
"""

import random

import pytest

from repro.bench_suite.registry import PAPER_BENCHMARKS, build_benchmark_netlist
from repro.netlist.gates import GateType
from repro.netlist.netlist import Netlist
from repro.reports.profiles import PROFILES
from repro.sim.logicsim import BitParallelSimulator, evaluate, simulator_for
from repro.util.bitvec import pack_lanes, random_bits

_ARITY = {GateType.NOT: 1, GateType.BUF: 1, GateType.MUX: 3}


def every_gate_netlist(seed: int, n_gates: int = 60) -> Netlist:
    """A random sequential netlist drawing on every gate type."""
    rng = random.Random(seed)
    netlist = Netlist(name=f"allgates{seed}")
    nets = [netlist.add_input(f"i{k}") for k in range(4)]
    q_nets = [f"q{k}" for k in range(3)]
    nets += q_nets
    types = list(GateType)
    for g in range(n_gates):
        # Cycle through the types first so every one is present.
        gtype = types[g] if g < len(types) else rng.choice(types)
        if gtype in (GateType.CONST0, GateType.CONST1):
            ins = []
        else:
            arity = _ARITY.get(gtype) or rng.randint(2, 4)
            ins = [rng.choice(nets) for _ in range(arity)]
        out = f"g{g}"
        netlist.add_gate(out, gtype, ins)
        nets.append(out)
    for q in q_nets:
        netlist.add_dff(q, rng.choice(nets[7:]))
    for net in rng.sample(nets, 5):
        netlist.add_output(net)
    return netlist


def quick_benchmarks():
    scale = PROFILES["quick"].scale
    return [build_benchmark_netlist(name, scale) for name in PAPER_BENCHMARKS]


def assert_matches_reference(netlist: Netlist, rng: random.Random, n_patterns: int):
    sim = BitParallelSimulator(netlist)
    q_nets = netlist.dff_q_nets()
    rows = [random_bits(len(sim.free_nets), rng) for _ in range(n_patterns)]
    packed = sim.run_slots(pack_lanes(rows), n_patterns)
    for lane, row in enumerate(rows):
        pis, state = row[: len(netlist.inputs)], row[len(netlist.inputs) :]
        want = evaluate(
            netlist, dict(zip(netlist.inputs, pis)), dict(zip(q_nets, state))
        )
        one = sim.run_slots(row, 1)
        for net, slot in sim.net_index.items():
            assert one[slot] == want[net], net
            assert (packed[slot] >> lane) & 1 == want[net], net
        assert [one[s] for s in sim.output_slots] == [
            want[net] for net in netlist.outputs
        ]
        assert [one[s] for s in sim.d_slots] == [
            want[net] for net in netlist.dff_d_nets()
        ]


class TestCompiledAgainstDictWalk:
    @pytest.mark.parametrize("seed", range(12))
    def test_every_gate_type(self, seed):
        netlist = every_gate_netlist(seed)
        assert {g.gtype for g in netlist.gates.values()} == set(GateType)
        assert_matches_reference(netlist, random.Random(seed), n_patterns=70)

    @pytest.mark.parametrize("netlist", quick_benchmarks(), ids=lambda n: n.name)
    def test_registry_benchmarks_at_quick_scale(self, netlist):
        assert_matches_reference(netlist, random.Random(0), n_patterns=8)


class TestSimulatorCache:
    def test_one_compile_per_version(self):
        netlist = every_gate_netlist(0)
        sim = simulator_for(netlist)
        assert simulator_for(netlist) is sim
        netlist.add_gate("extra", GateType.NOT, ["i0"])
        fresh = simulator_for(netlist)
        assert fresh is not sim
        assert "extra" in fresh.net_index
