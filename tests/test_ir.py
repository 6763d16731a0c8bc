"""Tests for the repro.ir array-netlist IR.

The IR's entire contract is *bit-identity with the pure walks*: the
round-trip to/from :class:`~repro.netlist.netlist.Netlist` is the
identity, every array-backed kernel (topological order, fanout, cone,
Tseitin compile, word-engine simulation) must equal its dict/gate-object
reference, and the per-netlist cache must never serve a stale view
after any mutator.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro import ir
from repro.bench_suite.generator import GeneratorConfig, generate_circuit
from repro.netlist.gates import GateType
from repro.netlist.netlist import Netlist
from repro.netlist.transform import extract_combinational_core
from repro.opt import optimize
from repro.opt.structhash import _read_counts
from repro.opt.sweep import cone_of_influence
from repro.sat.tseitin import compile_encoding
from repro.sim.logicsim import BitParallelSimulator, CombinationalSimulator


def sampled_netlist(seed: int, n_flops: int = 6) -> Netlist:
    rng = random.Random(seed)
    config = GeneratorConfig(
        n_flops=n_flops,
        n_inputs=1 + seed % 5,
        n_outputs=1 + seed % 4,
        gates_per_flop=1.0 + (seed % 3),
        max_fanin=2 + seed % 3,
        locality=(4, 8, 24)[seed % 3],
    )
    return generate_circuit(config, rng, name=f"ir{seed}")


def sampled_core(seed: int) -> Netlist:
    core, _, _ = extract_combinational_core(sampled_netlist(seed))
    return core


@pytest.fixture
def pure_mode():
    """Force the pure walks for one test, restoring the prior toggle."""
    prior = ir.core._FORCED
    ir.set_enabled(False)
    yield
    ir.set_enabled(prior)


class TestToggle:
    def test_env_default_on(self, monkeypatch):
        monkeypatch.delenv("REPRO_IR", raising=False)
        prior = ir.core._FORCED
        ir.set_enabled(None)
        try:
            assert ir.enabled() is True
        finally:
            ir.set_enabled(prior)

    @pytest.mark.parametrize("value", ["0", "off", "false", "no", "OFF"])
    def test_env_disables(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_IR", value)
        prior = ir.core._FORCED
        ir.set_enabled(None)
        try:
            assert ir.enabled() is False
        finally:
            ir.set_enabled(prior)

    def test_forced_overrides_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_IR", "0")
        prior = ir.core._FORCED
        try:
            ir.set_enabled(True)
            assert ir.enabled() is True
            ir.set_enabled(False)
            assert ir.enabled() is False
        finally:
            ir.set_enabled(prior)


class TestRoundTrip:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_netlist_ir_netlist_identity(self, seed):
        original = sampled_netlist(seed)
        back = ir.to_netlist(ir.from_netlist(original))
        assert back.name == original.name
        assert back.inputs == original.inputs
        assert back.outputs == original.outputs
        assert list(back.gates) == list(original.gates)
        for net, gate in original.gates.items():
            assert back.gates[net].gtype == gate.gtype
            assert back.gates[net].inputs == gate.inputs
        assert list(back.dffs) == list(original.dffs)
        assert [d.d for d in back.dffs.values()] == [
            d.d for d in original.dffs.values()
        ]

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_gate_objects_shared_not_copied(self, seed):
        netlist = sampled_netlist(seed)
        view = ir.from_netlist(netlist)
        assert list(view.gates) == list(netlist.gates.values())

    def test_empty_netlist(self):
        empty = Netlist("empty")
        back = ir.to_netlist(ir.from_netlist(empty))
        assert back.inputs == [] and back.outputs == [] and back.n_gates == 0


def _forced_off():
    """try/finally pair (no fixture: hypothesis + function fixtures clash)."""
    prior = ir.core._FORCED
    ir.set_enabled(False)
    return prior


class TestArrayWalksMatchPure:
    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_topological_order_identical(self, seed):
        prior = _forced_off()
        try:
            netlist = sampled_netlist(seed)
            pure = list(netlist.topological_gates())
            view = ir.from_netlist(netlist)
            assert view.topological_gate_objects() == pure
        finally:
            ir.set_enabled(prior)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_read_counts_identical(self, seed):
        prior = _forced_off()
        try:
            netlist = sampled_netlist(seed)
            assert (
                ir.from_netlist(netlist).read_counts() == _read_counts(netlist)
            )
        finally:
            ir.set_enabled(prior)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10_000), pin=st.booleans())
    def test_cone_identical(self, seed, pin):
        prior = _forced_off()
        try:
            netlist = sampled_netlist(seed)
            pinned = frozenset()
            if pin and netlist.gates:
                pinned = frozenset([next(iter(netlist.gates)), "no-such-net"])
            assert ir.from_netlist(netlist).cone_keep(
                pinned
            ) == cone_of_influence(netlist, pinned)
        finally:
            ir.set_enabled(prior)

    def test_cycle_error_message_matches_pure(self, pure_mode):
        netlist = Netlist("cyc")
        netlist.add_input("a")
        netlist.add_gate("x", GateType.AND, ["a", "y"])
        netlist.add_gate("y", GateType.AND, ["a", "x"])
        netlist.add_output("y")
        with pytest.raises(Exception) as pure_err:
            netlist.topological_gates()
        with pytest.raises(Exception) as ir_err:
            ir.from_netlist(netlist).topological_order()
        assert str(ir_err.value) == str(pure_err.value)


class TestTseitinCompileIdentical:
    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_encodings_equal_including_dict_order(self, seed):
        core = sampled_core(seed)
        prior = ir.core._FORCED
        try:
            ir.set_enabled(False)
            pure = compile_encoding(core)
            ir.set_enabled(True)
            arr = compile_encoding(core)
        finally:
            ir.set_enabled(prior)
        assert arr.n_locals == pure.n_locals
        assert arr.shifted == pure.shifted
        # Equality of the mapping *and* its iteration order: stamped
        # copies walk net_local in insertion order.
        assert list(arr.net_local.items()) == list(pure.net_local.items())
        # CircuitEncoder.stamp relies on locals increasing in that order.
        assert list(pure.net_local.values()) == sorted(pure.net_local.values())


class TestSimulationIdentical:
    @settings(max_examples=15, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        width=st.sampled_from([1, 15, 16, 17, 63, 64, 65, 130]),
    )
    def test_engine_matches_scalar_run_patterns(self, seed, width):
        core = sampled_core(seed)
        rng = random.Random(seed ^ 0xC0FFEE)
        patterns = [
            {net: rng.randrange(2) for net in core.inputs}
            for _ in range(width)
        ]
        prior = ir.core._FORCED
        try:
            ir.set_enabled(False)
            scalar = BitParallelSimulator(core).run_patterns(patterns)
            ir.set_enabled(True)
            vectored = BitParallelSimulator(core).run_patterns(patterns)
        finally:
            ir.set_enabled(prior)
        assert vectored == scalar

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 10_000), level=st.sampled_from([0, 1, 2]))
    def test_opt_levels_agree_across_arms(self, seed, level):
        """optimize() + simulation give one answer regardless of the IR."""
        rng = random.Random(seed ^ 0xBEEF)
        pattern_seed = rng.getrandbits(32)
        results = {}
        prior = ir.core._FORCED
        try:
            for arm in (False, True):
                ir.set_enabled(arm)
                core = sampled_core(seed)
                if level:
                    core = optimize(core, level=level).netlist
                prng = random.Random(pattern_seed)
                patterns = [
                    {net: prng.randrange(2) for net in core.inputs}
                    for _ in range(20)
                ]
                sim = BitParallelSimulator(core)
                scalar_ref = CombinationalSimulator(core)
                got = sim.run_patterns(patterns)
                for pattern, outputs in zip(patterns, got):
                    assert outputs == scalar_ref.run_outputs(pattern)
                results[arm] = (list(core.gates), got)
        finally:
            ir.set_enabled(prior)
        assert results[False] == results[True]


class TestCacheInvalidation:
    """ir_for (and the topo/fanout caches beneath it) across every mutator."""

    def _base(self) -> Netlist:
        netlist = Netlist("inv")
        netlist.add_input("a")
        netlist.add_input("b")
        netlist.add_gate("x", GateType.AND, ["a", "b"])
        netlist.add_gate("y", GateType.OR, ["x", "b"])
        netlist.add_output("y")
        return netlist

    def test_cache_hit_when_unchanged(self):
        netlist = self._base()
        assert ir.ir_for(netlist) is ir.ir_for(netlist)

    def test_add_gate_invalidates(self):
        netlist = self._base()
        before = ir.ir_for(netlist)
        netlist.add_gate("z", GateType.NOT, ["x"])
        after = ir.ir_for(netlist)
        assert after is not before
        assert "z" in after.index

    def test_add_input_invalidates(self):
        netlist = self._base()
        before = ir.ir_for(netlist)
        netlist.add_input("c")
        after = ir.ir_for(netlist)
        assert after is not before
        assert len(after.pi) == 3

    def test_add_output_invalidates(self):
        netlist = self._base()
        before = ir.ir_for(netlist)
        netlist.add_output("x")
        after = ir.ir_for(netlist)
        assert after is not before
        assert len(after.po) == 2

    def test_set_outputs_invalidates(self):
        netlist = self._base()
        before = ir.ir_for(netlist)
        netlist.set_outputs(["x"])
        after = ir.ir_for(netlist)
        assert after is not before
        assert [after.names[nid] for nid in after.po] == ["x"]

    def test_remove_gate_invalidates(self):
        netlist = self._base()
        netlist.set_outputs(["x"])
        before = ir.ir_for(netlist)
        netlist.remove_gate("y")
        after = ir.ir_for(netlist)
        assert after is not before
        assert "y" not in after.index or after.n_gates == 1

    def test_remove_input_invalidates(self):
        netlist = self._base()
        netlist.set_outputs([])
        netlist.remove_gate("y")
        netlist.remove_gate("x")
        before = ir.ir_for(netlist)
        netlist.remove_input("b")
        after = ir.ir_for(netlist)
        assert after is not before
        assert len(after.pi) == 1

    def test_add_dff_invalidates(self):
        netlist = self._base()
        before = ir.ir_for(netlist)
        netlist.add_dff(q="q0", d="x")
        after = ir.ir_for(netlist)
        assert after is not before
        assert len(after.dff_q) == 1

    def test_mutators_invalidate_topo_and_fanout(self):
        """Satellite regression: every mutator drops the derived caches."""
        mutations = [
            lambda n: n.add_gate("z", GateType.NOT, ["x"]),
            lambda n: n.add_input("c"),
            lambda n: n.add_output("x"),
            lambda n: n.set_outputs(["x"]),
            lambda n: n.add_dff(q="q0", d="x"),
            lambda n: n.remove_gate("y"),
        ]
        for mutate in mutations:
            netlist = self._base()
            netlist.topological_gates()
            netlist.fanout_map()
            assert netlist._topo_cache is not None
            assert netlist._fanout_cache is not None
            version = netlist.version
            mutate(netlist)
            assert netlist._topo_cache is None, mutate
            assert netlist._fanout_cache is None, mutate
            assert netlist.version > version, mutate

    def test_fanout_map_fresh_after_remove_gate(self):
        netlist = self._base()
        assert any(g.output == "y" for g in netlist.fanout_map()["x"])
        netlist.set_outputs(["x"])
        netlist.remove_gate("y")
        assert netlist.fanout_map().get("x", []) == []


class TestWordEngineOptionality:
    def test_word_engine_none_without_numpy(self, monkeypatch):
        from repro.ir import lanes

        monkeypatch.setattr(lanes, "np", None)
        assert lanes.word_engine_for([], 0, 0) is None

    def test_simulator_falls_back_when_ir_disabled(self, pure_mode):
        core = sampled_core(7)
        sim = BitParallelSimulator(core)
        rng = random.Random(7)
        patterns = [
            {net: rng.randrange(2) for net in core.inputs} for _ in range(40)
        ]
        sim.run_patterns(patterns)
        assert sim._engine is None
