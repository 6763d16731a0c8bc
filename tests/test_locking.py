"""Tests for the defense implementations (EFF, EFF-Dyn, DOS, DFS, RLL, TPM)."""

import random

import pytest

from repro.bench_suite.generator import GeneratorConfig, generate_circuit
from repro.bench_suite.iscas import s27_netlist
from repro.locking.dfs import lock_with_dfs
from repro.locking.dos import PerPatternKeystream, key_update_of_edge, lock_with_dos
from repro.locking.eff import ConstantKeystream, lock_with_eff
from repro.locking.effdyn import EffDynLock, lock_with_effdyn
from repro.locking.keygates import place_keygates
from repro.locking.rll import lock_combinational_rll
from repro.locking.tpm import TamperProofMemory, AuthenticationScheme
from repro.netlist.transform import extract_combinational_core
from repro.prng.lfsr import FibonacciLfsr
from repro.prng.polynomials import default_taps
from repro.scan.chain import ScanChainSpec
from repro.sim.logicsim import evaluate
from repro.sim.seqsim import SequentialSimulator
from repro.util.bitvec import random_bits


class TestKeygatePlacement:
    def test_random_placement_is_valid(self):
        spec = place_keygates(20, 8, random.Random(0))
        assert spec.n_keygates == 8
        assert len(set(spec.keygate_positions)) == 8

    def test_spread_placement_is_even(self):
        spec = place_keygates(21, 5, random.Random(0), policy="spread")
        positions = spec.keygate_positions
        assert len(positions) == 5
        gaps = [b - a for a, b in zip(positions, positions[1:])]
        assert max(gaps) - min(gaps) <= 2

    def test_spread_zero_gates(self):
        assert place_keygates(5, 0, random.Random(0), policy="spread").n_keygates == 0

    def test_too_many_gates_rejected(self):
        with pytest.raises(ValueError):
            place_keygates(4, 4, random.Random(0))

    def test_unknown_policy(self):
        with pytest.raises(ValueError):
            place_keygates(8, 2, random.Random(0), policy="magic")

    def test_deterministic_given_rng(self):
        assert (
            place_keygates(30, 10, random.Random(5)).keygate_positions
            == place_keygates(30, 10, random.Random(5)).keygate_positions
        )


class TestTpm:
    def test_compare(self):
        tpm = TamperProofMemory.with_key([1, 0, 1])
        assert tpm.compare([1, 0, 1])
        assert not tpm.compare([1, 0, 0])
        assert not tpm.compare([1, 0])

    def test_secret_not_in_repr(self):
        tpm = TamperProofMemory.with_key([1, 0, 1])
        assert "1" not in repr(tpm).replace("width=3", "")

    def test_rejects_non_bits(self):
        with pytest.raises(ValueError):
            TamperProofMemory.with_key([0, 2])

    def test_authentication_selects_prng_on_mismatch(self):
        auth = AuthenticationScheme(TamperProofMemory.with_key([1, 1, 0]))
        auth.authenticate([0, 0, 0])
        # Shift with wrong key: PRNG drives the gates.
        assert auth.select_key(1, [0, 1, 0]) == [0, 1, 0]
        # Capture: always the TPM key.
        assert auth.select_key(0, [0, 1, 0]) == [1, 1, 0]

    def test_authentication_selects_secret_on_match(self):
        auth = AuthenticationScheme(TamperProofMemory.with_key([1, 1, 0]))
        auth.authenticate([1, 1, 0])
        assert auth.select_key(1, [0, 1, 0]) == [1, 1, 0]

    def test_bad_scan_enable(self):
        auth = AuthenticationScheme(TamperProofMemory.with_key([1]))
        with pytest.raises(ValueError):
            auth.select_key(2, [0])


class TestEffDynLock:
    def test_seed_width_equals_keygates(self):
        netlist = s27_netlist()
        with pytest.raises(ValueError):
            EffDynLock(
                netlist=netlist,
                spec=ScanChainSpec(n_flops=3, keygate_positions=(0,)),
                lfsr_taps=(0, 1),
                seed=(1, 0),  # two bits for one gate
                secret_key=(0,),
            )

    def test_zero_seed_rejected(self):
        with pytest.raises(ValueError):
            lock_with_effdyn(
                s27_netlist(), key_bits=2, rng=random.Random(0), seed=[0, 0]
            )

    def test_explicit_seed_respected(self):
        lock = lock_with_effdyn(
            s27_netlist(), key_bits=2, rng=random.Random(0), seed=[1, 1]
        )
        assert lock.seed == (1, 1)

    def test_public_view_hides_secrets(self):
        lock = lock_with_effdyn(s27_netlist(), key_bits=2, rng=random.Random(1))
        view = lock.public_view()
        assert not hasattr(view, "seed")
        assert view.lfsr_width == 2
        assert view.spec == lock.spec

    def test_authenticated_tester_sees_clean_scan(self):
        netlist = s27_netlist()
        lock = lock_with_effdyn(netlist, key_bits=2, rng=random.Random(2))
        oracle = lock.make_oracle(test_key=list(lock.secret_key))
        assert not oracle.obfuscation_enabled
        rng = random.Random(3)
        pattern = random_bits(3, rng)
        response = oracle.query(pattern)
        sim = SequentialSimulator(netlist)
        sim.set_state_vector(pattern)
        sim.step({net: 0 for net in netlist.inputs})
        assert response.scan_out == sim.get_state_vector()

    def test_wrong_test_key_enables_obfuscation(self):
        lock = lock_with_effdyn(s27_netlist(), key_bits=2, rng=random.Random(2))
        wrong = [1 - b for b in lock.secret_key]
        assert lock.make_oracle(test_key=wrong).obfuscation_enabled


class TestEffStatic:
    def test_key_width_enforced(self):
        lock = lock_with_eff(s27_netlist(), key_bits=2, rng=random.Random(0))
        assert len(lock.secret_key) == 2

    def test_constant_keystream(self):
        ks = ConstantKeystream([1, 0])
        assert ks.next_key() == [1, 0]
        ks.restart()
        assert ks.next_key() == [1, 0]

    def test_all_zero_key_is_transparent(self):
        netlist = s27_netlist()
        lock = lock_with_eff(
            netlist, key_bits=2, rng=random.Random(1), secret_key=[0, 0]
        )
        oracle = lock.make_oracle()
        rng = random.Random(4)
        pattern = random_bits(3, rng)
        response = oracle.query(pattern)
        sim = SequentialSimulator(netlist)
        sim.set_state_vector(pattern)
        sim.step({net: 0 for net in netlist.inputs})
        assert response.scan_out == sim.get_state_vector()


class TestDos:
    def test_key_constant_within_query_after_restart(self):
        rng = random.Random(5)
        config = GeneratorConfig(n_flops=6, n_inputs=3, n_outputs=2)
        netlist = generate_circuit(config, rng, name="d")
        lock = lock_with_dos(netlist, key_bits=3, rng=rng, period_p=1)
        oracle = lock.make_oracle()
        # Repeatability across queries (restart pins the key).
        pattern = random_bits(6, random.Random(6))
        assert oracle.query(pattern).scan_out == oracle.query(pattern).scan_out

    @pytest.mark.parametrize("period_p", [1, 2, 3])
    def test_update_schedule_closed_form(self, period_p):
        """``key_update_of_edge`` is the keystream's schedule, edge by edge."""
        seed = [1, 0, 1, 1, 0]
        taps = default_taps(5)
        probe = FibonacciLfsr(width=5, seed_bits=seed, taps=taps)
        updates = [list(probe.advance()) for _ in range(8)]
        keystream = PerPatternKeystream(
            FibonacciLfsr(width=5, seed_bits=seed, taps=taps), 6, period_p
        )
        for edge in range(40):
            assert keystream.next_key() == updates[key_update_of_edge(edge, 6, period_p)]

    def test_public_view_carries_period(self):
        lock = lock_with_dos(
            s27_netlist(), key_bits=2, rng=random.Random(0), period_p=4
        )
        assert lock.public_view().period_p == 4


class TestRll:
    @pytest.mark.parametrize("trial", range(5))
    def test_correct_key_restores_function(self, trial):
        rng = random.Random(200 + trial)
        config = GeneratorConfig(n_flops=5, n_inputs=4, n_outputs=3)
        netlist = generate_circuit(config, rng, name=f"r{trial}")
        core, ppi, _ = extract_combinational_core(netlist)
        lock = lock_combinational_rll(core, key_bits=6, rng=rng)
        for _ in range(8):
            bits = {net: rng.randrange(2) for net in core.inputs}
            locked_inputs = dict(bits)
            locked_inputs.update(zip(lock.key_inputs, lock.secret_key))
            original = evaluate(core, bits)
            locked = evaluate(lock.locked, locked_inputs)
            for net in core.outputs:
                assert locked[net] == original[net]

    def test_wrong_key_corrupts_some_output(self):
        rng = random.Random(300)
        config = GeneratorConfig(n_flops=5, n_inputs=4, n_outputs=3)
        netlist = generate_circuit(config, rng, name="rw")
        core, _, _ = extract_combinational_core(netlist)
        lock = lock_combinational_rll(core, key_bits=6, rng=rng)
        wrong_key = [1 - b for b in lock.secret_key]
        corrupted = False
        for _ in range(20):
            bits = {net: rng.randrange(2) for net in core.inputs}
            locked_inputs = dict(bits)
            locked_inputs.update(zip(lock.key_inputs, wrong_key))
            original = evaluate(core, bits)
            locked = evaluate(lock.locked, locked_inputs)
            if any(locked[n] != original[n] for n in core.outputs):
                corrupted = True
                break
        assert corrupted

    def test_too_many_key_bits_rejected(self):
        netlist = s27_netlist()
        with pytest.raises(ValueError):
            lock_combinational_rll(netlist, key_bits=100, rng=random.Random(0))


class TestDfs:
    def test_scan_out_blocked(self):
        lock = lock_with_dfs(s27_netlist(), key_bits=3, rng=random.Random(0))
        oracle = lock.make_oracle()
        with pytest.raises(PermissionError):
            oracle.scan_out()

    def test_load_and_observe_uses_secret_key(self):
        netlist = s27_netlist()
        lock = lock_with_dfs(netlist, key_bits=3, rng=random.Random(1))
        oracle = lock.make_oracle()
        rng = random.Random(2)
        for _ in range(10):
            state = random_bits(3, rng)
            pis = random_bits(4, rng)
            observed = oracle.load_and_observe(state, pis)
            # Expected: original (unlocked) circuit's POs for that state.
            values = evaluate(
                netlist,
                dict(zip(netlist.inputs, pis)),
                dict(zip(netlist.dff_q_nets(), state)),
            )
            assert observed == [values[n] for n in netlist.outputs]

    def test_input_validation(self):
        lock = lock_with_dfs(s27_netlist(), key_bits=3, rng=random.Random(1))
        oracle = lock.make_oracle()
        with pytest.raises(ValueError):
            oracle.load_and_observe([0, 1])
        with pytest.raises(ValueError):
            oracle.load_and_observe([0, 1, 0], [1])
