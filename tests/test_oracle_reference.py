"""The chip oracles against their edge-by-edge reference protocol.

``scan_reference`` keeps the protocol as the chip runs it (power-on reset,
every shift edge simulated, dict-walk capture).  The runtime oracles must
give bit-identical ``scan_out`` and ``primary_outputs`` and the same
``query_count``/``shift_cycles`` on random queries, for every keystream
family and chain layout the defenses use.
"""

import random

import pytest
from scan_reference import (
    ReferenceIoOracle,
    ReferenceMultiChainScanOracle,
    ReferenceScanOracle,
)

from repro.bench_suite.generator import GeneratorConfig, generate_circuit
from repro.locking.dos import PerPatternKeystream, lock_with_dos
from repro.locking.eff import ConstantKeystream
from repro.locking.effdyn import lock_with_effdyn
from repro.locking.iolock import IoOracle, lock_core_with_rll
from repro.locking.scramble import lock_with_scramble
from repro.netlist.netlist import NetlistError
from repro.prng.lfsr import FibonacciLfsr, Keystream
from repro.prng.nonlinear import NonlinearPrng
from repro.prng.polynomials import default_taps
from repro.scan.chain import ScanChainSpec
from repro.scan.multichain import MultiChainScanOracle, MultiChainSpec
from repro.scan.oracle import ScanOracle
from repro.util.bitvec import random_bits


def circuit(seed: int, n_flops: int = 10):
    rng = random.Random(seed)
    config = GeneratorConfig(n_flops=n_flops, n_inputs=4, n_outputs=3)
    return generate_circuit(config, rng, name=f"ref{seed}"), rng


def effdyn_pair(seed: int):
    netlist, rng = circuit(seed)
    lock = lock_with_effdyn(netlist, key_bits=5, rng=rng)
    ref = ReferenceScanOracle(netlist, lock.spec, lock.keystream())
    return lock.make_oracle(), ref


def effdyn_auth_pair(seed: int):
    netlist, rng = circuit(seed)
    lock = lock_with_effdyn(netlist, key_bits=5, rng=rng)
    ref = ReferenceScanOracle(
        netlist, lock.spec, lock.keystream(), obfuscation_enabled=False
    )
    oracle = lock.make_oracle(test_key=list(lock.secret_key))
    assert not oracle.obfuscation_enabled
    return oracle, ref


def dos_pair(seed: int, period_p: int):
    netlist, rng = circuit(seed)
    lock = lock_with_dos(netlist, key_bits=5, rng=rng, period_p=period_p)
    n = lock.spec.n_flops

    def keystream():
        lfsr = FibonacciLfsr(width=5, seed_bits=list(lock.seed), taps=lock.lfsr_taps)
        return PerPatternKeystream(lfsr, 2 * n, period_p)

    # A gate right before the last flop sees the key update that DOS
    # makes on a query's final unload edge when period_p == 1.
    spec = ScanChainSpec(n, tuple(sorted({0, 3, n - 2})))
    return (
        ScanOracle(netlist, spec, keystream()),
        ReferenceScanOracle(netlist, spec, keystream()),
    )


def nonlinear_pair(seed: int):
    netlist, rng = circuit(seed)
    spec = ScanChainSpec(10, (1, 4, 5, 8))
    seed_bits = [1, 0, 1, 1, 0, 1]

    def keystream():
        return NonlinearPrng(6, seed_bits, taps=default_taps(6))

    return (
        ScanOracle(netlist, spec, keystream()),
        ReferenceScanOracle(netlist, spec, keystream()),
    )


def constant_pair(seed: int):
    netlist, rng = circuit(seed)
    spec = ScanChainSpec(10, (0, 2, 7))
    key = [1, 0, 1]
    return (
        ScanOracle(netlist, spec, ConstantKeystream(key)),
        ReferenceScanOracle(netlist, spec, ConstantKeystream(key)),
    )


def multichain_pair(seed: int):
    netlist, rng = circuit(seed, n_flops=11)
    spec = MultiChainSpec(
        chain_lengths=(4, 4, 3), keygates=((0, 0), (1, 2), (2, 1), (0, 2))
    )
    seed_bits = [1, 1, 0, 1]

    def keystream():
        return Keystream(FibonacciLfsr(width=4, seed_bits=seed_bits, taps=default_taps(4)))

    return (
        MultiChainScanOracle(netlist, spec, keystream()),
        ReferenceMultiChainScanOracle(netlist, spec, keystream()),
    )


def scramble_pair(seed: int):
    netlist, rng = circuit(seed, n_flops=12)
    lock = lock_with_scramble(netlist, key_bits=3, rng=rng)
    oracle = lock.make_oracle()
    ref = lock.make_oracle()
    ref._inner = ReferenceMultiChainScanOracle(
        netlist, lock.chains, ConstantKeystream([]), obfuscation_enabled=False
    )
    return oracle, ref


SINGLE_CHAIN = {
    "effdyn": effdyn_pair,
    "effdyn-authenticated": effdyn_auth_pair,
    "dos-p1": lambda seed: dos_pair(seed, 1),
    "dos-p3": lambda seed: dos_pair(seed, 3),
    "nonlinear": nonlinear_pair,
    "constant": constant_pair,
}
ALL_PAIRS = {**SINGLE_CHAIN, "multichain": multichain_pair, "scramble": scramble_pair}


def assert_same_answers(oracle, ref, rng, n_queries=24, unlocked=False):
    n = len(oracle.netlist.dffs)
    n_pi = len(oracle.netlist.inputs)
    for _ in range(n_queries):
        scan_in = random_bits(n, rng)
        pis = None if rng.random() < 0.2 else random_bits(n_pi, rng)
        n_captures = rng.randint(1, 3)
        if unlocked:
            got = oracle.unlocked_query(scan_in, pis, n_captures=n_captures)
            want = ref.unlocked_query(scan_in, pis, n_captures=n_captures)
        else:
            got = oracle.query(scan_in, pis, n_captures=n_captures)
            want = ref.query(scan_in, pis, n_captures=n_captures)
        assert got.scan_out == want.scan_out
        assert got.primary_outputs == want.primary_outputs
    assert oracle.query_count == ref.query_count
    if hasattr(ref, "shift_cycles"):
        assert oracle.shift_cycles == ref.shift_cycles


class TestAgainstReferenceProtocol:
    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("family", sorted(ALL_PAIRS))
    def test_query_is_bit_identical(self, family, seed):
        oracle, ref = ALL_PAIRS[family](seed)
        assert_same_answers(oracle, ref, random.Random(seed))

    @pytest.mark.parametrize("family", sorted(SINGLE_CHAIN))
    def test_unlocked_query_is_bit_identical(self, family):
        oracle, ref = SINGLE_CHAIN[family](7)
        rng = random.Random(7)
        assert_same_answers(oracle, ref, rng, n_queries=8, unlocked=True)
        # Interleaving bypassed and obfuscated queries keeps both right.
        assert_same_answers(oracle, ref, rng, n_queries=8)

    @pytest.mark.parametrize("seed", range(3))
    def test_io_oracle_matches_dict_walk(self, seed):
        netlist, rng = circuit(seed)
        lock = lock_core_with_rll(netlist, key_bits=4, rng=rng)
        oracle = lock.make_oracle()
        ref = ReferenceIoOracle(lock.original)
        for _ in range(24):
            x_bits = random_bits(len(oracle.inputs), rng)
            assert oracle.query(x_bits) == ref.query(x_bits)
        assert oracle.query_count == ref.query_count


class CountingKeystream:
    """Wraps a keystream and counts power-on resets."""

    def __init__(self, inner):
        self.inner = inner
        self.width = inner.width
        self.restarts = 0

    def next_key(self):
        return self.inner.next_key()

    def restart(self):
        self.restarts += 1
        self.inner.restart()


class TestMasksDerivedOnce:
    def test_one_restart_per_capture_count(self):
        netlist, _ = circuit(0)
        keystream = CountingKeystream(
            Keystream(FibonacciLfsr(width=4, seed_bits=[1, 0, 0, 1], taps=default_taps(4)))
        )
        oracle = ScanOracle(netlist, ScanChainSpec(10, (1, 5, 8)), keystream)
        rng = random.Random(1)
        for n_captures in (1, 2, 1, 2, 1):
            oracle.query(random_bits(10, rng), n_captures=n_captures)
        assert keystream.restarts == 2
        assert oracle.query_count == 5


class TestInputChecks:
    """Bad bits raise NetlistError and bad widths ValueError, as before."""

    def scan_oracles(self):
        return [effdyn_pair(0)[0], multichain_pair(0)[0]]

    def test_non_bit_scan_in_rejected(self):
        for oracle in self.scan_oracles():
            n = len(oracle.netlist.dffs)
            with pytest.raises(NetlistError):
                oracle.query([0] * (n - 1) + [2])
            assert oracle.query_count == 0

    def test_non_bit_primary_input_rejected(self):
        for oracle in self.scan_oracles():
            n = len(oracle.netlist.dffs)
            n_pi = len(oracle.netlist.inputs)
            with pytest.raises(NetlistError):
                oracle.query([0] * n, [0] * (n_pi - 1) + [-1])

    def test_wrong_widths_rejected(self):
        for oracle in self.scan_oracles():
            n = len(oracle.netlist.dffs)
            n_pi = len(oracle.netlist.inputs)
            with pytest.raises(ValueError):
                oracle.query([0] * (n + 1))
            with pytest.raises(ValueError):
                oracle.query([0] * n, [0] * (n_pi + 1))

    def test_io_oracle_checks(self):
        netlist, rng = circuit(0)
        oracle = lock_core_with_rll(netlist, key_bits=4, rng=rng).make_oracle()
        assert isinstance(oracle, IoOracle)
        width = len(oracle.inputs)
        with pytest.raises(NetlistError):
            oracle.query([0] * (width - 1) + [3])
        with pytest.raises(ValueError):
            oracle.query([0] * (width - 1))
