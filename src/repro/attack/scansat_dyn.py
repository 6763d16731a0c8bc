"""The DOS adjustment: DynUnlock against per-pattern dynamic keys.

DOS updates its LFSR key every ``p`` patterns rather than every cycle.
The paper notes DynUnlock "can be adjusted to break other less rigorous
scan locking techniques"; the adjustment is embarrassingly small given
the power-on-reset threat model: restarting the chip before each query
freezes the key at the first LFSR update, ``T @ seed``, except on the
edge that completes the pattern when ``p == 1``, which already sees the
second update.  The attack then runs the ``dos_restart`` model -- a
*static* overlay whose key bits are those unrolled LFSR outputs, each
edge tagged with the update DOS has in force on it
(:func:`repro.locking.dos.key_update_of_edge`) -- and recovers the seed directly
(the LFSR equations are part of the model, so candidates are seeds, not
intermediate keys).  The DIP loop inherits the incremental solver
session from :class:`repro.attack.satattack.SatAttack`; refinement runs
bit-parallel over the candidate lanes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.attack.bruteforce import refine_candidates_by_replay
from repro.attack.satattack import SatAttack, SatAttackConfig
from repro.core.modeling import build_combinational_model
from repro.locking.dos import DosLock, DosPublicView
from repro.netlist.netlist import Netlist
from repro.opt import optimize, resolve_level
from repro.scan.oracle import ScanOracle
from repro.util.timing import Stopwatch


@dataclass
class ScanSatDynResult:
    """Outcome of the DOS-adjusted attack (recovered LFSR seed)."""
    success: bool
    recovered_seed: list[int] | None
    seed_candidates: list[list[int]]
    iterations: int
    runtime_s: float


def scansat_dyn_attack(
    netlist: Netlist,
    public_view: DosPublicView,
    oracle: ScanOracle,
    candidate_limit: int = 256,
    verify_patterns: int = 16,
    timeout_s: float | None = None,
    rng_seed: int = 0xD05,
    opt_level: int | None = None,
) -> ScanSatDynResult:
    """Recover the DOS LFSR seed (works for any update period ``p``)."""
    watch = Stopwatch().start()
    model = build_combinational_model(
        netlist,
        spec=public_view.spec,
        taps=public_view.lfsr_taps,
        key_bits=public_view.lfsr_width,
        mode="dos_restart",
        period_p=public_view.period_p,
    )
    if resolve_level(opt_level) > 0:
        model.netlist = optimize(model.netlist, level=opt_level).netlist
    n_a = len(model.a_inputs)

    def oracle_fn(x_bits: list[int]) -> list[int]:
        response = oracle.query(x_bits[:n_a], x_bits[n_a:])
        observed = list(response.scan_out)
        if model.po_outputs:
            observed += list(response.primary_outputs)
        return observed

    attack = SatAttack(
        locked=model.netlist,
        key_inputs=model.key_inputs,
        oracle_fn=oracle_fn,
        config=SatAttackConfig(
            candidate_limit=candidate_limit,
            timeout_s=timeout_s,
            opt_level=0,  # the model above is already optimized
        ),
    )
    result = attack.run()

    recovered: list[int] | None = None
    if result.key_candidates:
        rng = random.Random(rng_seed)

        def replay(scan_in: list[int], pi: list[int]) -> list[int]:
            response = oracle.query(scan_in, pi)
            observed = list(response.scan_out)
            if model.po_outputs:
                observed += list(response.primary_outputs)
            return observed

        refinement = refine_candidates_by_replay(
            model, result.key_candidates, replay, rng, n_patterns=verify_patterns
        )
        recovered = _full_replay_survivor(
            netlist,
            public_view,
            oracle,
            refinement.survivors,
            random.Random(rng_seed ^ 0x51D),
            verify_patterns,
        )

    watch.stop()
    return ScanSatDynResult(
        success=recovered is not None,
        recovered_seed=recovered,
        seed_candidates=result.key_candidates,
        iterations=result.iterations,
        runtime_s=watch.total,
    )


def _full_replay_survivor(
    netlist: Netlist,
    public_view: DosPublicView,
    oracle: ScanOracle,
    survivors: list[list[int]],
    rng: random.Random,
    n_patterns: int,
) -> list[int] | None:
    """First survivor whose *full* keystream replay matches the chip.

    The model-based refinement trusts the ``dos_restart`` model.  As an
    independent check, rebuild the real per-pattern keystream oracle
    from each candidate seed and demand query-for-query agreement with
    the live chip -- the same criterion the fuzzer's independent
    attack-replay invariant applies.
    """
    from repro.locking.dos import PerPatternKeystream
    from repro.prng.lfsr import FibonacciLfsr
    from repro.util.bitvec import random_bits

    if not survivors:
        return None
    n = public_view.spec.n_flops
    patterns = [
        (random_bits(n, rng), random_bits(len(netlist.inputs), rng))
        for _ in range(n_patterns)
    ]
    live = [oracle.query(scan_in, pi) for scan_in, pi in patterns]
    for seed in survivors:
        try:
            lfsr = FibonacciLfsr(
                width=len(seed), seed_bits=seed, taps=public_view.lfsr_taps
            )
        except ValueError:  # degenerate seed (e.g. all-zero)
            continue
        replay = ScanOracle(
            netlist,
            public_view.spec,
            PerPatternKeystream(lfsr, 2 * n, public_view.period_p),
        )
        matches = True
        for (scan_in, pi), want in zip(patterns, live):
            got = replay.query(scan_in, pi)
            if (
                got.scan_out != want.scan_out
                or got.primary_outputs != want.primary_outputs
            ):
                matches = False
                break
        if matches:
            return seed
    return None


def scansat_dyn_attack_on_lock(lock: DosLock, **kwargs) -> ScanSatDynResult:
    """Convenience wrapper used by benches and examples."""
    return scansat_dyn_attack(
        lock.netlist, lock.public_view(), lock.make_oracle(), **kwargs
    )
