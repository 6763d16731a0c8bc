"""DOS: dynamically obfuscated scan with per-pattern key updates.

Wang et al. (TCAD 2017) update the LFSR-generated key after every ``p``
test patterns instead of every clock cycle; within one pattern the key is
static.  The paper notes DynUnlock "can be adjusted" to such less rigorous
schemes -- the adjustment (implemented in
:mod:`repro.attack.scansat_dyn`) exploits the power-on reset: restarting
the chip before every query pins the key to the first LFSR update, which
reduces the defense to a static overlay whose key is ``T @ seed`` --
except on the edge that completes the pattern, which with ``p == 1``
already sees the second update (:func:`key_update_of_edge`).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Sequence

from repro.locking.keygates import place_keygates
from repro.netlist.netlist import Netlist
from repro.prng.lfsr import FibonacciLfsr
from repro.prng.polynomials import default_taps
from repro.scan.chain import ScanChainSpec
from repro.scan.oracle import ScanOracle
from repro.util.bitvec import random_bits


def key_update_of_edge(edge: int, edges_per_pattern: int, period_p: int) -> int:
    """Which LFSR update DOS has in force on ``edge`` after a reset.

    ``edge`` counts from the last power-on reset, 0-based; the result is
    0 for the first update (made at reset), 1 for the next, and so on --
    the symbolic LFSR's cycle index.  DOS updates again once every
    ``period_p`` completed patterns of ``edges_per_pattern`` edges, and
    the update is already in force on the edge that completes the
    pattern.  With ``period_p == 1`` that is the last edge of a
    single-capture query.  This is :class:`PerPatternKeystream`'s
    schedule in closed form, for the attack model.
    """
    return (edge + 1) // edges_per_pattern // max(1, period_p)


class PerPatternKeystream:
    """Keystream that holds its key for ``2 * n_flops`` edges of a pattern.

    The scan protocol consumes one key per edge; this adapter advances the
    underlying LFSR only once per ``p`` completed patterns, matching DOS
    semantics.  ``restart`` models power-on reset: the LFSR reloads its
    seed and the pattern counter clears -- which is exactly the behaviour
    the adjusted attack leans on.
    """

    def __init__(self, lfsr: FibonacciLfsr, edges_per_pattern: int, period_p: int):
        self._lfsr = lfsr
        self._edges_per_pattern = edges_per_pattern
        self._period_p = max(1, period_p)
        self._edge_count = 0
        self._current = list(lfsr.advance())  # key for the first pattern
        self.width = lfsr.width

    def next_key(self) -> list[int]:
        patterns_done = self._edge_count // self._edges_per_pattern
        self._edge_count += 1
        new_patterns_done = self._edge_count // self._edges_per_pattern
        if (
            new_patterns_done != patterns_done
            and new_patterns_done % self._period_p == 0
        ):
            self._current = list(self._lfsr.advance())
        return list(self._current)

    def restart(self) -> None:
        self._lfsr.reset()
        self._edge_count = 0
        self._current = list(self._lfsr.advance())


@dataclass(frozen=True)
class DosPublicView:
    """Reverse-engineerable facts about a DOS-locked chip."""
    spec: ScanChainSpec
    lfsr_width: int
    lfsr_taps: tuple[int, ...]
    period_p: int


@dataclass
class DosLock:
    """A circuit locked with DOS (key update every ``period_p`` patterns)."""

    netlist: Netlist
    spec: ScanChainSpec
    lfsr_taps: tuple[int, ...]
    seed: tuple[int, ...]
    period_p: int = 1

    @property
    def key_bits(self) -> int:
        return len(self.seed)

    def public_view(self) -> DosPublicView:
        return DosPublicView(
            spec=self.spec,
            lfsr_width=len(self.seed),
            lfsr_taps=self.lfsr_taps,
            period_p=self.period_p,
        )

    def make_oracle(self) -> ScanOracle:
        lfsr = FibonacciLfsr(
            width=len(self.seed), seed_bits=list(self.seed), taps=self.lfsr_taps
        )
        edges_per_pattern = 2 * self.spec.n_flops
        return ScanOracle(
            netlist=self.netlist,
            spec=self.spec,
            keystream=PerPatternKeystream(lfsr, edges_per_pattern, self.period_p),
            obfuscation_enabled=True,
        )


def lock_with_dos(
    netlist: Netlist,
    key_bits: int,
    rng: random.Random,
    period_p: int = 1,
    taps: Sequence[int] | None = None,
    placement: str = "random",
    seed: Sequence[int] | None = None,
) -> DosLock:
    """Lock a sequential netlist with DOS (most rigorous when p = 1)."""
    spec = place_keygates(netlist.n_dffs, key_bits, rng, policy=placement)
    chosen_taps = tuple(taps) if taps is not None else default_taps(key_bits)
    if seed is None:
        seed_bits = random_bits(key_bits, rng)
        while not any(seed_bits):
            seed_bits = random_bits(key_bits, rng)
    else:
        seed_bits = [int(b) for b in seed]
    return DosLock(
        netlist=netlist,
        spec=spec,
        lfsr_taps=chosen_taps,
        seed=tuple(seed_bits),
        period_p=period_p,
    )
