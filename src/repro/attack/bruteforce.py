"""Candidate refinement by oracle replay.

Tables II and III of the paper report benchmarks where the SAT attack
leaves up to 128 seed candidates, "which can be easily brute forced to
obtain the correct seed".  This module implements that brute-force step:
replay fresh random patterns against the real chip and keep only the
candidates whose *predicted* scrambled responses match.

Prediction evaluates the combinational attack model with the candidate
seed plugged into its key inputs -- the same artifact the SAT attack ran
on, so no additional modeling code is trusted here.  Evaluation is
bit-parallel: each (pattern, candidate) pair occupies one packed lane,
so a single pass of the :class:`repro.sim.logicsim.BitParallelSimulator`
predicts every candidate on every replayed pattern at once.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Sequence

from repro.core.modeling import CombinationalModel
from repro.netlist.netlist import Netlist, NetlistError
from repro.sim.logicsim import simulator_for
from repro.util.bitvec import lane_mask, pack_lanes, random_bits


@dataclass
class ReplayModel:
    """The structural contract :func:`refine_candidates_by_replay` needs.

    A minimal stand-in for :class:`~repro.core.modeling.CombinationalModel`
    for attacks whose locked circuit is not a scan-overlay model -- the
    scramble MUX model and the brute-force adapters both build one.
    """

    netlist: Netlist
    a_inputs: list[str]
    pi_inputs: list[str]
    key_inputs: list[str]
    b_outputs: list[str]
    po_outputs: list[str]

    @property
    def x_inputs(self) -> list[str]:
        return self.a_inputs + self.pi_inputs

    @property
    def observed_outputs(self) -> list[str]:
        return self.b_outputs + self.po_outputs


@dataclass
class RefinementResult:
    """Surviving candidates after oracle-replay filtering."""
    survivors: list[list[int]]
    n_patterns_used: int
    n_candidates_in: int

    @property
    def unique(self) -> bool:
        """True when exactly one candidate survived."""
        return len(self.survivors) == 1


def refine_candidates_by_replay(
    model: CombinationalModel,
    candidates: Sequence[Sequence[int]],
    oracle_query: Callable[[list[int], list[int]], list[int]],
    rng: random.Random,
    n_patterns: int = 16,
    stop_at_one: bool = True,
) -> RefinementResult:
    """Filter seed candidates against the live oracle.

    ``oracle_query(scan_in, primary_inputs)`` must return the observed
    bits in the model's output order (scan-out by position, then POs).
    Candidates that mispredict any replayed pattern are eliminated.  With
    ``stop_at_one`` the loop ends as soon as a single survivor remains.

    All ``n_patterns`` patterns are drawn from ``rng`` up front (scan-in,
    then PI bits, per pattern) and every candidate's prediction for every
    pattern comes from one bit-parallel pass: lane ``p * K + k`` holds
    pattern ``p`` under candidate ``k``.  The oracle is still queried
    one pattern at a time, and only until the survivors are settled.
    """
    n_candidates = len(candidates)
    n_a = len(model.a_inputs)
    n_pi = len(model.pi_inputs)
    patterns = [
        (random_bits(n_a, rng), random_bits(n_pi, rng)) for _ in range(n_patterns)
    ]
    alive = list(range(n_candidates))  # lane offsets of the survivors
    predicted: list[int] | None = None
    block = lane_mask(n_candidates)
    patterns_used = 0

    for p, (scan_in, pi) in enumerate(patterns):
        if not alive or (stop_at_one and len(alive) == 1):
            break
        if predicted is None:
            predicted = _predict(model, patterns, candidates)
        observed = list(oracle_query(scan_in, pi))
        if len(observed) != len(predicted):
            raise ValueError("oracle returned wrong number of output bits")
        patterns_used += 1

        shift = p * n_candidates
        mismatch = 0
        for word, bit in zip(predicted, observed):
            lanes = (word >> shift) & block
            mismatch |= lanes ^ block if bit else lanes
        alive = [k for k in alive if not (mismatch >> k) & 1]

    return RefinementResult(
        survivors=[list(candidates[k]) for k in alive],
        n_patterns_used=patterns_used,
        n_candidates_in=n_candidates,
    )


def _predict(
    model: CombinationalModel,
    patterns: Sequence[tuple[list[int], list[int]]],
    candidates: Sequence[Sequence[int]],
) -> list[int]:
    """Every candidate's predicted outputs for every pattern, one pass.

    Returns one packed word per observed output; lane ``p * K + k`` is
    pattern ``p`` evaluated with candidate ``k`` in the key inputs.
    """
    n_candidates = len(candidates)
    block = lane_mask(n_candidates)
    blocks = [block << (p * n_candidates) for p in range(len(patterns))]
    repeat = sum(1 << (p * n_candidates) for p in range(len(patterns)))

    words: dict[str, int] = {}
    for nets, column in ((model.a_inputs, 0), (model.pi_inputs, 1)):
        for i, net in enumerate(nets):
            word = 0
            for pattern, lanes in zip(patterns, blocks):
                if pattern[column][i]:
                    word |= lanes
            words[net] = word
    # A K-lane candidate column times ``repeat`` copies it into every
    # pattern's block (the blocks do not overlap, so nothing carries).
    for net, column in zip(model.key_inputs, pack_lanes(candidates)):
        words[net] = column * repeat

    sim = simulator_for(model.netlist)
    free: list[int] = []
    for net in sim.free_nets:
        word = words.get(net)
        if word is None:
            raise NetlistError(f"missing packed value for net {net!r}")
        free.append(word)
    slots = sim.run_slots(free, n_candidates * len(patterns))
    index = sim.net_index
    return [slots[index[net]] for net in model.observed_outputs]
