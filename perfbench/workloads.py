"""The three closed-loop workloads: one client, one process, one thread.

Each workload turns ``--seed`` into a list of inputs, runs one input at a
time (a *step*: a Table II cell, a SARLock attack, or a farm round), and
checks every step's output.  A step does ``work`` units of work (attacks,
DIPs or trials) and yields one or more latency samples.

Inputs come from one cost class per workload, so the deterministic work
counters of a run agree across seeds (README, "Cost classes"):

* ``table2_cold`` draws (circuit, LFSR seed index) cells whose attack
  recovers the exact seed with 200k-260k solver propagations;
* ``sarlock_dips`` attacks a fixed list of 6-bit SARLock locks of one
  circuit, which always take 2^6 - 1 DIPs and within 3% of the same
  propagations; the seed only rotates their order;
* ``farm_rounds`` runs a fixed list of farm seeds whose rounds cost
  within about 10% of each other; the seed only rotates their order.
"""

from __future__ import annotations

import hashlib
import os
import random
import tempfile
from dataclasses import dataclass, field, replace
from pathlib import Path

PROFILE_NAME = "quick"


@dataclass
class Step:
    """What one measured step did; ``latencies_s`` are raw seconds."""

    work: int
    ok: bool
    counters: dict[str, int | str]
    latencies_s: list[float] | None = None  # None: the step's own time
    detail: dict = field(default_factory=dict)


class WorkCounter:
    """Solver work done by the program, read from ``solver.stats``.

    Installed for the whole process, traced or not: one attribute read
    per solve call before and after, so it costs well under 0.1% of a
    step.  The totals are deterministic for a given input.
    """

    NAMES = ("propagations", "conflicts", "decisions", "learned")

    def __init__(self) -> None:
        self.totals = dict.fromkeys(self.NAMES + ("solve_calls",), 0)

    def install(self) -> None:
        from repro.sat.solver import CdclSolver

        original = CdclSolver.solve
        totals = self.totals

        def solve(solver, *args, **kwargs):
            stats = solver.stats
            p, c, d, n = stats.propagations, stats.conflicts, stats.decisions, stats.learned
            try:
                return original(solver, *args, **kwargs)
            finally:
                totals["propagations"] += stats.propagations - p
                totals["conflicts"] += stats.conflicts - c
                totals["decisions"] += stats.decisions - d
                totals["learned"] += stats.learned - n
                totals["solve_calls"] += 1

        CdclSolver.solve = solve

    def snapshot(self) -> dict[str, int]:
        return dict(self.totals)

    def since(self, snapshot: dict[str, int]) -> dict[str, int]:
        return {k: self.totals[k] - snapshot[k] for k in self.totals}


class Workload:
    """Base: subclasses set the class attributes and implement the hooks."""

    name = ""
    work_name = ""
    latency_name = ""
    #: Reference seconds one step takes; the step count of a run is
    #: ``--seconds`` divided by it, so it never depends on host speed.
    nominal_step_s = 1.0
    #: Counters compared across seeds and between repeats.
    work_counters: tuple[str, ...] = ()
    #: Work a step does when it succeeds (charged to a step that raises).
    step_work = 1
    #: Step counts are whole multiples of this, so every run has the same mix.
    cycle = 1
    #: Fewest steps of a run whose latency is one sample per step: the tail
    #: is the value with ten samples beyond it, so 24 steps put it at p58.
    min_steps = 1
    #: The untimed set-up step; the same in every run, whatever the seed.
    warmup_item = None

    def n_steps(self, seconds: float, tail: bool = True) -> int:
        n = max(self.min_steps if tail else 1, round(seconds / self.nominal_step_s))
        return self.cycle * -(-n // self.cycle)

    def plan(self, seed: int, n: int) -> list:
        raise NotImplementedError

    def run(self, item) -> Step:
        raise NotImplementedError

    def finish(self, items: list, steps: list[Step]) -> None:
        """Cross-step checks after the run (none by default)."""

    def close(self) -> None:
        """Release what the workload made on disk."""


# ----------------------------------------------------------------------
class Table2Cold(Workload):
    """Uncached EFF-Dyn DynUnlock attacks, one quick Table II cell each."""

    name = "table2_cold"
    work_name = "attack"
    latency_name = "attack"
    nominal_step_s = 1.15
    work_counters = ("propagations", "conflicts", "solve_calls", "dips")

    #: LFSR seed indices per circuit whose attack converges to the exact
    #: seed with 200k-260k propagations.  s5378/s13207 are absent: at
    #: quick scale they leave 64 equivalent seed candidates.
    CELLS = {
        "s15850": [7, 17, 19, 28, 35, 38],
        "b20": [1, 5, 6, 7, 14, 20, 21, 26, 28, 33, 34, 39],
        "b21": [6, 11, 13, 25, 30, 39],
        "b22": [1, 13, 14, 15, 29, 35, 36],
    }
    warmup_item = ("b20", 0)
    cycle = len(CELLS)
    min_steps = 24

    def __init__(self, counter: WorkCounter) -> None:
        from repro.reports.profiles import PROFILES

        self.counter = counter
        self.profile = PROFILES[PROFILE_NAME]

    def plan(self, seed: int, n: int) -> list:
        """Circuits take turns, so every run has the same circuit mix; the
        seed picks the LFSR seed indices each circuit is attacked with."""
        rng = random.Random(f"{self.name}/{seed}")
        picks = {c: rng.sample(indices, len(indices)) for c, indices in self.CELLS.items()}
        items = []
        for i in range(n):
            circuit = list(self.CELLS)[i % self.cycle]
            order = picks[circuit]
            items.append((circuit, order[(i // self.cycle) % len(order)]))
        return items

    def run(self, item) -> Step:
        # Imported per call, like every program entry point a step uses, so
        # a traced step calls the wrappers the tracer bound in the modules.
        from repro.reports.experiments import table2_rows, table2_specs
        from repro.runner.scheduler import run_jobs

        benchmark, seed_index = item
        before = self.counter.snapshot()
        (spec,) = table2_specs(self.profile, [benchmark])
        spec = replace(spec, params={**spec.params, "seed_index": seed_index})
        report = run_jobs([spec], jobs=1, store=None)
        counters = self.counter.since(before)
        outcome = report.outcomes[0]
        if not outcome.ok:
            return Step(1, False, counters, detail={"error": str(outcome.error)})
        (row,) = table2_rows(report.outcomes)
        counters["dips"] = outcome.result["iterations"]
        ok = row.success_rate == 1.0 and row.exact_seed_rate == 1.0
        return Step(1, ok, counters, detail={"candidates": row.n_seed_candidates})


# ----------------------------------------------------------------------
class SarlockDips(Workload):
    """The registry's plain SAT attack on 6-bit SARLock locks of s5378."""

    name = "sarlock_dips"
    work_name = "dip"
    latency_name = "dip"
    nominal_step_s = 1.1
    work_counters = ("propagations", "conflicts", "solve_calls", "dips")
    BENCHMARK = "s5378"
    KEY_BITS = 6
    step_work = 2**KEY_BITS - 1
    #: Lock seeds whose attack takes 137k-146k propagations, within 3% of
    #: the median of lock seeds 0-79.
    LOCK_SEEDS = [3, 4, 5, 10, 12, 14, 16, 18, 19, 21, 22, 29, 43, 53, 55, 56, 62, 63,
                  66, 72, 76, 78]
    warmup_item = 0

    def __init__(self, counter: WorkCounter) -> None:
        from repro.bench_suite.registry import build_benchmark_netlist
        from repro.matrix.registry import ensure_builtins, get_defense
        from repro.reports.profiles import PROFILES

        ensure_builtins()
        self.counter = counter
        self.profile = PROFILES[PROFILE_NAME]
        self.defense = get_defense("sarlock")
        self.netlist = build_benchmark_netlist(self.BENCHMARK, scale=self.profile.scale)

    def plan(self, seed: int, n: int) -> list:
        """The seed rotates the fixed lock list; a full run attacks them all."""
        k = seed % len(self.LOCK_SEEDS)
        order = self.LOCK_SEEDS[k:] + self.LOCK_SEEDS[:k]
        return [order[i % len(order)] for i in range(n)]

    def run(self, item) -> Step:
        """Build the lock and run the attack the way the registry's ``sat``
        plugin does, plus the iteration hook that times each DIP."""
        from repro.attack.satattack import SatAttack, SatAttackConfig
        from repro.fuzz.invariants import check_attack_replay
        from repro.matrix.registry import AttackOutcome

        before = self.counter.snapshot()
        lock = self.defense.build(self.netlist, self.KEY_BITS, random.Random(item))
        oracle = lock.make_oracle()
        elapsed: list[float] = []
        attack = SatAttack(
            locked=lock.locked,
            key_inputs=lock.key_inputs,
            oracle_fn=oracle.query,
            config=SatAttackConfig(
                candidate_limit=self.profile.candidate_limit,
                timeout_s=self.profile.timeout_s,
                iteration_hook=lambda record: elapsed.append(record.elapsed_s),
            ),
        )
        result = attack.run()
        key = result.unique_key()
        outcome = AttackOutcome(
            success=key is not None,
            recovered_key=key,
            iterations=result.iterations,
            queries=oracle.query_count,
            runtime_s=result.runtime_s,
            verified=key is not None,
        )
        violations = check_attack_replay(lock, outcome, random.Random(item ^ 0x5A))
        counters = self.counter.since(before)
        counters["dips"] = result.iterations
        verified = key is not None and not violations
        ok = verified and result.iterations == 2**self.KEY_BITS - 1
        latencies = [b - a for a, b in zip([0.0] + elapsed, elapsed)]
        return Step(result.iterations, ok, counters, latencies_s=latencies)


# ----------------------------------------------------------------------
class FarmRounds(Workload):
    """Fuzz-farm rounds of 24 heterogeneous trials, each in a fresh farm."""

    name = "farm_rounds"
    work_name = "trial"
    latency_name = "round"
    nominal_step_s = 1.0
    work_counters = ("propagations", "conflicts", "solve_calls", "trials")
    #: Farm seeds whose first round cost 0.82-0.94 reference seconds when
    #: 18 candidates were timed three times each.
    FARM_SEEDS = [0, 4, 7, 14, 26, 28, 32, 35, 39, 53, 55, 56]
    ROUND_TRIALS = 24
    step_work = ROUND_TRIALS
    cycle = len(FARM_SEEDS)
    min_steps = 24
    warmup_item = 13  # not in FARM_SEEDS, cost like them

    def __init__(self, counter: WorkCounter, workdir: Path) -> None:
        from repro.api import run_farm
        from repro.farm import FarmConfig
        from repro.runner.stores import open_store

        self.counter = counter
        self._run_farm, self._config, self._open_store = run_farm, FarmConfig, open_store
        workdir.mkdir(parents=True, exist_ok=True)
        self._tmp = tempfile.TemporaryDirectory(dir=workdir, prefix="farm-")
        self._n = 0

    def plan(self, seed: int, n: int) -> list:
        """The seed only rotates the fixed list: every run does the same work."""
        k = seed % self.cycle
        order = self.FARM_SEEDS[k:] + self.FARM_SEEDS[:k]
        return [order[i % self.cycle] for i in range(n)]

    def run(self, item) -> Step:
        self._n += 1
        root = Path(self._tmp.name) / f"round{self._n}"
        before = self.counter.snapshot()
        store = self._open_store(root / "store")
        try:
            report = self._run_farm(
                profile=PROFILE_NAME,
                farm_config=self._config(
                    seed=item,
                    round_trials=self.ROUND_TRIALS,
                    max_rounds=1,
                    state_dir=str(root / "state"),
                ),
                store=store,
            )
        finally:
            store.close()
        counters = self.counter.since(before)
        (stats,) = report.rounds
        counters.update(
            trials=stats.trials,
            violations=stats.violations,
            corpus_writes=stats.new_entries + stats.minimized,
        )
        ok = stats.violations == 0 and stats.trials == self.ROUND_TRIALS
        return Step(stats.trials, ok, counters, detail={"state": str(root / "state")})

    def finish(self, items: list, steps: list[Step]) -> None:
        """A repeated farm seed must leave byte-identical state and counters."""
        first: dict[int, dict] = {}
        for item, step in zip(items, steps):
            step.counters["state_sha256"] = _tree_digest(Path(step.detail.pop("state")))
            if item in first:
                if step.counters != first[item]:
                    step.ok = False
                    step.detail["mismatch"] = "repeat of this farm seed differs"
            else:
                first[item] = step.counters

    def close(self) -> None:
        self._tmp.cleanup()


def _tree_digest(root: Path) -> str:
    """SHA-256 over every file's relative path and bytes under ``root``."""
    digest = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        digest.update(os.fsencode(path.relative_to(root)))
        digest.update(b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def make(name: str, counter: WorkCounter, workdir: Path) -> Workload:
    if name == Table2Cold.name:
        return Table2Cold(counter)
    if name == SarlockDips.name:
        return SarlockDips(counter)
    if name == FarmRounds.name:
        return FarmRounds(counter, workdir)
    raise ValueError(f"unknown workload {name!r}")


NAMES = (Table2Cold.name, SarlockDips.name, FarmRounds.name)
