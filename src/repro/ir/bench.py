"""Pure-vs-array benchmark harness behind ``dynunlock ir-bench``.

Measures the kernels the array IR accelerates -- packed-lane simulator
construction + a multi-pattern batch, Tseitin template compilation, and
a level-1 optimizer pass -- on the quick Table II locked models, once
with :mod:`repro.ir` forced off (the pure dict/gate-object walks) and
once forced on.  Both arms run the *same public entry points*; only the
:func:`repro.ir.set_enabled` toggle differs, which is exactly the
contract the IR claims: same results, less time.

Two correctness gates ride along with the timing:

* **kernel identity** -- per benchmark, the simulator outputs, compiled
  encoding (clauses, variable numbering, ``net_local`` order) and
  optimizer gate counts must be equal across arms;
* **attack identity** -- per benchmark and requested opt level, a full
  :func:`~repro.core.dynunlock.dynunlock` run must produce the same
  success flag, recovered seed, iteration count and candidate count in
  both arms.

The CLI turns the aggregate into a ``BENCH_ir.json`` artifact and fails
when the array arm is not at least ``--min-speedup`` faster or either
identity gate trips; CI additionally diffs ``array_total_s`` against
``benchmarks/baselines/ir_quick.json`` via
``scripts/check_bench_regression.py``.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Callable

from repro import ir
from repro.util.rng import hash_label


@dataclass
class IrBenchRow:
    """Per-benchmark measurement: one pure arm vs one array arm."""

    benchmark: str
    model_gates: int
    pure_s: float
    array_s: float
    kernel_match: bool
    identity_ok: bool
    identity_detail: list[str] = field(default_factory=list)

    @property
    def speedup(self) -> float:
        return self.pure_s / self.array_s if self.array_s > 0 else float("inf")


@dataclass
class IrBenchReport:
    """Aggregate over all benchmarks; the CLI's artifact source."""

    rows: list[IrBenchRow]
    n_patterns: int
    repeats: int
    opt_levels: tuple[int, ...]

    @property
    def pure_total_s(self) -> float:
        return sum(r.pure_s for r in self.rows)

    @property
    def array_total_s(self) -> float:
        return sum(r.array_s for r in self.rows)

    @property
    def speedup(self) -> float:
        total = self.array_total_s
        return self.pure_total_s / total if total > 0 else float("inf")

    @property
    def mismatches(self) -> list[str]:
        out: list[str] = []
        for row in self.rows:
            if not row.kernel_match:
                out.append(f"{row.benchmark}: kernel results differ between arms")
            out.extend(row.identity_detail)
        return out


def _patterns_for(netlist, n_patterns: int, label: str):
    """Deterministic random input batch for one model netlist."""
    rng = random.Random(hash_label(0, f"ir-bench/{label}"))
    nets = list(netlist.inputs)
    return [
        {net: rng.getrandbits(1) for net in nets} for _ in range(n_patterns)
    ]


def _kernel_once(netlist, lock, kb, patterns):
    """One timed kernel pass; returns (seconds, comparable fingerprint).

    Builds a fresh combinational model first (untimed -- model
    construction is identical in both arms) so no cache carried over
    from the other arm can flatter the timing, then times the three
    IR-accelerated kernels end to end.
    """
    from repro.core.modeling import build_combinational_model
    from repro.opt import optimize
    from repro.sat.tseitin import compile_encoding
    from repro.sim.logicsim import BitParallelSimulator

    model = build_combinational_model(netlist, lock.spec, lock.lfsr_taps, kb)
    mn = model.netlist
    t0 = time.perf_counter()
    sim = BitParallelSimulator(mn)
    outputs = sim.run_patterns(patterns)
    enc = compile_encoding(mn)
    stats = optimize(mn, level=1).stats
    elapsed = time.perf_counter() - t0
    fingerprint = (
        outputs,
        enc.n_locals,
        enc.shifted,
        list(enc.net_local.items()),
        stats.gates_after,
    )
    return elapsed, fingerprint


def _attack_signature(profile, netlist, lock, opt_level: int):
    """Outcome tuple a full attack must reproduce identically per arm."""
    from repro.core.dynunlock import DynUnlockConfig, dynunlock

    result = dynunlock(
        netlist,
        lock.public_view(),
        lock.make_oracle(),
        DynUnlockConfig(
            timeout_s=profile.timeout_s,
            candidate_limit=profile.candidate_limit,
            opt_level=opt_level,
        ),
    )
    seed = tuple(result.recovered_seed) if result.recovered_seed else None
    return (result.success, seed, result.iterations, result.n_seed_candidates)


def run_ir_bench(
    profile,
    benchmarks: list[str] | None = None,
    *,
    n_patterns: int = 1024,
    repeats: int = 3,
    opt_levels: tuple[int, ...] = (0, 1, 2),
    log: Callable[[str], None] | None = None,
) -> IrBenchReport:
    """Measure pure vs array kernels (and attack identity) per benchmark.

    Per-arm kernel time is the **minimum** over ``repeats`` fresh-model
    passes -- the standard microbenchmark reduction, since every source
    of noise on a shared box only ever adds time.  ``opt_levels`` may be
    empty to skip the (much slower) full-attack identity gate.
    """
    from repro.reports.cells import build_table2_lock
    from repro.reports.experiments import TABLE2_BENCHMARKS

    say = log or (lambda _msg: None)
    names = benchmarks or list(TABLE2_BENCHMARKS)
    rows: list[IrBenchRow] = []
    prior = ir.core._FORCED
    try:
        for bench in names:
            netlist, lock, kb = build_table2_lock(profile, bench)
            patterns = _patterns_for_model(netlist, lock, kb, n_patterns, bench)
            times = {False: float("inf"), True: float("inf")}
            prints = {}
            for arm in (False, True):
                ir.set_enabled(arm)
                for _ in range(repeats):
                    elapsed, fingerprint = _kernel_once(
                        netlist, lock, kb, patterns
                    )
                    times[arm] = min(times[arm], elapsed)
                prints[arm] = fingerprint
            kernel_match = prints[False] == prints[True]
            model_gates = prints[True][4] if kernel_match else prints[False][4]

            identity_detail: list[str] = []
            for level in opt_levels:
                ir.set_enabled(False)
                pure_sig = _attack_signature(profile, netlist, lock, level)
                ir.set_enabled(True)
                array_sig = _attack_signature(profile, netlist, lock, level)
                if pure_sig != array_sig:
                    identity_detail.append(
                        f"{bench}/opt{level}: pure {pure_sig} != array {array_sig}"
                    )
            row = IrBenchRow(
                benchmark=bench,
                model_gates=model_gates,
                pure_s=times[False],
                array_s=times[True],
                kernel_match=kernel_match,
                identity_ok=not identity_detail,
                identity_detail=identity_detail,
            )
            rows.append(row)
            say(
                f"{bench}: pure {row.pure_s * 1e3:.1f}ms, "
                f"array {row.array_s * 1e3:.1f}ms ({row.speedup:.2f}x), "
                f"identical={row.kernel_match and row.identity_ok}"
            )
    finally:
        ir.set_enabled(prior)
    return IrBenchReport(
        rows=rows,
        n_patterns=n_patterns,
        repeats=repeats,
        opt_levels=tuple(opt_levels),
    )


def _patterns_for_model(netlist, lock, kb, n_patterns: int, label: str):
    """Patterns over the *model* netlist's inputs (shared by both arms)."""
    from repro.core.modeling import build_combinational_model

    model = build_combinational_model(netlist, lock.spec, lock.lfsr_taps, kb)
    return _patterns_for(model.netlist, n_patterns, label)


__all__ = ["IrBenchReport", "IrBenchRow", "run_ir_bench"]
