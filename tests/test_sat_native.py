"""The native CDCL kernel against the Python kernel it ports.

The contract is stricter than agreeing on answers: run in lock-step
(``sat_lockstep.LockstepKernel``), the two kernels must return the same
result, model and core and hold the same search counters after every
single call -- on random call sequences that make restarts, learned-DB
reduction and the activity rescale fire, and on the call sequences the
real attacks, SAT-sweeping and ATPG make.  Also pinned here: the
in-kernel model check, SIGALRM delivery during a long native solve, the
build cache, and the fallback when no compiler exists.
"""

import os
import random
import signal
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.sat import native
from repro.sat.cnf import Cnf
from repro.sat.incremental import IncrementalSolver
from repro.sat.native import NativeKernel
from repro.sat.solver import CdclSolver, SolverStats
from sat_lockstep import LockstepKernel, use_kernel
from test_sat_solver import pigeonhole_cnf

SRC = Path(__file__).resolve().parents[1] / "src"

needs_native = pytest.mark.skipif(
    native.load() is None, reason="no C compiler: the native kernel is not built"
)


def lockstep_calls() -> int:
    return sum(kernel.calls for kernel in LockstepKernel.instances)


# ----------------------------------------------------------------------
# random call sequences
# ----------------------------------------------------------------------
N_VARS = 14
literal = st.integers(1, N_VARS).flatmap(lambda v: st.sampled_from([v, -v]))
clause = st.lists(literal, min_size=1, max_size=4)
operation = st.one_of(
    st.tuples(st.just("clause"), clause, st.booleans()),
    st.tuples(st.just("absorb"), st.lists(clause, min_size=20, max_size=70)),
    st.tuples(
        st.just("solve"),
        st.lists(literal, max_size=4),
        st.booleans(),
        st.one_of(st.none(), st.integers(0, 40)),
    ),
    st.tuples(st.just("release")),
)


@needs_native
class TestRandomSequences:
    @settings(max_examples=80, deadline=None)
    @given(
        ops=st.lists(operation, min_size=1, max_size=25),
        var_decay=st.sampled_from([0.01, 0.5, 0.95]),
        restart_base=st.sampled_from([1, 2, 128]),
        reduce_base=st.sampled_from([1, 3, 4000]),
    )
    def test_kernels_agree_after_every_call(
        self, ops, var_decay, restart_base, reduce_base
    ):
        with use_kernel(LockstepKernel):
            session = IncrementalSolver(
                var_decay=var_decay, restart_base=restart_base, reduce_base=reduce_base
            )
            group = session.new_group()
            cnf = Cnf(N_VARS + 1)
            synced = 0
            for op in ops:
                if op[0] == "clause":
                    session.add_clause(op[1], group=group if op[2] else None)
                elif op[0] == "absorb":
                    # Shifted past the group variable the session made first.
                    for lits in op[1]:
                        cnf.add_clause([lit + (1 if lit > 0 else -1) for lit in lits])
                    synced = session.absorb(cnf, synced)
                elif op[0] == "solve":
                    session.solve(
                        assumptions=op[1],
                        groups=[group] if op[2] else [],
                        max_conflicts=op[3],
                    )
                else:
                    session.release_group(group)
                    group = session.new_group()
            session.solve()
        assert lockstep_calls() >= len(ops)

    def test_restarts_reduction_and_rescale_all_fire(self):
        # var_decay=0.01 multiplies the bump increment by 100 per conflict,
        # so activities pass 1e100 (and get rescaled) after ~50 conflicts.
        with use_kernel(LockstepKernel):
            solver = CdclSolver(
                pigeonhole_cnf(6), var_decay=0.01, restart_base=1, reduce_base=3
            )
            assert solver.solve().satisfiable is False
            stats = solver.stats
        assert stats.conflicts > 100
        assert stats.restarts > 0
        assert stats.deleted > 0

    def test_results_models_and_cores_agree(self):
        rng = random.Random(3)
        with use_kernel(LockstepKernel):
            for _ in range(20):
                session = IncrementalSolver()
                for _ in range(60):
                    vars_ = rng.sample(range(1, 16), 3)
                    session.add_clause([v if rng.random() < 0.5 else -v for v in vars_])
                for _ in range(4):
                    picked = rng.sample(range(1, 16), 4)
                    assumptions = [v if rng.random() < 0.5 else -v for v in picked]
                    session.solve(assumptions=assumptions)
        assert lockstep_calls() == 20 * (60 + 4)

    def test_bad_literal_raises_in_both(self):
        with use_kernel(LockstepKernel):
            solver = CdclSolver()
            with pytest.raises(ValueError):
                solver.add_clause([1, 0, 2])
            with pytest.raises(ValueError):
                solver.solve(assumptions=[0])

    def test_bad_literal_in_a_batch_is_rejected_before_it_crosses(self):
        cnf = Cnf()
        cnf.add_clause([1, 2])
        cnf.clauses.append([3, 0, 4])  # bypasses Cnf's own check
        solver = CdclSolver()
        with pytest.raises(ValueError):
            solver.add_cnf(cnf)


# ----------------------------------------------------------------------
# real call sequences
# ----------------------------------------------------------------------
@needs_native
class TestRealCallSequences:
    @pytest.mark.requires_numpy
    def test_table2_cell(self):
        from repro.reports.experiments import table2_rows, table2_specs
        from repro.reports.profiles import PROFILES
        from repro.runner.scheduler import run_jobs

        (spec,) = table2_specs(PROFILES["quick"], ["s15850"])
        spec = replace(spec, params={**spec.params, "seed_index": 7})
        with use_kernel(LockstepKernel):
            report = run_jobs([spec], jobs=1, store=None)
        assert report.outcomes[0].ok, report.outcomes[0].error
        (row,) = table2_rows(report.outcomes)
        assert row.exact_seed_rate == 1.0
        assert lockstep_calls() > 0

    def test_sarlock_attack(self):
        from repro.attack.satattack import SatAttack, SatAttackConfig
        from repro.bench_suite.registry import build_benchmark_netlist
        from repro.locking.sarlock import lock_with_sarlock
        from repro.reports.profiles import PROFILES

        netlist = build_benchmark_netlist("s5378", scale=PROFILES["quick"].scale)
        lock = lock_with_sarlock(netlist, key_bits=4, rng=random.Random(3))
        with use_kernel(LockstepKernel):
            result = SatAttack(
                locked=lock.locked,
                key_inputs=lock.key_inputs,
                oracle_fn=lock.make_oracle().query,
                config=SatAttackConfig(candidate_limit=4),
            ).run()
        assert result.iterations == 2**4 - 1
        assert result.key_candidates == [list(lock.secret_key)]
        assert lockstep_calls() > 2**4

    def test_satsweep(self):
        from repro.bench_suite.generator import GeneratorConfig, generate_circuit
        from repro.opt.satsweep import sat_sweep

        config = GeneratorConfig(n_flops=8, n_inputs=4, n_outputs=3)
        netlist = generate_circuit(config, random.Random(11), name="sw")
        with use_kernel(LockstepKernel):
            _, stats = sat_sweep(netlist, frozenset(netlist.outputs))
        assert stats["checks"] > 0
        assert lockstep_calls() > 0

    def test_atpg(self):
        from repro.atpg.atpg import generate_test_set
        from repro.atpg.faults import enumerate_faults
        from repro.bench_suite.generator import GeneratorConfig, generate_circuit
        from repro.netlist.transform import extract_combinational_core

        config = GeneratorConfig(n_flops=4, n_inputs=4, n_outputs=3)
        core, _, _ = extract_combinational_core(
            generate_circuit(config, random.Random(9), name="at")
        )
        faults = list(enumerate_faults(core))[:40]
        with use_kernel(LockstepKernel):
            result = generate_test_set(core, faults, fault_sim_pruning=False)
        assert result.coverage > 0.5
        assert lockstep_calls() > 0


# ----------------------------------------------------------------------
# in-kernel model check
# ----------------------------------------------------------------------
@needs_native
class TestModelCheck:
    def test_every_flipped_bit_is_caught(self):
        kernel = NativeKernel(SolverStats(), 0.95, 128, 4000)
        # x1, x1 -> x2, ..., x9 -> x10: the only model sets every variable.
        kernel.add_clause([1])
        for v in range(1, 10):
            kernel.add_clause([-v, v + 1])
        satisfiable, model, _ = kernel.solve([], None, None)
        assert satisfiable is True
        assert kernel.check_model(model) == -1
        for v in range(1, 11):
            mutant = list(model)
            mutant[v] ^= 1
            assert kernel.check_model(mutant) >= 0, f"flipping x{v} went unnoticed"

    def test_checks_clauses_as_added_not_as_simplified(self):
        kernel = NativeKernel(SolverStats(), 0.95, 128, 4000)
        kernel.add_clause([1])
        kernel.add_clause([1, 2])  # satisfied at top level: never stored for search
        kernel.add_clause([-1, 3])  # simplified to the unit x3
        satisfiable, model, _ = kernel.solve([], None, None)
        assert satisfiable is True
        assert kernel.check_model([0, 0, 0, 1]) == 0
        assert kernel.check_model([0, 1, 0, 0]) == 2


# ----------------------------------------------------------------------
# signals during a native solve
# ----------------------------------------------------------------------
class _Alarm(Exception):
    pass


def _raise_alarm(signum, frame):
    raise _Alarm


@needs_native
@pytest.mark.skipif(not hasattr(signal, "setitimer"), reason="needs POSIX itimers")
def test_sigalrm_interrupts_a_long_native_solve():
    solver = CdclSolver(pigeonhole_cnf(9))
    previous = signal.signal(signal.SIGALRM, _raise_alarm)
    started = time.perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, 0.5)
        with pytest.raises(_Alarm):
            solver.solve()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)
    assert time.perf_counter() - started < 2.0
    # The interrupted session stays usable.
    assert solver.solve(max_conflicts=10).satisfiable is None


# ----------------------------------------------------------------------
# build cache and fallback
# ----------------------------------------------------------------------
PROBE = (
    "from repro.runner.artifacts import run_metadata\n"
    "from repro.sat.solver import CdclSolver\n"
    "s = CdclSolver(); s.add_clause([1, 2]); s.add_clause([-1])\n"
    "r = s.solve()\n"
    "print(run_metadata()['sat_kernel'], r.satisfiable, r.model)\n"
)


def run_probe(env_overrides: dict[str, str]) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": str(SRC), **env_overrides}
    return subprocess.run(
        [sys.executable, "-c", PROBE],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )


def test_without_a_compiler_the_python_kernel_runs(tmp_path):
    proc = run_probe({"CC": "false", "XDG_CACHE_HOME": str(tmp_path)})
    assert proc.stdout.split() == ["python", "True", "[0,", "0,", "1]"]
    assert proc.stderr.count("native SAT kernel unavailable") == 1
    assert "false exited with 1" in proc.stderr
    assert not list((tmp_path / "repro").iterdir())


@needs_native
def test_build_is_cached_by_source_hash(tmp_path):
    env = {"XDG_CACHE_HOME": str(tmp_path)}
    first = run_probe(env)
    expected = f"native:{native.source_hash()[:12]}"
    assert first.stdout.split()[:2] == [expected, "True"]
    (built,) = (tmp_path / "repro").iterdir()
    assert built.suffix == ".so" and native.source_hash()[:16] in built.name
    stamp = built.stat().st_mtime_ns
    # A second process loads the cached library; a broken compiler is
    # never invoked.
    second = run_probe({**env, "CC": "false"})
    assert second.stdout == first.stdout
    assert built.stat().st_mtime_ns == stamp
