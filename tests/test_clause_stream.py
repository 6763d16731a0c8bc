"""Golden digests of the clause stream the attacks feed the SAT kernel.

Every clause that crosses into a kernel -- single ``add_clause`` calls and
bulk intake alike -- is recorded in order as 0-terminated little-endian
int32 literals, per solver instance, together with the instance's final
``n_vars``.  The SHA-256 over all instances is pinned for two SARLock
attacks and one Table II cell.  A change to how clauses are built,
stamped or streamed must leave these digests alone: same clauses, same
order, same variable numbers, hence the same search on either kernel.
"""

import hashlib
import random
import sys
from array import array
from dataclasses import replace

import pytest

from repro.sat import native
from repro.sat.pykernel import PythonKernel
from sat_lockstep import use_kernel

KERNELS = [
    pytest.param(PythonKernel, id="python"),
    pytest.param(
        "native",
        id="native",
        marks=pytest.mark.skipif(
            native.load() is None,
            reason="no C compiler: the native kernel is not built",
        ),
    ),
]

#: (solver instances, sum of final n_vars, stream SHA-256).
#: Recorded before clauses were stored as one flat stream.
GOLDEN = {
    "sarlock-3": (
        1, 23708, "5bd1881095b5b0aa653465a9fac8f8af87bcba5febc472e9711195afcaa4c7b0"
    ),
    "sarlock-43": (
        1, 23580, "0df0fe05ba1043341378de2388a2b2d14adb81cf13d0d495f761d3e70a1fc4f7"
    ),
    "table2-s15850-7": (
        1, 2951, "88e5a76edbd5698689a19ccd879021b59ad49b8ebf3060a7ac961c7ada1de3ae"
    ),
}


def recording(base: type) -> type:
    """A subclass of kernel ``base`` that records every clause it is given."""

    class Recording(base):
        instances: list = []

        def __init__(self, *args):
            super().__init__(*args)
            self.stream = array("i")
            self._in_batch = False
            Recording.instances.append(self)

        def add_clause(self, lits):
            result = super().add_clause(lits)
            if not self._in_batch:  # PythonKernel.add_flat adds clause by clause
                self.stream.extend(lits)
                self.stream.append(0)
            return result

        def add_flat(self, max_var, lits, start=0):
            self._in_batch = True
            try:
                super().add_flat(max_var, lits, start)
            finally:
                self._in_batch = False
            self.stream.extend(lits[start:])

    return Recording


def digest(instances) -> tuple[int, int, str]:
    h = hashlib.sha256()
    for kernel in instances:
        stream = array("i", kernel.stream)
        if sys.byteorder == "big":
            stream.byteswap()
        h.update(stream.tobytes())
        h.update(b"#%d\n" % kernel.n_vars)
    return len(instances), sum(k.n_vars for k in instances), h.hexdigest()


def _base(kernel):
    return native.NativeKernel if kernel == "native" else kernel


def run_sarlock(lock_seed: int) -> None:
    from repro.attack.satattack import SatAttack, SatAttackConfig
    from repro.bench_suite.registry import build_benchmark_netlist
    from repro.matrix.registry import ensure_builtins, get_defense
    from repro.reports.profiles import PROFILES

    ensure_builtins()
    profile = PROFILES["quick"]
    netlist = build_benchmark_netlist("s5378", scale=profile.scale)
    lock = get_defense("sarlock").build(netlist, 6, random.Random(lock_seed))
    result = SatAttack(
        locked=lock.locked,
        key_inputs=lock.key_inputs,
        oracle_fn=lock.make_oracle().query,
        config=SatAttackConfig(candidate_limit=profile.candidate_limit),
    ).run()
    assert result.iterations == 2**6 - 1
    assert result.unique_key() is not None


def run_table2_cell() -> None:
    from repro.reports.experiments import table2_rows, table2_specs
    from repro.reports.profiles import PROFILES
    from repro.runner.scheduler import run_jobs

    (spec,) = table2_specs(PROFILES["quick"], ["s15850"])
    spec = replace(spec, params={**spec.params, "seed_index": 7})
    report = run_jobs([spec], jobs=1, store=None)
    assert report.outcomes[0].ok, report.outcomes[0].error
    (row,) = table2_rows(report.outcomes)
    assert row.exact_seed_rate == 1.0


CASES = [
    pytest.param("sarlock-3", lambda: run_sarlock(3), id="sarlock-3"),
    pytest.param("sarlock-43", lambda: run_sarlock(43), id="sarlock-43"),
    pytest.param(
        "table2-s15850-7",
        run_table2_cell,
        id="table2-s15850-7",
        marks=pytest.mark.requires_numpy,
    ),
]


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("case, run", CASES)
def test_clause_stream_matches_golden_digest(case, run, kernel):
    kernel_class = recording(_base(kernel))
    with use_kernel(kernel_class):
        run()
    assert digest(kernel_class.instances) == GOLDEN[case]
