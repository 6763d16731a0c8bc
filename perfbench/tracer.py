"""Layer spans recorded from outside the program.

:class:`Tracer` installs wrappers around the public entry points of each
layer -- class methods on their class, module functions at every module
that binds them (so ``repro.core.dynunlock.build_combinational_model`` is
wrapped as well as its definition) -- and removes them again afterwards.
Each wrapper appends one span ``[layer, start, end, parent, unit]`` to an
in-memory list; nothing under ``src/`` is edited.  :func:`fold` turns the
spans into per-layer call counts and self times, where a span's self time
is its duration minus the time its child spans cover.

Probes next to some wrappers read the layer's own work counters (solver
statistics, clauses absorbed, candidates enumerated, ...), so per-layer
ratios are measured where the work happens.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import defaultdict
from statistics import median

#: Solver counters reported per layer; the caller fills them in from the
#: work counter every step already carries (``workloads.WorkCounter``).
SOLVER_STATS = ("propagations", "conflicts", "decisions", "learned")


# ----------------------------------------------------------------------
# probes: (before(args, kwargs) -> state or None,
#          after(state, args, result, counters))
# ----------------------------------------------------------------------
def _absorb_after(state, args, result, counters):
    already = args[2] if len(args) > 2 else state
    counters["sat.incremental.clauses_absorbed"] += result - already


def _absorb_before(args, kwargs):
    return kwargs.get("already_synced", 0)


def _stamp_before(args, kwargs):
    return args[0].cnf.n_clauses


def _stamp_after(state, args, result, counters):
    counters["sat.tseitin.clauses_stamped"] += args[0].cnf.n_clauses - state


def _opt_before(args, kwargs):
    return args[0].n_gates


def _opt_after(state, args, result, counters):
    counters["opt.gates_in"] += state
    counters["opt.gates_out"] += result.netlist.n_gates


def _replay_after(state, args, result, counters):
    counters["attack.bruteforce.candidates_in"] += result.n_candidates_in
    counters["attack.bruteforce.survivors"] += len(result.survivors)


def _round_after(state, args, result, counters):
    counters["farm.corpus_writes"] += result.new_entries + result.minimized


def _write_raw_after(state, args, result, counters):
    counters["runner.stores.bytes_written"] += len(args[3])


def _get_after(state, args, result, counters):
    counters["runner.stores.gets"] += 1


def _put_after(state, args, result, counters):
    counters["runner.stores.puts"] += 1


#: (layer, "module:attribute" entry point, probe or None).  A dotted
#: attribute is a method on a class; a plain one is a module function.
LAYERS: list[tuple[str, str, tuple | None]] = [
    ("sat.solver", "repro.sat.solver:CdclSolver.solve", None),
    ("sat.incremental", "repro.sat.incremental:IncrementalSolver.absorb",
     (_absorb_before, _absorb_after)),
    ("sat.tseitin", "repro.sat.tseitin:encoding_for", None),
    ("sat.tseitin", "repro.sat.tseitin:CircuitEncoder.stamp", (_stamp_before, _stamp_after)),
    ("sat.enumerate", "repro.sat.enumerate:enumerate_models", None),
    ("core.modeling", "repro.core.modeling:build_combinational_model", None),
    ("opt", "repro.opt.pipeline:optimize", (_opt_before, _opt_after)),
    ("scan.oracle", "repro.scan.oracle:ScanOracle.query", None),
    ("scan.oracle", "repro.scan.multichain:MultiChainScanOracle.query", None),
    ("locking.iolock", "repro.locking.iolock:IoOracle.query", None),
    ("attack.bruteforce", "repro.attack.bruteforce:refine_candidates_by_replay",
     (None, _replay_after)),
    ("attack.satattack", "repro.attack.satattack:SatAttack.run", None),
    ("core.dynunlock", "repro.core.dynunlock:DynUnlock.run", None),
    ("fuzz.invariants", "repro.fuzz.invariants:check_opt_equivalence", None),
    ("fuzz.invariants", "repro.fuzz.invariants:check_key_equivalence", None),
    ("fuzz.invariants", "repro.fuzz.invariants:check_attack_replay", None),
    ("bench_suite", "repro.bench_suite.generator:generate_circuit", None),
    ("locking", "repro.matrix.registry:DefenseSpec.build", None),
    ("locking", "repro.locking.effdyn:lock_with_effdyn", None),
    ("locking", "repro.locking.dfs:DfsOracle.load_and_observe", None),
    ("locking", "repro.locking.scramble:ScrambleScanOracle.query", None),
    ("runner.scheduler", "repro.runner.scheduler:run_jobs", None),
    ("runner.stores", "repro.runner.stores.base:BaseStore.get", (None, _get_after)),
    ("runner.stores", "repro.runner.stores.base:BaseStore.put", (None, _put_after)),
    ("farm", "repro.farm.driver:FarmDriver.run_round", (None, _round_after)),
]

#: Counter-only probes (no span): backend writes carry the entry bytes.
COUNTERS: list[tuple[str, tuple]] = [
    ("repro.runner.stores.json_file:JsonFileStore._write_raw", (None, _write_raw_after)),
    ("repro.runner.stores.sqlite_store:SqliteStore._write_raw", (None, _write_raw_after)),
]

LAYER_NAMES: list[str] = list(dict.fromkeys(layer for layer, _, _ in LAYERS))


def _resolve(target: str):
    """``(owner, attribute, original)`` for a ``module:attr`` target."""
    module_name, _, attr = target.partition(":")
    owner = importlib.import_module(module_name)
    if "." in attr:
        cls_name, attr = attr.split(".")
        owner = getattr(owner, cls_name)
        return owner, attr, owner.__dict__[attr]
    return owner, attr, getattr(owner, attr)


class Tracer:
    """Span recorder; :meth:`install` and :meth:`uninstall` bracket its use."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.unit: int = -1
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- wrappers -------------------------------------------------------
    def _span_wrapper(self, layer: str, fn, probe):
        spans, stack, counters = self.spans, self._stack, self.counters
        clock = time.perf_counter
        before, after = probe if probe is not None else (None, None)

        def wrapper(*args, **kwargs):
            state = before(args, kwargs) if before is not None else None
            record = [layer, clock(), 0.0, stack[-1] if stack else -1, self.unit]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if after is not None:
                after(state, args, result, counters)
            return result

        return wrapper

    def _generator_wrapper(self, layer: str, fn):
        """One span per resumption, so the consumer's own code between
        items is never charged to the generator."""
        spans, stack, counters = self.spans, self._stack, self.counters
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            inner = fn(*args, **kwargs)
            while True:
                record = [layer, clock(), 0.0, stack[-1] if stack else -1, self.unit]
                stack.append(len(spans))
                spans.append(record)
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    record[2] = clock()
                    stack.pop()
                counters[f"{layer}.candidates"] += 1
                yield item

        return wrapper

    def _counter_wrapper(self, fn, probe):
        counters = self.counters
        before, after = probe

        def wrapper(*args, **kwargs):
            state = before(args, kwargs) if before is not None else None
            result = fn(*args, **kwargs)
            after(state, args, result, counters)
            return result

        return wrapper

    # -- installation ---------------------------------------------------
    def _patch(self, owner, attr: str, original, replacement) -> None:
        if isinstance(owner, type):
            setattr(owner, attr, replacement)
            self._undo.append((owner, attr, original))
            return
        # A module function: rebind it everywhere the program bound it.
        for module in list(sys.modules.values()):
            namespace = getattr(module, "__dict__", None)
            if not getattr(module, "__name__", "").startswith("repro"):
                continue
            for name, value in list(namespace.items()):
                if value is original:
                    setattr(module, name, replacement)
                    self._undo.append((module, name, original))

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("tracer already installed")
        for layer, target, probe in LAYERS:
            owner, attr, original = _resolve(target)
            if layer == "sat.enumerate":
                wrapper = self._generator_wrapper(layer, original)
            else:
                wrapper = self._span_wrapper(layer, original, probe)
            self._patch(owner, attr, original, wrapper)
        for target, probe in COUNTERS:
            owner, attr, original = _resolve(target)
            self._patch(owner, attr, original, self._counter_wrapper(original, probe))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()
        if self._stack:
            raise RuntimeError("tracer removed with spans still open")


# ----------------------------------------------------------------------
# folding
# ----------------------------------------------------------------------
def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time covered by its child spans."""
    covered = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    return [end - start - covered[i] for i, (_, start, end, _, _) in enumerate(spans)]


def fold(spans: list[list], unit_factor: dict[int, float]) -> dict[str, dict]:
    """Per-layer ``calls``, ``self_s`` (reference s) and solve-call times.

    ``unit_factor`` maps a unit id to its reference-second factor, so each
    span is scaled by the factor of the unit it ran in.  Also returns the
    per-unit time covered by top-level spans under the key ``None``.
    """
    out: dict = {name: {"calls": 0, "self_s": 0.0, "durations": []} for name in LAYER_NAMES}
    covered: dict[int, float] = defaultdict(float)
    for record, own in zip(spans, self_times(spans)):
        layer, start, end, parent, unit = record
        factor = unit_factor[unit]
        row = out[layer]
        row["calls"] += 1
        row["self_s"] += own * factor
        if layer == "sat.solver":
            row["durations"].append((end - start) * factor)
        if parent < 0:
            covered[unit] += (end - start) * factor
    out[None] = dict(covered)
    return out


def layer_metrics(
    spans: list[list],
    counters: dict[str, float],
    unit_factor: dict[int, float],
    unit_ref_s: float,
) -> dict[str, tuple[float, str]]:
    """The per-layer metrics of one traced run, ``name -> (value, unit)``."""
    folded = fold(spans, unit_factor)
    metrics: dict[str, tuple[float, str]] = {}
    for layer in LAYER_NAMES:
        row = folded[layer]
        metrics[f"{layer}.calls"] = (row["calls"], "count")
        metrics[f"{layer}.self_s"] = (row["self_s"], "s")
        metrics[f"{layer}.share"] = (row["self_s"] / unit_ref_s, "ratio")
    solver = folded["sat.solver"]
    for name in SOLVER_STATS:
        metrics[f"sat.solver.{name}"] = (counters[f"sat.solver.{name}"], "count")
    metrics["sat.solver.props_per_s"] = (
        counters["sat.solver.propagations"] / solver["self_s"] if solver["self_s"] else 0.0,
        "1/s",
    )
    metrics["sat.solver.call_p50_s"] = (
        median(solver["durations"]) if solver["durations"] else 0.0,
        "s",
    )
    for name in ("sat.incremental.clauses_absorbed", "sat.tseitin.clauses_stamped",
                 "sat.enumerate.candidates", "runner.stores.gets", "runner.stores.puts",
                 "farm.corpus_writes"):
        metrics[name] = (counters[name], "count")
    gates_in = counters["opt.gates_in"]
    metrics["opt.gate_ratio"] = (counters["opt.gates_out"] / gates_in if gates_in else 0.0, "ratio")
    metrics["scan.oracle.queries"] = (folded["scan.oracle"]["calls"], "count")
    metrics["locking.iolock.queries"] = (folded["locking.iolock"]["calls"], "count")
    candidates_in = counters["attack.bruteforce.candidates_in"]
    metrics["attack.bruteforce.survivor_ratio"] = (
        counters["attack.bruteforce.survivors"] / candidates_in if candidates_in else 0.0,
        "ratio",
    )
    metrics["runner.stores.bytes_written"] = (counters["runner.stores.bytes_written"], "bytes")
    metrics["unattributed_s"] = (max(0.0, unit_ref_s - sum(folded[None].values())), "s")
    return metrics
