"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload table2_cold --seed 0 --seconds 25 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.

``--trace 0`` measures the end-to-end metrics: ``--seconds`` of work in
reference seconds (``refclock.py``), split into a fixed number of steps,
each bracketed by reference-kernel slices and checked for correctness.
``--trace 1`` runs each planned input twice, once plain and once with
layer wrappers installed (``tracer.py``), and reports per-layer metrics
plus ``tracing_overhead``, the traced work rate over the plain one.

Set-up time is measured three times: in this process and in two child
processes that only set up (``--setup-probe``); the median is reported.

A full record of the run -- raw wall seconds, every slice reading, every
step's counters, and in traced runs every span -- goes to
``.bench_artifacts/``.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from statistics import median  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from refclock import RefClock, Timed, normalise  # noqa: E402
from summary import tail  # noqa: E402

ROOT = Path.cwd()
ARTIFACTS = ROOT / ".bench_artifacts"
SETUP_CHILDREN = 2
CHILD_TIMEOUT_S = 45
#: A run stops starting steps after ``WALL_CAP * --seconds + WALL_SLACK_S``
#: of wall time, so a much slower program still ends inside its time limit;
#: the artifact then says ``truncated``.
WALL_CAP = 3.0
WALL_SLACK_S = 20.0


def parse_args(argv):
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def set_up(args, clock: RefClock, first_reading: list[float]):
    """Import the program, build the workload and run one untimed warm-up
    step.  Returns ``(workload, items, setup Timed)``."""
    import workloads

    counter = workloads.WorkCounter()
    counter.install()
    workload = workloads.make(args.workload, counter, ARTIFACTS / "tmp")
    if args.trace:
        n = workload.n_steps(args.seconds / 2, tail=False)
    else:
        n = workload.n_steps(args.seconds)
    items = workload.plan(args.seed, n)
    workload.run(workload.warmup_item)
    last_reading = clock.reading()
    wall = time.perf_counter() - _T0 - clock.spent
    slices = first_reading + last_reading
    return workload, items, Timed(wall, slices, normalise(wall, slices))


def probe_setups(args) -> list[dict]:
    """Set up again in fresh processes; each reports its own Timed."""
    out = []
    for _ in range(SETUP_CHILDREN):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-probe"],
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, cwd=ROOT,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed:\n{proc.stderr[-2000:]}")
        out.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return out


def run_steps(workload, items, clock: RefClock, seconds: float, tracer=None):
    """Measure every planned step; traced runs measure each item twice."""
    records = []
    deadline = time.perf_counter() + WALL_CAP * seconds + WALL_SLACK_S
    for item in items:
        if time.perf_counter() > deadline:
            break
        passes = (None, tracer) if tracer is not None else (None,)
        for active in passes:
            if active is not None:
                active.unit = len(records)
                active.install()
            try:
                step, timed = clock.measure(workload.run, item)
                error = None
            except Exception:
                step, timed, error = None, None, traceback.format_exc()
                clock.forget()
            finally:
                if active is not None:
                    active.uninstall()
            records.append(
                {"item": item, "traced": active is not None, "step": step, "timed": timed,
                 "error": error}
            )
    return records


def summarise(workload, records) -> dict:
    """End-to-end figures from the plain (untraced) steps; ``attempted`` and
    ``failed`` count the work of every step, traced ones included."""
    attempted = failed = done = 0
    ref_total = wall_total = 0.0
    samples: list[float] = []
    raw_samples: list[float] = []
    for record in records:
        step, timed = record["step"], record["timed"]
        work = step.work if step is not None else workload.step_work
        attempted += work
        failed += 0 if step is not None and step.ok else work
        if step is None or record["traced"]:
            continue
        done += step.work
        ref_total += timed.ref_s
        wall_total += timed.wall_s
        raw = step.latencies_s if step.latencies_s is not None else [timed.wall_s]
        raw_samples += raw
        samples += [x * timed.factor for x in raw]
    if len(samples) > 10:
        tail_value, tail_pct = tail(samples)
    else:  # too short a run for a tail: report the maximum
        tail_value, tail_pct = max(samples, default=0.0), 100.0
    return {
        "attempted": attempted,
        "failed": failed,
        "work_per_s": done / ref_total if ref_total else 0.0,
        "latency_p50_s": median(samples) if samples else 0.0,
        "latency_tail_s": tail_value,
        "tail_percentile": tail_pct,
        "latency_samples": len(samples),
        "ok_frac": (attempted - failed) / attempted if attempted else 0.0,
        "raw": {
            "work_per_wall_s": done / wall_total if wall_total else 0.0,
            "latency_p50_wall_s": median(raw_samples) if raw_samples else 0.0,
            "ref_total_s": ref_total,
            "wall_total_s": wall_total,
        },
    }


def counter_totals(workload, records) -> dict:
    totals: dict[str, int] = {}
    for record in records:
        if record["traced"] or record["step"] is None:
            continue
        for name in workload.work_counters:
            totals[name] = totals.get(name, 0) + record["step"].counters.get(name, 0)
    return totals


def tracing_metrics(records, tracer) -> dict:
    import tracer as tracing

    traced = [r for r in records if r["traced"] and r["timed"] is not None]
    plain = [r for r in records if not r["traced"] and r["timed"] is not None]
    factors = {i: r["timed"].factor if r["timed"] else 1.0 for i, r in enumerate(records)}
    unit_ref_s = sum(r["timed"].ref_s for r in traced)
    for name in tracing.SOLVER_STATS:
        tracer.counters[f"sat.solver.{name}"] = sum(r["step"].counters[name] for r in traced)
    metrics = tracing.layer_metrics(tracer.spans, tracer.counters, factors, unit_ref_s)

    def rate(rows):
        ref = sum(r["timed"].ref_s for r in rows)
        return sum(r["step"].work for r in rows) / ref if ref else 0.0

    plain_rate = rate(plain)
    metrics["tracing_overhead"] = (rate(traced) / plain_rate if plain_rate else 0.0, "ratio")
    return metrics


def main(argv=None) -> int:
    clock = RefClock()
    first_reading = clock.reading()
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    workload, items, own_setup = set_up(args, clock, first_reading)
    if args.setup_probe:
        workload.close()
        print(json.dumps(own_setup.as_dict()))
        return 0
    try:
        setups = [own_setup.as_dict()] + probe_setups(args)
        clock.forget()
        tracer = None
        if args.trace:
            import tracer as tracing

            tracer = tracing.Tracer()
        records = run_steps(workload, items, clock, args.seconds, tracer)
        finished = [r for r in records if r["step"] is not None]
        workload.finish([r["item"] for r in finished], [r["step"] for r in finished])
    finally:
        workload.close()

    summary = summarise(workload, records)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setup_s = median(s["ref_s"] for s in setups)
    plain_steps = [r for r in records if not r["traced"]]
    correct = summary["failed"] == 0
    if args.trace:
        metrics = tracing_metrics(records, tracer)
    else:
        metrics = {
            "work_per_s": (summary["work_per_s"], "1/s"),
            "latency_p50_s": (summary["latency_p50_s"], "s"),
            "latency_tail_s": (summary["latency_tail_s"], "s"),
            "ok_frac": (summary["ok_frac"], "ratio"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }

    write_artifact(args, workload, items, setups, records, summary, metrics, tracer,
                   counter_totals(workload, records), peak_rss_mb)
    print(
        f"{args.workload} seed={args.seed}: {summary['attempted']} {workload.work_name}s, "
        f"{len(plain_steps)} steps, latency per {workload.latency_name}: "
        f"p50 {summary['latency_p50_s']:.4f}s, p{summary['tail_percentile']:.1f} "
        f"{summary['latency_tail_s']:.4f}s over {summary['latency_samples']} samples"
    )
    result = {
        "correct": bool(correct),
        "attempted": int(summary["attempted"]),
        "failed": int(summary["failed"]),
        "metrics": {name: {"value": v, "unit": unit} for name, (v, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def write_artifact(args, workload, items, setups, records, summary, metrics, tracer, totals,
                   peak_rss_mb) -> None:
    ARTIFACTS.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    steps = []
    for record in records:
        step, timed = record["step"], record["timed"]
        steps.append({
            "item": record["item"],
            "traced": record["traced"],
            "ok": bool(step and step.ok),
            "work": step.work if step else workload.step_work,
            "counters": step.counters if step else {},
            "latencies_raw_s": step.latencies_s if step else None,
            "detail": step.detail if step else {},
            "timed": timed.as_dict() if timed else None,
            "error": record["error"],
        })
    artifact = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "planned_steps": len(items),
        "truncated": sum(not r["traced"] for r in records) < len(items),
        "host": {"python": platform.python_version(), "machine": platform.machine(),
                 "peak_rss_mb": peak_rss_mb},
        "refclock": _refclock_constants(),
        "setup": setups,
        "summary": summary,
        "work_counters": totals,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
        "steps": steps,
    }
    (ARTIFACTS / f"{stem}.json").write_text(json.dumps(artifact, indent=1, default=str))
    if tracer is not None:
        with open(ARTIFACTS / f"{stem}-spans.jsonl", "w") as handle:
            for span in tracer.spans:
                handle.write(json.dumps(span) + "\n")


def _refclock_constants() -> dict:
    import refclock

    return {
        "nominal_slice_s": refclock.NOMINAL_SLICE_S,
        "slice_rounds": refclock.SLICE_ROUNDS,
        "slices_per_reading": refclock.SLICES_PER_READING,
        "formula": "ref_s = wall_s * nominal_slice_s / median(slices_s)",
    }


if __name__ == "__main__":
    sys.exit(main())
