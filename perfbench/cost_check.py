"""Self-check: do runs with different seeds do the same work and agree?

    python3 perfbench/cost_check.py --workload farm_rounds --seeds 0 1 2 3 4 --seconds 24

Runs ``run.py`` once per seed (pass ``--reuse`` to read the artifacts in
``.bench_artifacts/`` instead), then reports, per workload:

* each deterministic work counter's spread across seeds, as
  ``max / min - 1``; the check fails above ``COUNTER_TOLERANCE``;
* each end-to-end metric's median and its inter-quartile distance as a
  share of the median, the figure the metric's ``bound`` is compared to.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from summary import spread  # noqa: E402

ARTIFACTS = Path.cwd() / ".bench_artifacts"
#: Per-run work counters may differ across seeds by at most this share.
COUNTER_TOLERANCE = 0.05


def run(workload: str, seed: int, seconds: float) -> None:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} failed:\n{proc.stderr[-2000:]}")
    print(proc.stdout.strip().splitlines()[-2], flush=True)


def report(workload: str, seeds: list[int]) -> bool:
    artifacts = [
        json.loads((ARTIFACTS / f"{workload}-seed{seed}-trace0.json").read_text()) for seed in seeds
    ]
    ok = all(a["metrics"]["ok_frac"]["value"] == 1.0 for a in artifacts)
    print(f"{workload}: {len(seeds)} seeds {seeds}")
    for name in artifacts[0]["work_counters"]:
        values = [a["work_counters"][name] for a in artifacts]
        share = max(values) / min(values) - 1 if min(values) else float("inf")
        ok &= share <= COUNTER_TOLERANCE
        print(f"  counter {name:14s} min {min(values):>10} max {max(values):>10} "
              f"spread {share:7.2%} (tolerance {COUNTER_TOLERANCE:.0%})")
    for name in artifacts[0]["metrics"]:
        values = [a["metrics"][name]["value"] for a in artifacts]
        iqr = spread(values) if len(values) >= 2 else 0.0
        print(f"  metric  {name:14s} median {median(values):12.6g}  IQR/median {iqr:7.2%}")
    return ok


def main(argv=None) -> int:
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=workloads.NAMES)
    parser.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2, 3, 4])
    parser.add_argument("--seconds", type=float, default=24)
    parser.add_argument("--reuse", action="store_true", help="read existing artifacts only")
    args = parser.parse_args(argv)
    ok = True
    for workload in args.workload or workloads.NAMES:
        if not args.reuse:
            for seed in args.seeds:
                run(workload, seed, args.seconds)
        ok &= report(workload, args.seeds)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
