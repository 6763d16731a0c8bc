"""Experiment size profiles.

The paper ran a 24-core Xeon with the lingeling C solver; this repo runs
a small from-scratch CDCL (C search kernel, pure-Python fallback).  Profiles keep the experiment *structure* identical
while shrinking instance sizes so the whole table regenerates on a
laptop:

* ``quick`` (default): circuits at 1/16 of the paper's scan-flop counts,
  16-bit keys, one LFSR seed per circuit.  Seconds for all of Table II
  (2.0 s serial), about 30 s for the whole ``benchmarks/`` suite.
* ``full``: 1/8 scale, 16-bit keys, two seeds.  Table II in ~23 s
  serial, the whole ``benchmarks/`` suite in about 7 minutes.
* ``paper``: the paper's sizes (128-bit keys, full flop counts, ten
  seeds).  Out of reach for this solver: full-size s5378 breaks with a
  24-bit seed in 6.4 s, but 32 bits and up time out after one DIP, and
  128 bits times out at 250 s.  The substitution is documented in
  DESIGN.md/EXPERIMENTS.md.

The quick/full timings are wall time with the native SAT kernel on a
2-core Linux container, measured 2026-10-18.

Select with the ``REPRO_PROFILE`` environment variable.
"""

from __future__ import annotations

import os
from dataclasses import asdict, dataclass


@dataclass(frozen=True)
class ExperimentProfile:
    """One named experiment size (scale, key width, seeds, budgets)."""
    name: str
    scale: int  # divides the paper's scan-flop counts
    key_bits: int  # Table II key size
    n_seeds: int  # LFSR seeds averaged per circuit (paper: 10)
    timeout_s: float  # per-attack wall-clock budget
    table3_key_sizes: tuple[int, ...]  # Table III sweep
    candidate_limit: int = 256

    def effective_key_bits(self, n_flops: int, requested: int | None = None) -> int:
        """Clamp the key width to the available key-gate slots."""
        want = requested if requested is not None else self.key_bits
        return min(want, n_flops - 1)


PROFILES: dict[str, ExperimentProfile] = {
    "quick": ExperimentProfile(
        name="quick",
        scale=16,
        key_bits=16,
        n_seeds=1,
        timeout_s=240.0,
        table3_key_sizes=(18, 20, 22),
    ),
    "full": ExperimentProfile(
        name="full",
        scale=8,
        key_bits=16,
        n_seeds=2,
        timeout_s=1200.0,
        table3_key_sizes=(18, 22, 26, 30),
    ),
    "paper": ExperimentProfile(
        name="paper",
        scale=1,
        key_bits=128,
        n_seeds=10,
        timeout_s=86_400.0,
        table3_key_sizes=tuple(range(144, 369, 16)),
    ),
}


def profile_to_dict(profile: ExperimentProfile) -> dict:
    """JSON-safe encoding of a profile (tuples become lists).

    This is what gets embedded in a :class:`repro.runner.spec.JobSpec`,
    so *every* field participates in the cache key -- changing a
    timeout, seed count, or scale invalidates affected cells.
    """
    data = asdict(profile)
    data["table3_key_sizes"] = list(profile.table3_key_sizes)
    return data


def profile_from_dict(data: dict) -> ExperimentProfile:
    """Inverse of :func:`profile_to_dict` (used inside worker processes)."""
    fields = dict(data)
    fields["table3_key_sizes"] = tuple(fields["table3_key_sizes"])
    return ExperimentProfile(**fields)


def active_profile() -> ExperimentProfile:
    """Profile selected by ``REPRO_PROFILE`` (default: quick)."""
    name = os.environ.get("REPRO_PROFILE", "quick").strip().lower()
    if name not in PROFILES:
        raise KeyError(
            f"unknown REPRO_PROFILE {name!r}; choose from {sorted(PROFILES)}"
        )
    return PROFILES[name]
