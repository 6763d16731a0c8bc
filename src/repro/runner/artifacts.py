"""Structured result artifacts: one JSON + CSV pair per experiment run.

The emitter writes ``BENCH_<experiment>.json`` (headers, row cells, and
a ``meta`` block with timing/cache accounting) and a sibling ``.csv``
with the same grid, into a ``results/`` directory of the caller's
choosing.  The JSON is the machine-readable record CI uploads and diffs
against the checked-in baseline (``scripts/check_bench_regression.py``);
:func:`repro.reports.tables.render_artifact` turns either file's data
back into the paper-style text table.

Every artifact carries the same versioned envelope on top of the
legacy ``format`` marker (the documented contract lives in
``docs/observability.md`` § "Artifact schema"):

* ``schema_version`` -- integer, bumped when the payload layout
  changes.  Version 1 (implicit: the field is absent) had no ``run``
  block; version 2 added it; version 3 nests the experiment data
  under ``payload`` next to a ``kind`` discriminator, so every
  ``--emit-json`` producer (grid tables, matrix, fuzz, opt, store
  bench, obs summaries) shares one wire shape with the service layer.
  :func:`load_artifact` accepts any version up to
  :data:`ARTIFACT_SCHEMA_VERSION` -- normalising old shapes to the
  same in-memory view -- and rejects newer ones, so old readers fail
  loudly instead of misparsing future layouts.
* ``run`` -- where the artifact came from: a ``run_id`` (shared with
  the observability session's logs/spans when one is active), creation
  time, python/platform, and the source-tree fingerprint prefix.

The v3 envelope::

    {
      "format": "dynunlock-artifact/1",
      "schema_version": 3,
      "kind": "<experiment>",
      "run": {...provenance...},
      "payload": {"experiment", "title", "profile",
                  "headers", "rows", "meta"}
    }

:func:`load_artifact` always returns the *flattened* view (payload
keys hoisted to the top level next to the envelope fields), so
consumers written against v1/v2 artifacts -- including the checked-in
CI baselines -- keep working unchanged.
"""

from __future__ import annotations

import csv
import json
import platform
import sys
import time
import uuid
from pathlib import Path
from typing import Any, Sequence

ARTIFACT_FORMAT = "dynunlock-artifact/1"

#: Payload layout version; see the module docstring for the history.
ARTIFACT_SCHEMA_VERSION = 3

#: Keys of the ``payload`` block (v3) / the top level (v1-v2).
_PAYLOAD_KEYS = ("experiment", "title", "profile", "headers", "rows", "meta")


def run_metadata() -> dict[str, Any]:
    """The ``run`` provenance block stamped into every artifact."""
    from repro.observability.session import current_session
    from repro.runner.spec import code_version
    from repro.sat.native import kernel_name

    session = current_session()
    return {
        "run_id": session.run_id if session is not None else uuid.uuid4().hex[:12],
        "created_unix": round(time.time(), 3),
        "python": platform.python_version(),
        "platform": sys.platform,
        "code_version": code_version()[:20],
        "sat_kernel": kernel_name(),
    }


def artifact_paths(directory: str | Path, experiment: str) -> tuple[Path, Path]:
    """The (json, csv) file pair an experiment's artifact occupies."""
    base = Path(directory) / f"BENCH_{experiment}"
    return base.with_suffix(".json"), base.with_suffix(".csv")


def write_artifact(
    directory: str | Path,
    experiment: str,
    headers: Sequence[str],
    rows: Sequence[Sequence[Any]],
    *,
    title: str | None = None,
    profile: str | None = None,
    meta: dict[str, Any] | None = None,
) -> Path:
    """Write the JSON + CSV pair for one finished grid; returns the JSON path."""
    json_path, csv_path = artifact_paths(directory, experiment)
    json_path.parent.mkdir(parents=True, exist_ok=True)
    envelope = {
        "format": ARTIFACT_FORMAT,
        "schema_version": ARTIFACT_SCHEMA_VERSION,
        "kind": experiment,
        "run": run_metadata(),
        "payload": {
            "experiment": experiment,
            "title": title,
            "profile": profile,
            "headers": list(headers),
            "rows": [list(row) for row in rows],
            "meta": dict(meta or {}),
        },
    }
    json_path.write_text(json.dumps(envelope, indent=1, sort_keys=True) + "\n")
    with csv_path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(list(headers))
        writer.writerows([list(row) for row in rows])
    return json_path


def normalize_artifact(data: dict[str, Any]) -> dict[str, Any]:
    """Flatten any accepted artifact shape to the v1/v2-style view.

    v3 envelopes get their ``payload`` keys hoisted to the top level
    (the envelope fields stay); v1/v2 dicts pass through with ``kind``
    defaulting to the experiment name.  The input dict is not mutated.
    """
    flat = {k: v for k, v in data.items() if k != "payload"}
    payload = data.get("payload")
    if isinstance(payload, dict):
        for key in _PAYLOAD_KEYS:
            if key in payload:
                flat[key] = payload[key]
    flat.setdefault("kind", flat.get("experiment"))
    return flat


def load_artifact(path: str | Path) -> dict[str, Any]:
    """Read an artifact JSON back, validating format marker and schema.

    Artifacts written before the ``schema_version`` field (version 1,
    e.g. checked-in baselines) load unchanged; v3 envelopes are
    flattened via :func:`normalize_artifact` so every consumer sees one
    shape; artifacts from a *newer* schema are rejected rather than
    silently misread.
    """
    data = json.loads(Path(path).read_text())
    if data.get("format") != ARTIFACT_FORMAT:
        raise ValueError(
            f"{path} is not a {ARTIFACT_FORMAT} artifact "
            f"(format={data.get('format')!r})"
        )
    version = data.get("schema_version", 1)
    if not isinstance(version, int) or isinstance(version, bool) or version < 1:
        raise ValueError(f"{path} has an invalid schema_version: {version!r}")
    if version > ARTIFACT_SCHEMA_VERSION:
        raise ValueError(
            f"{path} uses artifact schema v{version}; this reader understands "
            f"up to v{ARTIFACT_SCHEMA_VERSION} -- upgrade the repro package"
        )
    return normalize_artifact(data)
