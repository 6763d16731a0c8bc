"""Declarative experiment-cell specifications with stable content hashes.

A :class:`JobSpec` is the unit of work the scheduler distributes: one
experiment cell (e.g. "Table II, s5378, LFSR seed 3, quick profile")
described entirely by JSON-safe values, so it can be pickled into a
worker process, hashed into a cache key, and serialised into artifacts.

Two hashing layers make the cache sound:

* :attr:`JobSpec.spec_hash` -- SHA-256 over the spec's canonical JSON
  (sorted keys, no whitespace).  Any change to the experiment name, a
  parameter, or a profile field produces a different hash.
* :func:`code_version` -- SHA-256 over every ``*.py`` and ``*.c`` file under
  ``src/repro``.  The result store namespaces entries by this
  fingerprint, so editing the attack (or the runner itself) invalidates
  every cached cell without any manual bookkeeping.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping


def _jsonable(value: Any) -> Any:
    """Normalise ``value`` into plain JSON types (tuples become lists)."""
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, Mapping):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    raise TypeError(f"JobSpec values must be JSON-safe, got {type(value).__name__}")


@dataclass
class JobSpec:
    """One experiment cell: an experiment name, its parameters, a profile.

    ``experiment`` selects the cell function (see
    :data:`repro.reports.cells.CELL_RUNNERS`); ``params`` are its keyword
    arguments; ``profile`` is the serialised
    :class:`~repro.reports.profiles.ExperimentProfile` the cell runs at.
    Instances are value objects -- do not mutate them after creation.
    """

    experiment: str
    params: dict[str, Any] = field(default_factory=dict)
    profile: dict[str, Any] = field(default_factory=dict)

    @classmethod
    def make(cls, experiment: str, profile: Any, **params: Any) -> "JobSpec":
        """Build a spec from an :class:`ExperimentProfile` and cell kwargs."""
        from repro.reports.profiles import profile_to_dict

        return cls(
            experiment=experiment,
            params=_jsonable(params),
            profile=profile_to_dict(profile),
        )

    def canonical(self) -> str:
        """Canonical JSON encoding: sorted keys, minimal separators."""
        payload = {
            "experiment": self.experiment,
            "params": _jsonable(self.params),
            "profile": _jsonable(self.profile),
        }
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))

    @property
    def spec_hash(self) -> str:
        """Stable SHA-256 hex digest of the canonical encoding."""
        return hashlib.sha256(self.canonical().encode("utf-8")).hexdigest()

    @property
    def label(self) -> str:
        """Short human-readable identity for progress lines and logs."""
        parts = [
            f"{key}={value}"
            for key, value in sorted(self.params.items())
            if value is not None
        ]
        profile_name = self.profile.get("name", "?")
        detail = ",".join(parts) if parts else "-"
        return f"{self.experiment}[{detail}]@{profile_name}"

    def to_dict(self) -> dict[str, Any]:
        """Plain-dict form (what gets pickled into worker processes)."""
        return {
            "experiment": self.experiment,
            "params": dict(self.params),
            "profile": dict(self.profile),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "JobSpec":
        """Inverse of :meth:`to_dict`."""
        return cls(
            experiment=data["experiment"],
            params=dict(data.get("params", {})),
            profile=dict(data.get("profile", {})),
        )


_CODE_VERSION: str | None = None


def _fingerprint_source_tree(root: Path) -> str:
    """One full walk of ``root``: hash every ``*.py`` and ``*.c`` path and contents.

    This is the expensive part of :func:`code_version` (it reads every
    source file under ``src/repro``), kept as a separate hook so tests
    can pin that it runs at most once per process no matter how many
    stores are opened.
    """
    digest = hashlib.sha256()
    for path in sorted([*root.rglob("*.py"), *root.rglob("*.c")]):
        digest.update(str(path.relative_to(root)).encode("utf-8"))
        digest.update(b"\0")
        digest.update(path.read_bytes())
        digest.update(b"\0")
    return digest.hexdigest()


def code_version() -> str:
    """Fingerprint of the ``src/repro`` source tree (cached per process).

    Hashes every ``*.py`` and ``*.c`` file's path and contents in sorted
    order, so any source edit -- attack, simulator, the native SAT kernel,
    or the runner itself -- yields a new version and orphans previously
    cached results.  The walk runs
    once per process and the digest is shared by every store opened
    afterwards (opening N stores must not re-hash the tree N times).
    """
    global _CODE_VERSION
    if _CODE_VERSION is None:
        _CODE_VERSION = _fingerprint_source_tree(Path(__file__).resolve().parents[1])
    return _CODE_VERSION
