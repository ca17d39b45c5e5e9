"""Append-only, content-addressed run ledger — longitudinal memory.

Every layer that produces numbers (benchmark emitters, the experiment
harness, the job service) appends one JSON line per run here, so the
per-PR ``BENCH_*.json`` snapshots become rows of a durable trajectory
that :mod:`repro.obs.trend` can query across sessions and machines.

A record's identity is its **run_key**: the SHA-256 of the canonical
JSON of its *result-determining configuration* — the graph content
digest (:func:`repro.graph.graph_digest`), engine, workers, seed, and
engine parameters (:meth:`repro.core.runspec.RunSpec.config` for jobs
and refreshes).  Two runs of the same configuration carry
byte-identical run_keys regardless of when, where, or in what order
they ran; anything that can change the answer changes the key.  Host,
timestamp, and software versions live in the **provenance** block —
they describe a sample, never its identity.

Record shape (``repro.ledger/v1``)::

    {
      "schema":  "repro.ledger/v1",
      "run_key": "<sha256 of canonical config JSON>",
      "kind":    "bench" | "experiment" | "service",
      "source":  "bench_parallel_scaling",        # who appended it
      "label":   "orkut_surrogate/w4",            # human handle
      "config":  {"graph": "<digest>", "engine": ..., "seed": ...},
      "telemetry": {"codelength": ..., "num_modules": ..., "nmi": ...},
      "perf":      {"wall_seconds": ..., "sweep_vertices_per_s": ...},
      "provenance": {"timestamp": ..., "git_rev": ..., "hostname": ...,
                     "cpus": ..., "python": ..., "numpy": ...}
    }

Arming follows the :mod:`repro.obs.metrics` pattern: recording is off
by default; the CLI's ``--ledger PATH`` flag (or :func:`scoped_ledger`
in tests) arms a process-wide :class:`Ledger` that instrumented layers
check via :func:`is_enabled` / :func:`get_ledger`.

See ``docs/trend.md`` for the schema reference and the ``repro trend``
/ ``repro ledger`` CLI built on top.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import socket
import subprocess
from contextlib import contextmanager
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Iterable, Iterator, Mapping

__all__ = [
    "LEDGER_SCHEMA",
    "RECORD_KINDS",
    "run_key",
    "provenance",
    "make_record",
    "validate_record",
    "Ledger",
    "enable",
    "disable",
    "is_enabled",
    "get_ledger",
    "scoped_ledger",
]

LEDGER_SCHEMA = "repro.ledger/v1"

#: which layer appended a record
RECORD_KINDS = ("bench", "experiment", "service", "dynamic")

_REQUIRED_KEYS = (
    "schema", "run_key", "kind", "source", "label",
    "config", "telemetry", "perf", "provenance",
)
_REQUIRED_PROVENANCE = (
    "timestamp", "git_rev", "hostname", "cpus", "python", "numpy",
)


# ---------------------------------------------------------------------- keys

def run_key(config: Mapping[str, Any]) -> str:
    """SHA-256 hex digest of the canonical JSON of ``config``.

    ``config`` must contain exactly the result-determining fields of a
    run (graph digest, engine, workers, seed, params).  Canonical form:
    :func:`repro.obs.export.jsonable` (numpy leaves to builtins, keys
    stringified and sorted) dumped with sorted keys and no whitespace —
    so dict insertion order, numpy scalar types, and float spelling
    cannot change the key.
    """
    from repro.obs.export import jsonable

    if not isinstance(config, Mapping) or not config:
        raise ValueError("run_key needs a non-empty config mapping")
    payload = json.dumps(
        jsonable(dict(config)), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(f"runkey/v1:{payload}".encode()).hexdigest()


# ---------------------------------------------------------------- provenance

_GIT_REV: str | None = None


def _git_rev() -> str:
    global _GIT_REV
    if _GIT_REV is None:
        try:
            _GIT_REV = subprocess.run(
                ["git", "rev-parse", "--short", "HEAD"],
                cwd=Path(__file__).resolve().parent,
                capture_output=True, text=True, timeout=5,
            ).stdout.strip() or "unknown"
        except (OSError, subprocess.SubprocessError):
            _GIT_REV = "unknown"
    return _GIT_REV


def provenance() -> dict:
    """Where/when/with-what this sample was taken (never part of the key)."""
    import numpy as np

    return {
        "timestamp": datetime.now(timezone.utc).isoformat(
            timespec="seconds"
        ),
        "git_rev": _git_rev(),
        "hostname": socket.gethostname(),
        "cpus": os.cpu_count() or 1,
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


# ------------------------------------------------------------------- records

def make_record(
    *,
    kind: str,
    source: str,
    config: Mapping[str, Any],
    telemetry: Mapping[str, Any] | None = None,
    perf: Mapping[str, Any] | None = None,
    label: str = "",
) -> dict:
    """Build one schema-valid ledger record (run_key derived from
    ``config``, provenance stamped now)."""
    from repro.obs.export import jsonable

    if kind not in RECORD_KINDS:
        raise ValueError(f"kind must be one of {RECORD_KINDS}, got {kind!r}")
    rec = {
        "schema": LEDGER_SCHEMA,
        "run_key": run_key(config),
        "kind": kind,
        "source": str(source),
        "label": str(label),
        "config": jsonable(dict(config)),
        "telemetry": jsonable(dict(telemetry or {})),
        "perf": jsonable(dict(perf or {})),
        "provenance": provenance(),
    }
    validate_record(rec)
    return rec


def validate_record(rec: Any, where: str = "record") -> None:
    """Raise ``ValueError`` describing the first schema violation.

    Beyond shape, this re-derives the run_key from the stored config:
    a record whose key does not match its config has been tampered
    with (or hashed by an incompatible writer) and must not feed a
    trend report.
    """
    if not isinstance(rec, dict):
        raise ValueError(f"{where}: expected a JSON object, "
                         f"got {type(rec).__name__}")
    missing = [k for k in _REQUIRED_KEYS if k not in rec]
    if missing:
        raise ValueError(f"{where}: missing key(s) {missing}")
    if rec["schema"] != LEDGER_SCHEMA:
        raise ValueError(
            f"{where}: schema {rec['schema']!r} is not {LEDGER_SCHEMA!r}"
        )
    if rec["kind"] not in RECORD_KINDS:
        raise ValueError(
            f"{where}: kind {rec['kind']!r} not in {RECORD_KINDS}"
        )
    for key in ("config", "telemetry", "perf", "provenance"):
        if not isinstance(rec[key], dict):
            raise ValueError(f"{where}: {key} must be an object")
    if not rec["config"]:
        raise ValueError(f"{where}: config must be non-empty")
    for key in ("source", "label"):
        if not isinstance(rec[key], str):
            raise ValueError(f"{where}: {key} must be a string")
    missing = [k for k in _REQUIRED_PROVENANCE if k not in rec["provenance"]]
    if missing:
        raise ValueError(f"{where}: provenance missing {missing}")
    expected = run_key(rec["config"])
    if rec["run_key"] != expected:
        raise ValueError(
            f"{where}: run_key {rec['run_key'][:12]}... does not match "
            f"its config (expected {expected[:12]}...); the record was "
            f"edited after writing or hashed by an incompatible writer"
        )


# -------------------------------------------------------------------- ledger

class Ledger:
    """Append-only JSONL run history at ``path``.

    Appends are line-atomic compact JSON with sorted keys; reads are
    tolerant of blank lines but *not* of malformed ones — a ledger a
    reader cannot fully parse should fail loudly (``repro ledger
    validate`` reports every bad line with its number).
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)

    def __len__(self) -> int:
        return len(self.read()) if self.path.exists() else 0

    def append(self, record: dict) -> dict:
        """Validate and append one record; returns it."""
        validate_record(record)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with open(self.path, "a") as fh:
            fh.write(
                json.dumps(record, sort_keys=True, separators=(",", ":"))
                + "\n"
            )
        return record

    def append_many(self, records: Iterable[dict]) -> list[dict]:
        return [self.append(r) for r in records]

    def read(self) -> list[dict]:
        """Every record, file order; raises on unparseable lines."""
        out: list[dict] = []
        with open(self.path) as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.strip()
                if not line:
                    continue
                try:
                    out.append(json.loads(line))
                except json.JSONDecodeError as exc:
                    raise ValueError(
                        f"{self.path}:{lineno}: not JSON: {exc}"
                    ) from None
        return out

    def validate(self) -> list[str]:
        """Every problem in the file, as ``line N: reason`` strings."""
        errors: list[str] = []
        try:
            with open(self.path) as fh:
                lines = fh.readlines()
        except OSError as exc:
            return [f"cannot read {self.path}: {exc.strerror or exc}"]
        for lineno, line in enumerate(lines, 1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as exc:
                errors.append(f"line {lineno}: not JSON: {exc}")
                continue
            try:
                validate_record(rec, where=f"line {lineno}")
            except ValueError as exc:
                errors.append(str(exc))
        return errors


# ------------------------------------------------------------- global arming

_armed: Ledger | None = None


def enable(path: str | Path) -> Ledger:
    """Arm a process-wide ledger; instrumented layers append to it."""
    global _armed
    _armed = Ledger(path)
    return _armed


def disable() -> None:
    global _armed
    _armed = None


def is_enabled() -> bool:
    return _armed is not None


def get_ledger() -> Ledger | None:
    return _armed


@contextmanager
def scoped_ledger(path: str | Path) -> Iterator[Ledger]:
    """Arm a ledger for the scope, restoring the previous arming after."""
    global _armed
    prev = _armed
    _armed = Ledger(path)
    try:
        yield _armed
    finally:
        _armed = prev
