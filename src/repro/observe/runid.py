"""Structured run identifiers correlating benches, traces and metrics.

Every artifact a run emits — bench JSON payloads, exported traces,
metrics snapshots — carries the same ``run_id`` mapping so a trace file
can be joined back to the bench row (and the commit) that produced it.
"""

from __future__ import annotations

import os
import subprocess
import uuid
from datetime import datetime, timezone
from typing import Any

from repro.backend import blas_threads

__all__ = ["new_run_id", "resolve_commit"]


def resolve_commit() -> str | None:
    """Best-effort commit SHA: ``$GITHUB_SHA`` in CI, else ``git
    rev-parse HEAD``, else ``None`` outside a checkout."""
    sha = os.environ.get("GITHUB_SHA")
    if sha:
        return sha
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, check=False,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else None


def new_run_id(commit: str | None = None) -> dict[str, Any]:
    """A fresh structured run identifier.

    Returns ``{"id": <uuid hex>, "started_at": <UTC ISO timestamp>,
    "commit": <sha or None>, "blas_threads": <int or None>}`` — the
    shape stamped into bench payloads and metrics snapshots.
    ``blas_threads`` is this process's BLAS thread count
    (:func:`repro.backend.blas_threads`); shard worker processes run
    with their own budget, reported by
    :attr:`repro.shard.ShardGroup.worker_blas_threads`.
    """
    return {
        "id": uuid.uuid4().hex,
        "started_at": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "commit": commit if commit is not None else resolve_commit(),
        "blas_threads": blas_threads(),
    }
