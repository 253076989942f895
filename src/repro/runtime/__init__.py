"""The experiment runtime: persistent artifact cache + parallel scheduler.

This package turns the per-process memoization of
:mod:`repro.core.study` into a first-class execution subsystem:

* :mod:`repro.runtime.store` — a disk-backed, content-addressed cache of
  study artifacts (compiled images, traces, compressed images, fetch
  metrics) with atomic writes, corruption-tolerant reads, and an LRU
  byte cap;
* :mod:`repro.runtime.fingerprint` — deterministic digests keyed on the
  benchmark, scale, scheme/config, and a source fingerprint of the whole
  ``repro`` package, so edits invalidate like a build system;
* :mod:`repro.runtime.metrics` — per-stage wall-time and hit/miss
  instrumentation rendered by :class:`RuntimeReport`;
* :mod:`repro.runtime.tasks` / :mod:`repro.runtime.scheduler` — a typed
  task graph over the study pipeline (compile → trace → compress →
  fetch-sim) fanned out across a ``ProcessPoolExecutor``.

:func:`get_or_compute` is the seam :class:`repro.core.study.ProgramStudy`
calls through: cache disabled (``REPRO_CACHE=0`` / ``--no-cache``) means
the compute callable runs directly, byte-identical to the historical
path.  :func:`get_or_compute_many` is the same seam for a batch of one
stage's artifacts computed by one call (``run_sweep``'s grid points).
Cached payloads are pickles — the store trusts its own cache
directory, nothing else.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.runtime.config import (
    RuntimeConfig,
    config_from_env,
    configure,
    reset_runtime_config,
    runtime_config,
    set_runtime_config,
)
from repro.runtime.fingerprint import (
    artifact_digest,
    fetch_config_token,
    reset_fingerprint_cache,
    source_fingerprint,
)
from repro.runtime.metrics import (
    REPORT,
    RuntimeReport,
    StageMetrics,
    capture,
    reset_metrics,
    stage_clock,
)
from repro.runtime.store import (
    MISS,
    ArtifactStore,
    StoreStats,
    default_store,
    reset_default_store,
)

__all__ = [
    "ArtifactStore",
    "MISS",
    "REPORT",
    "RuntimeConfig",
    "RuntimeReport",
    "StageMetrics",
    "StoreStats",
    "artifact_digest",
    "capture",
    "config_from_env",
    "configure",
    "default_store",
    "fetch_config_token",
    "get_or_compute",
    "get_or_compute_many",
    "reset_default_store",
    "reset_fingerprint_cache",
    "reset_metrics",
    "reset_runtime_config",
    "reset_runtime_state",
    "runtime_config",
    "set_runtime_config",
    "source_fingerprint",
]


def get_or_compute(
    stage: str,
    compute,
    *,
    benchmark: str,
    scale: int,
    scheme: Optional[str] = None,
    extra: Optional[dict] = None,
):
    """One artifact, through the store when enabled.

    Looks the artifact up by its content address; on a miss (or with the
    cache disabled) runs ``compute()`` and persists the result.  Either
    way the stage's wall-time and hit/miss counters land in
    :data:`REPORT` (see :func:`get_or_compute_many`).
    """
    [value] = get_or_compute_many(
        stage,
        lambda missing: [compute()],
        [{"scheme": scheme, "extra": extra}],
        benchmark=benchmark,
        scale=scale,
    )
    return value


def get_or_compute_many(
    stage: str,
    compute,
    keys: Sequence[dict],
    *,
    benchmark: str,
    scale: int,
) -> List:
    """Several artifacts of one stage, through the store when enabled.

    ``keys`` holds each artifact's ``scheme``/``extra`` address parts.
    ``compute(missing)`` receives the indices of the artifacts the store
    lacks (all of them with the cache disabled) and returns their
    values in that order: one call however many are missing.  Each
    computed value is persisted with one ``put``.

    Every artifact records one hit or miss in :data:`REPORT`.  Seconds
    are exclusive of the stages nested inside ``compute``: a hit is
    charged its own lookup, and the misses share the rest equally.
    """
    with stage_clock() as clock:
        values = [MISS] * len(keys)
        digests: List[Optional[str]] = [None] * len(keys)
        hit_seconds = 0.0
        enabled = runtime_config().enabled
        if enabled:
            store = default_store()
            for index, key in enumerate(keys):
                started = clock.seconds()
                digest = artifact_digest(
                    stage, benchmark=benchmark, scale=scale, **key
                )
                digests[index] = digest
                value = store.get(digest)
                if value is not MISS:
                    values[index] = value
                    seconds = clock.seconds() - started
                    hit_seconds += seconds
                    REPORT.record(
                        stage,
                        hit=True,
                        seconds=seconds,
                        bytes_read=store.size_of(digest),
                    )
        missing = [i for i, value in enumerate(values) if value is MISS]
        if not missing:
            return values
        written = []
        for index, value in zip(missing, compute(missing)):
            values[index] = value
            written.append(
                store.put(digests[index], value) if enabled else 0
            )
        share = (clock.seconds() - hit_seconds) / len(missing)
        for count in written:
            REPORT.record(
                stage, hit=False, seconds=share, bytes_written=count
            )
    return values


def reset_runtime_state() -> None:
    """Reset in-process runtime state (metrics, fingerprints, store handle).

    The persistent on-disk store is deliberately left alone — clearing
    it is an explicit operation (``repro cache clear``).
    """
    reset_metrics()
    reset_fingerprint_cache()
    reset_default_store()
