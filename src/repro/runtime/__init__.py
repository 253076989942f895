"""The experiment runtime: persistent artifact cache + parallel scheduler.

This package turns the per-process memoization of
:mod:`repro.core.study` into a first-class execution subsystem:

* :mod:`repro.runtime.store` — a disk-backed, content-addressed cache of
  study artifacts (compiled images, traces, compressed images, fetch
  metrics) and experiment rows, with atomic writes, corruption-tolerant
  reads, and an LRU byte cap;
* :mod:`repro.runtime.fingerprint` — deterministic digests keyed on the
  benchmark, scale, scheme/config, and a source fingerprint of the whole
  ``repro`` package, so edits invalidate like a build system;
* :mod:`repro.runtime.metrics` — per-stage wall-time and hit/miss
  instrumentation rendered by :class:`RuntimeReport`;
* :mod:`repro.runtime.tasks` / :mod:`repro.runtime.scheduler` — a task
  is a task id plus a picklable zero-argument call, the caller's own
  per-benchmark work; the tasks fan out across a
  ``ProcessPoolExecutor`` (one task runs inline) and each call's value
  comes back to the caller.

:func:`get_or_compute` is the seam :class:`repro.core.study.ProgramStudy`
and :func:`repro.core.experiments.stored_row` call through.  With the
cache disabled (``REPRO_CACHE=0`` / ``--no-cache``) the compute callable
runs directly, byte-identical to the historical path.
:func:`get_or_compute_many` is the same seam for a batch of one stage's
artifacts computed by one call (``run_sweep``'s grid points); it is
:func:`lookup` plus the clocked compute-and-store of the misses.

``run`` and ``sweep`` fan out by one rule: the parent looks every
artifact up, only the misses become tasks (the caller's own public
call), and whichever process computes an artifact stores and records it.

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
    "config_from_env",
    "configure",
    "default_store",
    "fetch_config_token",
    "get_or_compute",
    "get_or_compute_many",
    "lookup",
    "reset_default_store",
    "reset_fingerprint_cache",
    "reset_metrics",
    "reset_runtime_config",
    "reset_runtime_state",
    "runtime_config",
    "set_runtime_config",
    "source_fingerprint",
]


def lookup(stage: str, keys: Sequence[dict]) -> List:
    """Each artifact of ``keys`` from the store, or :data:`MISS` (all
    of them with the cache disabled).  A key holds an artifact's
    ``benchmark``, ``scale`` and optional ``scheme``/``extra``, so one
    call can cover several benchmarks.  Only the hits are recorded,
    each charged its own read: whoever computes a miss records it."""
    with stage_clock() as clock:
        return _lookup(stage, keys, clock)[0]


def _lookup(stage: str, keys: Sequence[dict], clock):
    """:func:`lookup` under ``clock``: the values, each key's digest
    (``None`` with the cache disabled) and the hits' seconds."""
    values = [MISS] * len(keys)
    digests: List[Optional[str]] = [None] * len(keys)
    hit_seconds = 0.0
    if runtime_config().enabled:
        store = default_store()
        for index, key in enumerate(keys):
            started = clock.seconds()
            digest = digests[index] = artifact_digest(stage, **key)
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
    return values, digests, hit_seconds


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

    ``stage`` is one of five: ``compile``, ``trace``, ``compress`` and
    ``fetch`` (a study's artifacts) and ``row`` (one benchmark's
    experiment row, keyed by ``extra={"experiment": id}``).  Looks the
    artifact up by its content address; on a miss (or with the cache
    disabled) runs ``compute()`` and persists the result.  Either way
    the stage's wall-time and hit/miss counters land in :data:`REPORT`
    (see :func:`get_or_compute_many`).
    """
    [value] = get_or_compute_many(
        stage,
        lambda missing: [compute()],
        [dict(benchmark=benchmark, scale=scale, scheme=scheme, extra=extra)],
    )
    return value


def get_or_compute_many(stage: str, compute, keys: Sequence[dict]) -> List:
    """Several artifacts of one stage, through the store when enabled.

    :func:`lookup` of ``keys``, then ``compute(missing)`` receives the
    indices of the artifacts the store lacks (all of them with the
    cache disabled) and returns their values in that order: one call
    however many are missing.  Each computed value is persisted with
    one ``put`` and recorded as a miss.  The misses share the call's
    seconds less the hits' equally, exclusive of the stages nested
    inside ``compute``.
    """
    with stage_clock() as clock:
        values, digests, hit_seconds = _lookup(stage, keys, clock)
        missing = [i for i, value in enumerate(values) if value is MISS]
        if not missing:
            return values
        written = []
        for index, value in zip(missing, compute(missing)):
            values[index] = value
            digest = digests[index]
            written.append(
                0 if digest is None else default_store().put(digest, value)
            )
        share = (clock.seconds() - hit_seconds) / len(missing)
    for count in written:
        REPORT.record(stage, hit=False, seconds=share, bytes_written=count)
    return values


def reset_runtime_state() -> None:
    """Reset in-process runtime state (metrics, fingerprints, store handle).

    The persistent on-disk store is deliberately left alone — clearing
    it is an explicit operation (``repro cache clear``).
    """
    reset_metrics()
    reset_fingerprint_cache()
    reset_default_store()
