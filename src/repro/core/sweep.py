"""Store-backed orchestration for multi-configuration fetch sweeps.

:func:`repro.fetch.sweep.simulate_fetch_sweep` is the pure engine — one
(image, trace) pair, many configs, no I/O.  This module is the runtime
wrapper the CLI, figure studies, and examples call:

* **Grid building** — :func:`expand_grid` turns per-axis value lists
  (schemes × caches × ATBs × predictors × L0 × bus) into an ordered,
  deduplicated list of :class:`FetchConfig` points, collapsing axes
  that cannot affect a point (L0 capacity outside the Compressed
  scheme, gshare history width under the block predictor) so a grid
  never pays for — or caches — behaviorally identical points twice.
* **Store interop** — every per-config result is cached under the same
  ``fetch``-stage digest :meth:`ProgramStudy.fetch_metrics` uses
  (``extra={"config": token, "scaled": True}``), so sweeps warm the
  figure studies and vice versa; a fully warm sweep is pure store
  reads.
* **Sharding** — with ``jobs > 1`` the cold configs are split into
  contiguous single-scheme chunks and run as ``sweep`` nodes of the
  PR 1 task graph; workers publish per-config results through the
  content-addressed store exactly like any other stage.  Contiguous
  chunks keep cross-product neighbors (which share predictor or cache
  components) in the same worker, preserving the engine's sharing.
"""

from __future__ import annotations

import json
from math import ceil
from time import perf_counter
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro import runtime
from repro.compression.registry import (
    HYBRID_PROFILE_SOURCES,
    fetch_scheme_base,
    hybrid_key,
    hybrid_profile_source,
    parse_hybrid_key,
)
from repro.errors import ConfigurationError
from repro.fetch.config import CacheGeometry, FetchConfig
from repro.fetch.engine import FetchMetrics
from repro.fetch.sweep import (
    config_from_json,
    config_to_json,
    simulate_fetch_sweep_multi,
)
from repro.runtime.store import MISS, default_store
from repro.runtime.tasks import TaskSpec, compile_id, compress_id, \
    fetch_image_key, normalize_fetch_scheme, trace_id

__all__ = [
    "execute_sweep_chunk",
    "expand_grid",
    "run_sweep",
]

_SWEEP_SCHEMES = ("base", "tailored", "compressed")

CachePoint = Union[CacheGeometry, Tuple[int, int, int]]


def _as_geometry(point: CachePoint, index: int) -> CacheGeometry:
    if isinstance(point, CacheGeometry):
        return point
    try:
        capacity, ways, line = point
    except (TypeError, ValueError):
        raise ConfigurationError(
            f"cache point #{index} must be a CacheGeometry or a "
            f"(capacity, ways, line) triple, got {point!r}"
        ) from None
    return CacheGeometry(
        name=f"sweep{capacity}x{ways}x{line}",
        capacity_bytes=int(capacity),
        ways=int(ways),
        line_bytes=int(line),
    )


def expand_grid(
    schemes: Sequence[str] = _SWEEP_SCHEMES,
    *,
    caches: Optional[Sequence[CachePoint]] = None,
    atbs: Sequence[Tuple[int, int]] = ((128, 4),),
    atb_miss_penalties: Sequence[int] = (2,),
    predictors: Sequence[str] = ("block",),
    gshare_bits: Sequence[int] = (10,),
    l0_capacities: Sequence[int] = (32,),
    bus_widths: Sequence[int] = (8,),
    hotness_thresholds: Sequence[float] = (),
    hotness_sources: Sequence[str] = ("trace",),
    scaled: bool = True,
) -> List[FetchConfig]:
    """Cross-product of the axes, as an ordered deduplicated config list.

    ``caches=None`` keeps each scheme on its default geometry
    (pressure-scaled when ``scaled``, the paper's literal 16/20KB pair
    otherwise).  Axes that cannot affect a point are collapsed to the
    :class:`FetchConfig` default — an L0 sweep over the Base scheme or
    a gshare-width sweep under the block predictor would otherwise
    manufacture distinct-looking configs with identical behavior.

    ``hotness_thresholds`` is the hybrid axis: each bare ``hybrid``
    entry in ``schemes`` expands into one ``hybrid@T`` point per
    threshold (explicit ``hybrid@T`` entries pass through unchanged).
    ``hotness_sources`` crosses every expanded hybrid point with the
    profile providers (``trace`` and/or ``static``).  Hybrid points
    share the Compressed defaults — same geometry, and the L0 axis
    applies (their cold majority decompresses through the buffer).
    """
    for source in hotness_sources:
        if source not in HYBRID_PROFILE_SOURCES:
            raise ConfigurationError(
                f"unknown hotness source {source!r} "
                f"(expected one of {HYBRID_PROFILE_SOURCES})"
            )
    expanded: List[str] = []
    for scheme in schemes:
        scheme = normalize_fetch_scheme(scheme)
        if scheme == "ideal":
            raise ConfigurationError(
                "the ideal organization has no fetch config to sweep"
            )
        hotness = parse_hybrid_key(scheme)
        if hotness is None:
            expanded.append(scheme)
            continue
        thresholds = (
            tuple(float(t) for t in hotness_thresholds)
            if scheme in ("hybrid", "hybrid:static") and hotness_thresholds
            else (hotness,)
        )
        base_source = hybrid_profile_source(scheme)
        sources = (
            hotness_sources
            if base_source == "trace"
            else (base_source,)
        )
        expanded.extend(
            hybrid_key(t, source)
            for t in thresholds
            for source in sources
        )
    configs: List[FetchConfig] = []
    seen = set()
    for scheme in expanded:
        if caches is None:
            scheme_caches = [
                FetchConfig.for_scheme(scheme, scaled=scaled).cache
            ]
        else:
            scheme_caches = [
                _as_geometry(point, i) for i, point in enumerate(caches)
            ]
        for cache in scheme_caches:
            for atb_entries, atb_ways in atbs:
                for atb_penalty in atb_miss_penalties:
                    for predictor in predictors:
                        hist_axis = (
                            gshare_bits
                            if predictor == "gshare"
                            else (10,)
                        )
                        l0_axis = (
                            l0_capacities
                            if fetch_scheme_base(scheme)
                            in ("compressed", "hybrid")
                            else (32,)
                        )
                        for bits in hist_axis:
                            for l0 in l0_axis:
                                for bus in bus_widths:
                                    config = FetchConfig(
                                        scheme=scheme,
                                        cache=cache,
                                        atb_entries=int(atb_entries),
                                        atb_ways=int(atb_ways),
                                        atb_miss_penalty=int(atb_penalty),
                                        l0_capacity_ops=int(l0),
                                        bus_bytes=int(bus),
                                        predictor=predictor,
                                        gshare_history_bits=int(bits),
                                    )
                                    token = (
                                        runtime.fetch_config_token(config)
                                    )
                                    if token not in seen:
                                        seen.add(token)
                                        configs.append(config)
    return configs


def _fetch_digest(
    benchmark: str, scale: int, config: FetchConfig, token: str
) -> str:
    """The store address :meth:`ProgramStudy.fetch_metrics` would use."""
    return runtime.artifact_digest(
        "fetch",
        benchmark=benchmark,
        scale=scale,
        scheme=config.scheme,
        extra={"config": token, "scaled": True},
    )


def _store_result(
    benchmark: str,
    scale: int,
    config: FetchConfig,
    token: str,
    metrics: FetchMetrics,
) -> None:
    """Publish one computed result under its ``fetch``-stage address."""
    runtime.get_or_compute(
        "fetch",
        lambda: metrics,
        benchmark=benchmark,
        scale=scale,
        scheme=config.scheme,
        extra={"config": token, "scaled": True},
    )


def _compute_batch(
    study, indices: Sequence[int], configs: Sequence[FetchConfig]
) -> List[FetchMetrics]:
    """Run the columnar engine over ``indices`` in one mixed-scheme call.

    Returns results positionally aligned with ``indices``.  The
    multi-image entry point resolves each config's scheme to the study's
    per-scheme compressed image, so predictor components are shared
    across schemes (all images wrap the same program).
    """
    trace = study.run.block_trace
    images = {
        scheme: study.compressed(fetch_image_key(scheme))
        for scheme in {configs[i].scheme for i in indices}
    }
    batch = simulate_fetch_sweep_multi(
        images, trace, [configs[i] for i in indices]
    )
    return list(batch)


def sweep_chunk_id(
    benchmark: str, scale: Optional[int], scheme: str, ordinal: int
) -> str:
    node = f"{benchmark}@{'d' if scale is None else scale}"
    return f"sweep:{node}:{scheme}:{ordinal}"


def execute_sweep_chunk(spec: TaskSpec) -> None:
    """Worker body of one ``sweep`` node: compute and publish a chunk.

    The chunk's configs ride in ``spec.payload`` as JSON; results land
    in the store under per-config ``fetch`` digests, which is the only
    channel back to the parent.
    """
    from repro.core.study import study_for

    if not spec.payload:
        raise ConfigurationError(
            f"sweep task {spec.task_id!r} has no config payload"
        )
    configs = [
        config_from_json(point) for point in json.loads(spec.payload)
    ]
    study = study_for(spec.benchmark, spec.scale)
    scale = study.effective_scale
    results = _compute_batch(study, range(len(configs)), configs)
    for config, metrics in zip(configs, results):
        token = runtime.fetch_config_token(config)
        _store_result(study.name, scale, config, token, metrics)


def _shard_pending(
    study,
    pending: Sequence[int],
    configs: Sequence[FetchConfig],
    payloads: Dict[int, dict],
    jobs: int,
) -> None:
    """Run ``pending`` configs as sweep nodes on the process pool.

    Chunks are contiguous runs within each scheme group, at most
    ``jobs`` chunks total, each depending on the trace node and its
    scheme's compress node.  Workers publish through the store; the
    caller reads the results back afterwards.
    """
    from repro.runtime.scheduler import execute_graph

    benchmark, scale = study.name, study.scale
    by_scheme: Dict[str, List[int]] = {}
    for index in pending:
        by_scheme.setdefault(configs[index].scheme, []).append(index)

    graph: Dict[str, TaskSpec] = {}
    cid = compile_id(benchmark, scale)
    tid = trace_id(benchmark, scale)
    graph[cid] = TaskSpec(cid, "compile", benchmark, scale)
    graph[tid] = TaskSpec(tid, "trace", benchmark, scale, deps=(cid,))
    chunk_size = max(1, ceil(len(pending) / max(1, jobs)))
    for scheme, members in by_scheme.items():
        image_key = fetch_image_key(scheme)
        sid = compress_id(benchmark, image_key, scale)
        if sid not in graph:
            # Trace-profiled hybrid recompression reads the trace (its
            # heat profile); ``:static`` hybrids need compile only.
            deps = (
                (cid, tid)
                if hybrid_profile_source(image_key) == "trace"
                else (cid,)
            )
            graph[sid] = TaskSpec(
                sid, "compress", benchmark, scale,
                scheme=image_key, deps=deps,
            )
        for ordinal, start in enumerate(
            range(0, len(members), chunk_size)
        ):
            chunk = members[start : start + chunk_size]
            task = sweep_chunk_id(benchmark, scale, scheme, ordinal)
            graph[task] = TaskSpec(
                task,
                "sweep",
                benchmark,
                scale,
                fetch_scheme=scheme,
                payload=json.dumps([payloads[i] for i in chunk]),
                deps=(tid, sid),
            )
    execute_graph(graph, jobs=jobs)


def run_sweep(
    benchmark: str,
    configs: Sequence[FetchConfig],
    *,
    scale: Optional[int] = None,
    jobs: int = 1,
) -> List[FetchMetrics]:
    """Simulate ``configs`` against one benchmark's trace, in order.

    Each returned element is bit-identical to
    ``study.fetch_metrics(config.scheme, config)`` — same store
    digests, same values — but cold configs are computed by the
    columnar engine (optionally sharded across ``jobs`` processes)
    instead of one replay per config.
    """
    from repro.core.study import study_for

    for config in configs:
        scheme = normalize_fetch_scheme(config.scheme)
        if scheme == "ideal":
            raise ConfigurationError(
                "the ideal organization has no fetch config to sweep"
            )

    study = study_for(benchmark, scale)
    eff_scale = study.effective_scale
    results: List[Optional[FetchMetrics]] = [None] * len(configs)

    # Deduplicate repeated points: simulate once, answer every index.
    tokens = [runtime.fetch_config_token(c) for c in configs]
    first_of: Dict[str, int] = {}
    unique: List[int] = []
    for index, token in enumerate(tokens):
        if token not in first_of:
            first_of[token] = index
            unique.append(index)

    cache_on = runtime.runtime_config().enabled
    pending: List[int] = []
    if cache_on:
        store = default_store()
        for index in unique:
            started = perf_counter()
            digest = _fetch_digest(
                benchmark, eff_scale, configs[index], tokens[index]
            )
            value = store.get(digest)
            if value is MISS:
                pending.append(index)
            else:
                results[index] = value
                runtime.REPORT.record(
                    "fetch",
                    hit=True,
                    seconds=perf_counter() - started,
                    bytes_read=store.size_of(digest),
                )
    else:
        pending = unique

    if pending:
        # A config without a JSON wire form (subclassed penalty table)
        # cannot ride to a worker; it computes in-process, where the
        # engine's per-config fallback handles it.
        payloads: Dict[int, dict] = {}
        local: List[int] = []
        shardable: List[int] = []
        for index in pending:
            try:
                payloads[index] = config_to_json(configs[index])
                shardable.append(index)
            except ConfigurationError:
                local.append(index)

        if jobs > 1 and len(shardable) > 1:
            _shard_pending(study, shardable, configs, payloads, jobs)
            store = default_store()
            for index in shardable:
                digest = _fetch_digest(
                    benchmark, eff_scale, configs[index], tokens[index]
                )
                value = store.get(digest)
                if value is MISS:  # pragma: no cover - worker published
                    local.append(index)
                else:
                    results[index] = value
        else:
            local = pending

        if local:
            batch = _compute_batch(study, local, configs)
            for index, metrics in zip(local, batch):
                results[index] = metrics
                if cache_on:
                    _store_result(
                        benchmark,
                        eff_scale,
                        configs[index],
                        tokens[index],
                        metrics,
                    )

    for index, token in enumerate(tokens):
        if results[index] is None:
            results[index] = results[first_of[token]]
    return results  # type: ignore[return-value]
