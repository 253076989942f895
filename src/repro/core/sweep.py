"""Store-backed orchestration for multi-configuration fetch sweeps.

:func:`repro.fetch.sweep.simulate_fetch_sweep` is the pure engine — one
(image, trace) pair, many configs, no I/O.  This module is the runtime
wrapper the CLI, figure studies, and examples call:

* **Grid building** — :func:`expand_grid` turns per-axis value lists
  (schemes × caches × ATBs × predictors × L0 × bus) into an ordered,
  deduplicated list of :class:`FetchConfig` points, collapsing axes
  that cannot affect a point (L0 capacity outside the organizations
  with an L0 buffer, gshare history width under the block predictor)
  so a grid never pays for — or caches — behaviorally identical points
  twice.
* **Store interop** — every per-config result is read and published
  under :func:`~repro.core.study.fetch_key`, the one address
  :meth:`ProgramStudy.fetch_metrics` uses too, so sweeps warm the
  figure studies and vice versa; a fully warm sweep is pure store
  reads and makes no task.
* **Sharding** — with ``jobs > 1`` the configs the store lacks are
  split into contiguous single-scheme chunks, each one task calling
  :func:`run_sweep` at ``jobs=1``: the worker computes, stores and
  records its chunk and returns the metrics, and the parent's wait is
  no stage's time.  Contiguous chunks keep cross-product neighbors
  (which share predictor or cache components) in the same worker,
  preserving the engine's sharing.
"""

from __future__ import annotations

from functools import partial
from math import ceil
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro import runtime
from repro.compression.registry import (
    HYBRID_PROFILE_SOURCES,
    hybrid_key,
    hybrid_profile_source,
    parse_hybrid_key,
)
from repro.errors import ConfigurationError
from repro.fetch.config import (
    PAPER_ORGANIZATIONS,
    CacheGeometry,
    FetchConfig,
    fetch_image_key,
    normalize_fetch_scheme,
    organization,
)
from repro.fetch.engine import FetchMetrics
from repro.fetch.sweep import simulate_fetch_sweep_multi
from repro.runtime.tasks import TaskSpec, benchmark_task_id

__all__ = [
    "expand_grid",
    "run_sweep",
]

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


def _sweep_scheme(scheme: str) -> str:
    """Normalize one organization of a sweep; Ideal has no config."""
    scheme = normalize_fetch_scheme(scheme)
    if scheme == "ideal":
        raise ConfigurationError(
            "the ideal organization has no fetch config to sweep"
        )
    return scheme


def expand_grid(
    schemes: Sequence[str] = PAPER_ORGANIZATIONS,
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
        scheme = _sweep_scheme(scheme)
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
                            else (FetchConfig.gshare_history_bits,)
                        )
                        l0_axis = (
                            l0_capacities
                            if organization(scheme).l0
                            else (FetchConfig.l0_capacity_ops,)
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


def _compute_batch(
    study, configs: Sequence[FetchConfig]
) -> List[FetchMetrics]:
    """Run the columnar engine over ``configs`` in one mixed-scheme call.

    The multi-image entry point resolves each config's scheme to the
    study's per-scheme compressed image, so predictor components are
    shared across schemes (all images wrap the same program), and the
    study's replay state shares them with its earlier fetches.
    """
    trace = study.run.block_trace
    images = {
        scheme: study.compressed(fetch_image_key(scheme))
        for scheme in dict.fromkeys(config.scheme for config in configs)
    }
    return simulate_fetch_sweep_multi(
        images, trace, configs, replay=study.replay
    )


def _compute_sharded(
    study, configs: Sequence[FetchConfig], jobs: int
) -> List[FetchMetrics]:
    """``configs`` fanned out to ``jobs`` processes, one
    :func:`run_sweep` task per chunk.

    Chunks are contiguous runs within each scheme group, at most
    ``jobs`` chunks per group, each an independent task.  With the store
    on, the parent materializes the trace and each scheme's image first,
    so every worker reads them instead of computing them again.
    """
    from repro.runtime.scheduler import execute_tasks

    by_scheme: Dict[str, List[int]] = {}
    for index, config in enumerate(configs):
        scheme = normalize_fetch_scheme(config.scheme)
        by_scheme.setdefault(scheme, []).append(index)
    if by_scheme and runtime.runtime_config().enabled:
        study.run
        for scheme in by_scheme:
            study.compressed(fetch_image_key(scheme))
    chunk_size = max(1, ceil(len(configs) / jobs))
    prefix = benchmark_task_id(study.name, study.scale)
    chunks, tasks = [], []
    for scheme, members in by_scheme.items():
        for start in range(0, len(members), chunk_size):
            chunk = members[start : start + chunk_size]
            chunks.append(chunk)
            tasks.append(
                TaskSpec(
                    f"{prefix}:{scheme}:{start // chunk_size}",
                    partial(
                        run_sweep,
                        study.name,
                        tuple(configs[i] for i in chunk),
                        scale=study.scale,
                    ),
                )
            )
    values: List[FetchMetrics] = [None] * len(configs)
    for chunk, result in zip(chunks, execute_tasks(tasks, jobs=jobs)):
        for index, metrics in zip(chunk, result.value):
            values[index] = metrics
    return values


def run_sweep(
    benchmark: str,
    configs: Sequence[FetchConfig],
    *,
    scale: Optional[int] = None,
    jobs: int = 1,
) -> List[FetchMetrics]:
    """Simulate ``configs`` against one benchmark's trace, in order.

    Each returned element is bit-identical to
    ``study.fetch_metrics(config.scheme, config)`` and stored under the
    same :func:`~repro.core.study.fetch_key`, but cold configs are
    computed by one columnar engine call instead of one replay per
    config; with ``jobs > 1`` the configs the store lacks are sharded
    (:func:`_compute_sharded`).  Results are not memoized in-process:
    with the store off every point is simulated on every call.  Predictor
    outcomes are: the study's replay state keeps each one it computes,
    so a later sweep or fetch of the study skips that predictor pass.
    """
    from repro.core.study import fetch_key, study_for

    schemes = [_sweep_scheme(config.scheme) for config in configs]
    study = study_for(benchmark, scale)

    # Deduplicate repeated points: simulate once, answer every index.
    tokens = [runtime.fetch_config_token(config) for config in configs]
    first_of: Dict[str, int] = {}
    for index, token in enumerate(tokens):
        first_of.setdefault(token, index)
    first = list(first_of.values())
    unique = [configs[i] for i in first]
    address = {"benchmark": study.name, "scale": study.effective_scale}
    keys = [dict(fetch_key(schemes[i], configs[i]), **address) for i in first]
    if jobs <= 1:
        values = runtime.get_or_compute_many(
            "fetch",
            lambda todo: _compute_batch(study, [unique[i] for i in todo]),
            keys,
        )
    else:
        values = runtime.lookup("fetch", keys)
        missing = [i for i, hit in enumerate(values) if hit is runtime.MISS]
        sharded = _compute_sharded(study, [unique[i] for i in missing], jobs)
        for index, metrics in zip(missing, sharded):
            values[index] = metrics
    by_token = dict(zip(first_of, values))
    return [by_token[token] for token in tokens]
