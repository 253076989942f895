"""Dependency-aware scheduler: fan the task graph out across processes.

``jobs <= 1`` executes the graph inline (topological order, zero
overhead, warms the parent's in-memory studies too).  ``jobs > 1``
drives a ``ProcessPoolExecutor``: a task is submitted the moment its
dependencies finish, so independent (benchmark, scheme) chains overlap
freely.  Workers communicate *artifacts* through the persistent store —
only small :class:`TaskResult` records (timings + metric counters) come
back over the pipe — which is why parallel execution requires the cache
to be enabled.
"""

from __future__ import annotations

import traceback
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass, field
from time import perf_counter
from typing import Dict, List, Optional, Sequence

from repro.errors import ConfigurationError, SchedulerError
from repro.runtime.config import (
    RuntimeConfig,
    runtime_config,
    set_runtime_config,
)
from repro.runtime.metrics import REPORT, reset_metrics
from repro.runtime.tasks import (
    TaskSpec,
    build_study_graph,
    execute_task,
    topological_order,
)


@dataclass
class TaskResult:
    """Outcome of one task (small and picklable)."""

    task_id: str
    stage: str
    seconds: float
    ok: bool = True
    error: Optional[str] = None
    #: The message of a :class:`ConfigurationError` the task raised.
    configuration_error: Optional[str] = None
    report: dict = field(default_factory=dict)


def _worker_init(config: RuntimeConfig) -> None:
    """Run in each pool worker: inherit the parent's runtime overrides.

    Also drops in-memory study state the worker may have inherited via
    ``fork`` — a pre-populated study would satisfy stages without ever
    writing the store, and the store is the only channel back to the
    parent.
    """
    from repro.core.study import clear_caches

    set_runtime_config(config)
    clear_caches()
    reset_metrics()


def _pool_run(spec: TaskSpec) -> TaskResult:
    """Worker-side task body: execute, then ship the metric deltas home.

    A failing task must never be swallowed into a silent wrong result:
    the full worker traceback rides home in ``TaskResult.error`` and the
    parent re-raises it as a :class:`SchedulerError`.  A
    :class:`ConfigurationError` (a bad invocation, not a broken task)
    also sends its message, so the parent can chain it as the cause.
    """
    reset_metrics()
    started = perf_counter()
    try:
        execute_task(spec)
    except Exception as exc:
        return TaskResult(
            spec.task_id,
            spec.stage,
            perf_counter() - started,
            ok=False,
            error=traceback.format_exc(),
            configuration_error=(
                str(exc) if isinstance(exc, ConfigurationError) else None
            ),
        )
    return TaskResult(
        spec.task_id,
        spec.stage,
        perf_counter() - started,
        report=REPORT.to_json(),
    )


def _inline_run(spec: TaskSpec) -> TaskResult:
    started = perf_counter()
    try:
        execute_task(spec)  # records directly into the global REPORT
    except Exception as exc:
        REPORT.record_failure(
            spec.stage, spec.task_id, traceback.format_exc()
        )
        raise SchedulerError(
            f"task {spec.task_id} ({spec.stage}) failed: {exc}"
        ) from exc
    return TaskResult(spec.task_id, spec.stage, perf_counter() - started)


def execute_graph(
    graph: Dict[str, TaskSpec],
    *,
    jobs: int = 1,
    config: Optional[RuntimeConfig] = None,
) -> List[TaskResult]:
    """Run every task of ``graph``, respecting dependencies.

    Raises :class:`SchedulerError` if any task failed (after draining
    in-flight work), carrying the real worker traceback and recording
    the failure against the stage in :data:`REPORT`; partial artifacts
    already persisted stay valid — content addressing makes re-runs pick
    them up.  The first failing task in topological order is the one
    reported; when it raised a :class:`ConfigurationError`, the
    :class:`SchedulerError` is chained from one carrying its message.
    The pool never holds more workers than the graph has tasks.
    """
    if config is None:
        config = runtime_config()
    order = topological_order(graph)
    if jobs <= 1:
        return [_inline_run(graph[task_id]) for task_id in order]
    if not config.enabled:
        raise ConfigurationError(
            "parallel execution needs the artifact cache: workers hand "
            "artifacts to the parent through the store (drop --jobs or "
            "re-enable the cache)"
        )

    remaining: Dict[str, set] = {
        task_id: set(graph[task_id].deps) for task_id in graph
    }
    dependents: Dict[str, List[str]] = {}
    for task_id, spec in graph.items():
        for dep in spec.deps:
            dependents.setdefault(dep, []).append(task_id)

    results: List[TaskResult] = []
    failed = False
    with ProcessPoolExecutor(
        max_workers=min(jobs, len(graph)),
        initializer=_worker_init, initargs=(config,)
    ) as pool:
        futures = {}

        def submit_ready() -> None:
            for task_id in [t for t, deps in remaining.items() if not deps]:
                del remaining[task_id]
                futures[pool.submit(_pool_run, graph[task_id])] = task_id

        try:
            submit_ready()
            while futures:
                done, _ = wait(futures, return_when=FIRST_COMPLETED)
                for future in done:
                    task_id = futures.pop(future)
                    result = future.result()
                    results.append(result)
                    REPORT.merge_json(result.report)
                    if not result.ok:
                        failed = True
                        continue
                    for dependent in dependents.get(task_id, ()):
                        remaining.get(dependent, set()).discard(task_id)
                if not failed:
                    submit_ready()
        except BaseException:
            # Graceful drain on interruption (SIGTERM/SIGINT mapped to
            # an exception by the CLI, or any parent-side error): cancel
            # everything still queued but let the tasks already running
            # finish their atomic store writes before the pool goes
            # away.  Artifacts persisted so far stay valid — content
            # addressing makes the next run pick them up.
            pool.shutdown(wait=True, cancel_futures=True)
            raise
    if failed:
        errors = [r for r in results if not r.ok]
        for result in errors:
            REPORT.record_failure(
                result.stage, result.task_id, result.error or ""
            )
        first = min(errors, key=lambda r: order.index(r.task_id))
        cause = (
            None
            if first.configuration_error is None
            else ConfigurationError(first.configuration_error)
        )
        raise SchedulerError(
            f"{len(errors)} task(s) failed, first: {first.task_id}\n"
            f"{first.error or ''}"
        ) from cause
    return results


def prewarm(
    benchmarks: Sequence[str],
    *,
    scale: Optional[int] = None,
    schemes: Sequence[str] = (),
    fetch_schemes: Sequence[str] = (),
    jobs: int = 1,
) -> List[TaskResult]:
    """Materialize the artifact chain for ``benchmarks`` into the store.

    The CLI calls this before rendering figure rows so a ``--jobs N``
    run fans the expensive stages out and the row generators read back
    warm artifacts.
    """
    graph = build_study_graph(
        benchmarks,
        scale=scale,
        schemes=schemes,
        fetch_schemes=fetch_schemes,
    )
    return execute_graph(graph, jobs=jobs)
