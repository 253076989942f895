"""Run independent request chains across processes.

Each :class:`~repro.runtime.tasks.TaskSpec` is one benchmark's ordered
chain, and its study pulls in every prerequisite itself, so chains
need no order between them.  ``jobs <= 1`` runs them inline (zero
overhead, warms the parent's in-memory studies too).  ``jobs > 1``
submits every chain to a ``ProcessPoolExecutor`` at once.  Workers
communicate *artifacts* through the persistent store — only small
:class:`TaskResult` records (timings + metric counters) come back over
the pipe — which is why parallel execution requires the cache to be
enabled.
"""

from __future__ import annotations

import traceback
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass, field
from time import perf_counter
from typing import List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError, SchedulerError
from repro.runtime.config import (
    RuntimeConfig,
    runtime_config,
    set_runtime_config,
)
from repro.runtime.metrics import REPORT, reset_metrics
from repro.runtime.tasks import TaskSpec, execute_request, study_chains


@dataclass
class TaskResult:
    """Outcome of one chain (small and picklable)."""

    task_id: str
    #: The stage of the last request run: on failure, the failing one.
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


def _run_chain(spec: TaskSpec) -> Tuple[TaskResult, Optional[Exception]]:
    """Run ``spec``'s requests in order, stopping at the first failure.

    A failing chain must never be swallowed into a silent wrong result:
    its full traceback rides in ``TaskResult.error``, and a
    :class:`ConfigurationError` (a bad invocation, not a broken task)
    also sends its message, so a parent can chain it as the cause.
    """
    started = perf_counter()
    stage = ""
    try:
        for request in spec.requests:
            stage = request.stage
            execute_request(spec, request)
    except Exception as exc:
        return TaskResult(
            spec.task_id,
            stage,
            perf_counter() - started,
            ok=False,
            error=traceback.format_exc(),
            configuration_error=(
                str(exc) if isinstance(exc, ConfigurationError) else None
            ),
        ), exc
    return TaskResult(spec.task_id, stage, perf_counter() - started), None


def _pool_run(spec: TaskSpec) -> TaskResult:
    """Worker-side task body: run the chain, ship the metric deltas home."""
    reset_metrics()
    result, _ = _run_chain(spec)
    result.report = REPORT.to_json()
    return result


def _inline_run(spec: TaskSpec) -> TaskResult:
    result, exc = _run_chain(spec)  # records directly into REPORT
    if exc is not None:
        REPORT.record_failure(result.stage, spec.task_id, result.error)
        raise SchedulerError(
            f"task {spec.task_id} ({result.stage}) failed: {exc}"
        ) from exc
    return result


def execute_chains(
    tasks: Sequence[TaskSpec],
    *,
    jobs: int = 1,
    config: Optional[RuntimeConfig] = None,
) -> List[TaskResult]:
    """Run every chain of ``tasks``.

    A chain stops at its first failing request, and the chains not yet
    started are cancelled.  Raises :class:`SchedulerError` once the
    running ones have drained, carrying the real worker traceback and
    recording each failure against its request's stage in
    :data:`REPORT`; partial artifacts already persisted stay valid —
    content addressing makes re-runs pick them up.  The first failing
    chain in ``tasks`` order is the one reported; when it raised a
    :class:`ConfigurationError`, the :class:`SchedulerError` is chained
    from one carrying its message.  The pool never holds more workers
    than there are chains.
    """
    if config is None:
        config = runtime_config()
    if jobs <= 1 or not tasks:
        return [_inline_run(spec) for spec in tasks]
    if not config.enabled:
        raise ConfigurationError(
            "parallel execution needs the artifact cache: workers hand "
            "artifacts to the parent through the store (drop --jobs or "
            "re-enable the cache)"
        )

    with ProcessPoolExecutor(
        max_workers=min(jobs, len(tasks)),
        initializer=_worker_init, initargs=(config,)
    ) as pool:
        futures = [pool.submit(_pool_run, spec) for spec in tasks]
        try:
            pending = set(futures)
            while pending:
                done, pending = wait(pending, return_when=FIRST_COMPLETED)
                for future in done:
                    result = future.result()
                    REPORT.merge_json(result.report)
                    if not result.ok:
                        # cancel() succeeds on chains not yet started.
                        pending = {f for f in pending if not f.cancel()}
        except BaseException:
            # Graceful drain on interruption (SIGTERM/SIGINT mapped to
            # an exception by the CLI, or any parent-side error): cancel
            # everything still queued but let the tasks already running
            # finish their atomic store writes before the pool goes
            # away.  Artifacts persisted so far stay valid — content
            # addressing makes the next run pick them up.
            pool.shutdown(wait=True, cancel_futures=True)
            raise
    results = [f.result() for f in futures if not f.cancelled()]
    errors = [r for r in results if not r.ok]
    if errors:
        for result in errors:
            REPORT.record_failure(
                result.stage, result.task_id, result.error or ""
            )
        first = errors[0]
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
    trace: bool = False,
    schemes: Sequence[str] = (),
    fetch_schemes: Sequence[str] = (),
    jobs: int = 1,
) -> List[TaskResult]:
    """Materialize the artifacts a caller reads for ``benchmarks``.

    The CLI calls this before rendering rows so a ``--jobs N`` run fans
    one chain per benchmark out and the row pass reads back warm
    artifacts.  ``trace`` asks for the trace itself, which a
    ``fetch`` request or a trace-profiled hybrid pulls in anyway.
    """
    chains = study_chains(
        benchmarks,
        scale=scale,
        trace=trace,
        schemes=schemes,
        fetch_schemes=fetch_schemes,
    )
    return execute_chains(chains, jobs=jobs)
