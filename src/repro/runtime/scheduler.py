"""Run independent tasks across processes.

Each :class:`~repro.runtime.tasks.TaskSpec` is a task id plus a
picklable zero-argument call, and the study behind the call pulls in
every prerequisite itself, so tasks need no order between them.  With
``jobs <= 1`` or at most one task they run inline (no worker start,
and the parent's in-memory studies warm too).  Otherwise every task is
submitted to a ``ProcessPoolExecutor`` at once.  Workers communicate
*artifacts* through the persistent store — only small
:class:`TaskResult` records (timings + metric counters) come back over
the pipe — which is why parallel execution requires the cache to be
enabled.
"""

from __future__ import annotations

import traceback
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, List, Mapping, NoReturn, Optional, Sequence, Tuple

from repro.errors import ConfigurationError, SchedulerError
from repro.runtime.config import (
    RuntimeConfig,
    runtime_config,
    set_runtime_config,
)
from repro.runtime.metrics import REPORT, reset_metrics
from repro.runtime.tasks import TaskSpec, benchmark_task_id


@dataclass
class TaskResult:
    """Outcome of one task (small and picklable)."""

    task_id: str
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


def _run(task: TaskSpec) -> Tuple[TaskResult, Optional[Exception]]:
    """Call ``task``, catching its failure.

    A failing task must never be swallowed into a silent wrong result:
    its full traceback rides in ``TaskResult.error``, and a
    :class:`ConfigurationError` (a bad invocation, not a broken task)
    also sends its message, so a parent can chain it as the cause.
    """
    started = perf_counter()
    try:
        task.call()
    except Exception as exc:
        return TaskResult(
            task.task_id,
            perf_counter() - started,
            ok=False,
            error=traceback.format_exc(),
            configuration_error=(
                str(exc) if isinstance(exc, ConfigurationError) else None
            ),
        ), exc
    return TaskResult(task.task_id, perf_counter() - started), None


def _pool_run(task: TaskSpec) -> TaskResult:
    """Worker-side task body: run the task, ship the metric deltas home."""
    reset_metrics()
    result, _ = _run(task)
    result.report = REPORT.to_json()
    return result


def _fail(
    failures: Sequence[TaskResult], cause: Optional[BaseException]
) -> NoReturn:
    """Record ``failures`` in :data:`REPORT` and raise the first one."""
    for result in failures:
        REPORT.record_failure(result.task_id, result.error or "")
    first = failures[0]
    raise SchedulerError(
        f"{len(failures)} task(s) failed, first: {first.task_id}\n"
        f"{first.error or ''}"
    ) from cause


def execute_tasks(
    tasks: Sequence[TaskSpec],
    *,
    jobs: int = 1,
    config: Optional[RuntimeConfig] = None,
) -> List[TaskResult]:
    """Run every task of ``tasks``.

    The first failure stops the tasks not yet started (inline: the
    rest of the list; pooled: every queued future is cancelled).
    Raises :class:`SchedulerError` once the running ones have drained,
    naming the failed-task count and the first failing task in
    ``tasks`` order and carrying its traceback; each failure is
    recorded in :data:`REPORT`.  Partial artifacts already persisted
    stay valid — content addressing makes re-runs pick them up.  The
    error is chained from the original exception inline, and from a
    :class:`ConfigurationError` carrying a worker's message when the
    worker raised one.  The pool never holds more workers than there
    are tasks.
    """
    if config is None:
        config = runtime_config()
    if jobs <= 1 or len(tasks) <= 1:
        results = []
        for task in tasks:
            result, exc = _run(task)  # records directly into REPORT
            if exc is not None:
                _fail([result], exc)
            results.append(result)
        return results
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
        futures = [pool.submit(_pool_run, task) for task in tasks]
        try:
            pending = set(futures)
            while pending:
                done, pending = wait(pending, return_when=FIRST_COMPLETED)
                for future in done:
                    result = future.result()
                    REPORT.merge_json(result.report)
                    if not result.ok:
                        # cancel() succeeds on tasks not yet started.
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
    failures = [r for r in results if not r.ok]
    if failures:
        message = failures[0].configuration_error
        _fail(
            failures,
            None if message is None else ConfigurationError(message),
        )
    return results


def prewarm(
    calls: Mapping[str, Callable[[], object]],
    *,
    scale: Optional[int] = None,
    jobs: int = 1,
) -> List[TaskResult]:
    """Run each benchmark's call of ``calls`` as one task.

    The CLI hands over its own per-benchmark work (a figure's runner
    on one benchmark, one suite row) before its row pass, so a
    ``--jobs N`` run fans the benchmarks out and the row pass reads
    back warm artifacts — exactly the ones the rows read.
    """
    return execute_tasks(
        [
            TaskSpec(benchmark_task_id(name, scale), call)
            for name, call in calls.items()
        ],
        jobs=jobs,
    )
