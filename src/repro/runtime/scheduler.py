"""Run independent tasks across processes and return their values.

Each :class:`~repro.runtime.tasks.TaskSpec` is a task id plus a
picklable zero-argument call, and the study behind the call pulls in
every prerequisite itself, so tasks need no order between them.
Callers make tasks only of what :func:`repro.runtime.lookup` missed.
With ``jobs <= 1`` or at most one task they run inline (no worker
start, no pool import, and the parent's in-memory studies warm too).
Otherwise a ``ProcessPoolExecutor`` runs them with at most one task in
flight per worker, so a failure leaves nothing queued behind it.
Either way each call's return value comes back in its
:class:`TaskResult` (over the pipe from a worker, where pickling keeps
floats exact), next to its metric counters.  A call stores and records
what it computes: the store is a cache the tasks may share, never the
channel their results travel through.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from itertools import islice
from typing import Callable, List, NoReturn, Optional, Sequence, Tuple

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
    ok: bool = True
    error: Optional[str] = None
    #: The message of a :class:`ConfigurationError` the task raised.
    configuration_error: Optional[str] = None
    report: dict = field(default_factory=dict)
    #: What the task's call returned (``None`` when it failed).
    value: object = None


def _worker_init(config: RuntimeConfig) -> None:
    """Run in each pool worker: inherit the parent's runtime overrides.

    Also drops any in-memory study state the worker inherited via
    ``fork``: a worker computes from its own inputs, so what it computes
    and the :data:`REPORT` counters it ships home are the same whether
    the pool forks or spawns its workers.
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
    try:
        value = task.call()
    except Exception as exc:
        import traceback  # only a failure pays for it

        return TaskResult(
            task.task_id,
            ok=False,
            error=traceback.format_exc(),
            configuration_error=(
                str(exc) if isinstance(exc, ConfigurationError) else None
            ),
        ), exc
    return TaskResult(task.task_id, value=value), None


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
    tasks: Sequence[TaskSpec], *, jobs: int = 1
) -> List[TaskResult]:
    """Run every task of ``tasks``; one :class:`TaskResult` each, in
    ``tasks`` order, its ``value`` what the task's call returned.

    The pool never holds more workers than there are tasks, and never
    more tasks than workers: the next task is submitted when one
    completes.  The first failure stops the tasks not yet started
    (inline: the rest of the list; pooled: no task is submitted after
    it).  Raises :class:`SchedulerError` once the running ones have
    drained, naming the failed-task count and the first failing task in
    ``tasks`` order and carrying its traceback; each failure is recorded
    in :data:`REPORT`.  The error is chained from the original exception
    inline, and from a :class:`ConfigurationError` carrying a worker's
    message when the worker raised one.
    """
    if jobs <= 1 or len(tasks) <= 1:
        results = []
        for task in tasks:
            result, exc = _run(task)  # records directly into REPORT
            if exc is not None:
                _fail([result], exc)
            results.append(result)
        return results

    from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait

    workers = min(jobs, len(tasks))
    results: List[Optional[TaskResult]] = [None] * len(tasks)
    queue = enumerate(tasks)
    with ProcessPoolExecutor(
        workers, initializer=_worker_init, initargs=(runtime_config(),)
    ) as pool:
        try:
            in_flight = {
                pool.submit(_pool_run, task): index
                for index, task in islice(queue, workers)
            }
            failed = False
            while in_flight:
                done, _ = wait(in_flight, return_when=FIRST_COMPLETED)
                for future in done:
                    result = future.result()
                    results[in_flight.pop(future)] = result
                    REPORT.merge_json(result.report)
                    failed = failed or not result.ok
                if not failed:
                    for index, task in islice(queue, len(done)):
                        in_flight[pool.submit(_pool_run, task)] = index
        except BaseException:
            # Graceful drain on interruption (SIGTERM/SIGINT mapped to
            # an exception by the CLI, or any parent-side error): let
            # the tasks already running finish their atomic store writes
            # before the pool goes away.  Artifacts persisted so far
            # stay valid — content addressing makes the next run pick
            # them up.
            pool.shutdown(wait=True, cancel_futures=True)
            raise
    failures = [r for r in results if r is not None and not r.ok]
    if failures:
        message = failures[0].configuration_error
        _fail(
            failures,
            None if message is None else ConfigurationError(message),
        )
    return results


def map_benchmarks(
    call: Callable[[str, Optional[int]], object],
    benchmarks: Sequence[str],
    scale: Optional[int] = None,
    *,
    jobs: int = 1,
) -> list:
    """``call(name, scale)`` for each of ``benchmarks``, one task each
    (``call`` module-level, so it pickles); the values in order."""
    tasks = [
        TaskSpec(benchmark_task_id(name, scale), partial(call, name, scale))
        for name in benchmarks
    ]
    return [result.value for result in execute_tasks(tasks, jobs=jobs)]
