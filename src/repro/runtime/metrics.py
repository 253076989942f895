"""Stage instrumentation: wall-time, hit/miss counters, artifact sizes.

Every pass through :func:`repro.runtime.get_or_compute` records into the
process-global :data:`REPORT`; scheduler workers return their report as
JSON and the parent merges it, so ``repro run figN --jobs 8`` still ends
with one coherent :class:`RuntimeReport`.  To see the stage activity of
one piece of work, reset the metrics before it and read :data:`REPORT`
after.

The stage-seconds rule: seconds are exclusive within the process that
spent them (:func:`stage_clock` subtracts every stage nested inside a
stage's compute, so a fetch that first emulates charges the emulation
to ``trace`` alone), and a report sums them over processes.  A pool
wait belongs to no stage.  So the stage seconds sum to at most the wall
time at ``--jobs 1``, and to at most ``jobs`` times it when pooled.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from time import perf_counter
from typing import Dict, List, Tuple

from repro.utils.tables import format_table

#: The stage clocks open in the current execution context (innermost
#: last); managed only by :func:`stage_clock`.
_open_clocks: ContextVar[Tuple["StageClock", ...]] = ContextVar(
    "repro_stage_clocks", default=()
)

#: Stage presentation order in reports (pipeline order; an experiment
#: row is read from the other four).
STAGE_ORDER = ("compile", "trace", "compress", "fetch", "row")


@dataclass
class StageMetrics:
    """Counters for one pipeline stage."""

    stage: str
    hits: int = 0
    misses: int = 0
    seconds: float = 0.0
    bytes_read: int = 0
    bytes_written: int = 0

    @property
    def requests(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.requests if self.requests else 0.0

    def as_dict(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "seconds": self.seconds,
            "bytes_read": self.bytes_read,
            "bytes_written": self.bytes_written,
        }


@dataclass
class RuntimeReport:
    """Aggregated stage metrics for one run (mergeable across processes)."""

    stages: Dict[str, StageMetrics] = field(default_factory=dict)
    #: Task failures: ``{"task_id", "error"}`` per failed task, where
    #: ``error`` is the task's formatted traceback.
    failures: List[dict] = field(default_factory=list)

    def stage(self, name: str) -> StageMetrics:
        if name not in self.stages:
            self.stages[name] = StageMetrics(name)
        return self.stages[name]

    def record(
        self,
        stage: str,
        *,
        hit: bool,
        seconds: float,
        bytes_read: int = 0,
        bytes_written: int = 0,
    ) -> None:
        metrics = self.stage(stage)
        if hit:
            metrics.hits += 1
        else:
            metrics.misses += 1
        metrics.seconds += seconds
        metrics.bytes_read += bytes_read
        metrics.bytes_written += bytes_written

    def record_failure(self, task_id: str, error: str) -> None:
        """Keep a failed task's id and traceback."""
        self.failures.append({"task_id": task_id, "error": error})

    # ------------------------------------------------------- aggregates
    @property
    def total_hits(self) -> int:
        return sum(m.hits for m in self.stages.values())

    @property
    def total_misses(self) -> int:
        return sum(m.misses for m in self.stages.values())

    @property
    def total_errors(self) -> int:
        return len(self.failures)

    def _ordered(self):
        known = [s for s in STAGE_ORDER if s in self.stages]
        extra = sorted(set(self.stages) - set(STAGE_ORDER))
        return [self.stages[s] for s in known + extra]

    # -------------------------------------------------------- rendering
    def as_rows(self):
        headers = [
            "stage", "hits", "misses", "hit%", "seconds",
            "read_kb", "written_kb",
        ]
        rows = []
        for m in self._ordered():
            rows.append(
                [
                    m.stage,
                    m.hits,
                    m.misses,
                    100.0 * m.hit_rate,
                    m.seconds,
                    m.bytes_read / 1024.0,
                    m.bytes_written / 1024.0,
                ]
            )
        if rows:
            rows.append(
                [
                    "total",
                    self.total_hits,
                    self.total_misses,
                    100.0 * (
                        self.total_hits
                        / max(1, self.total_hits + self.total_misses)
                    ),
                    sum(m.seconds for m in self.stages.values()),
                    sum(m.bytes_read for m in self.stages.values()) / 1024.0,
                    sum(m.bytes_written for m in self.stages.values())
                    / 1024.0,
                ]
            )
        return headers, rows

    def render(self, title: str = "Runtime report") -> str:
        headers, rows = self.as_rows()
        if not rows:
            return f"{title}: no stage activity"
        return format_table(headers, rows, title=title)

    def to_json(self) -> dict:
        return {
            "stages": {m.stage: m.as_dict() for m in self._ordered()},
            "failures": list(self.failures),
            "totals": {
                "hits": self.total_hits,
                "misses": self.total_misses,
                "errors": self.total_errors,
                "seconds": sum(m.seconds for m in self.stages.values()),
            },
        }

    def merge_json(self, payload: dict) -> None:
        """Fold a worker's ``to_json()`` output into this report."""
        for name, counters in (payload or {}).get("stages", {}).items():
            metrics = self.stage(name)
            metrics.hits += int(counters.get("hits", 0))
            metrics.misses += int(counters.get("misses", 0))
            metrics.seconds += float(counters.get("seconds", 0.0))
            metrics.bytes_read += int(counters.get("bytes_read", 0))
            metrics.bytes_written += int(counters.get("bytes_written", 0))
        self.failures.extend((payload or {}).get("failures", ()))

    def reset(self) -> None:
        self.stages.clear()
        self.failures.clear()


#: Process-global collector.
REPORT = RuntimeReport()


def reset_metrics() -> None:
    REPORT.reset()


class StageClock:
    """Wall time of one open stage, less the stages nested inside it."""

    __slots__ = ("started", "nested")

    def __init__(self) -> None:
        self.started = perf_counter()
        self.nested = 0.0

    def seconds(self) -> float:
        """Exclusive seconds since the stage opened."""
        return perf_counter() - self.started - self.nested


@contextmanager
def stage_clock():
    """Open a :class:`StageClock` for the duration of the block.

    On exit the block's whole wall time is charged as nested time to
    the enclosing clock, if any, so each stage reports only its own
    work.  Clocks are context-local.
    """
    outer = _open_clocks.get()
    clock = StageClock()
    token = _open_clocks.set(outer + (clock,))
    try:
        yield clock
    finally:
        _open_clocks.reset(token)
        if outer:
            outer[-1].nested += perf_counter() - clock.started
