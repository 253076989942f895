"""What the scheduler runs: a task id plus a zero-argument call.

The paper collects one trace per program and replays it for every
figure.  :class:`~repro.core.study.ProgramStudy` already encodes that
chain — compile → emulate (trace) → compress per scheme →
fetch-simulate per organization — and pulls in every prerequisite of
whatever it is asked for.  So a task states no artifact and no
dependency: it is its caller's own per-benchmark work (one figure
row, one suite row, one chunk of a sharded sweep), and whatever that
work reads is what the task materializes.

The call must pickle, so the scheduler can ship it to a worker
process: a :func:`functools.partial` of a module-level function over
plain arguments.  Its return value must pickle too: the scheduler hands
it back to the caller, from a worker over the pipe.  The artifact store
only caches what a call computes; it carries nothing back.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional


@dataclass(frozen=True)
class TaskSpec:
    """One unit of parallel work; ``call()`` returns the task's value."""

    task_id: str
    call: Callable[[], object]


def benchmark_task_id(benchmark: str, scale: Optional[int] = None) -> str:
    """The id of one benchmark's task: ``name@scale`` (``@d``: default)."""
    return f"{benchmark}@{'d' if scale is None else scale}"


def fetch_image_key(scheme: str) -> str:
    """The compressed image one fetch organization replays against:
    :func:`repro.fetch.config.fetch_image_key`, whose module this one
    loads only when called."""
    from repro.fetch.config import fetch_image_key as image_key

    return image_key(scheme)
