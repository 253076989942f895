"""Per-benchmark request chains over the study pipeline.

The paper collects one trace per program and replays it for every
figure.  :class:`~repro.core.study.ProgramStudy` already encodes that
chain — compile → emulate (trace) → compress per scheme →
fetch-simulate per organization — and pulls in every prerequisite of
whatever it is asked for.  A task is therefore one benchmark's ordered
tuple of :class:`Request` s naming only the artifacts its caller reads
(``compress(full)``, ``fetch(compressed)``, …): no task states a
dependency, and the tasks of different benchmarks share nothing.

Tasks are cheap picklable descriptions (strings, plus the frozen fetch
configs of a sweep chunk), so the scheduler can ship them to worker
processes; executing a request routes through the study and therefore
through the artifact store, which is how a worker's output becomes
visible to its parent.  The organization names this module accepts are
:mod:`repro.fetch.config`'s.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.fetch.config import (  # noqa: F401 - fetch_image_key re-exported
    FetchConfig,
    fetch_image_key,
    normalize_fetch_scheme,
)

STAGES = ("trace", "compress", "fetch")


@dataclass(frozen=True)
class Request:
    """One artifact a task materializes.

    ``key`` is a ``compress`` request's scheme and a ``fetch`` request's
    organization.  A ``fetch`` request without configs simulates its
    organization's standard config; one with configs is a chunk of a
    sharded ``run_sweep`` and publishes each of them.
    """

    stage: str
    key: Optional[str] = None
    configs: Tuple[FetchConfig, ...] = ()

    def __post_init__(self) -> None:
        if self.stage not in STAGES:
            raise ConfigurationError(f"unknown stage {self.stage!r}")


@dataclass(frozen=True)
class TaskSpec:
    """One benchmark's request chain, run in order by one worker."""

    task_id: str
    benchmark: str
    scale: Optional[int] = None
    requests: Tuple[Request, ...] = ()


def chain_id(benchmark: str, scale: Optional[int] = None) -> str:
    return f"{benchmark}@{'d' if scale is None else scale}"


def study_chains(
    benchmarks: Sequence[str],
    *,
    scale: Optional[int] = None,
    trace: bool = False,
    schemes: Sequence[str] = (),
    fetch_schemes: Sequence[str] = (),
) -> List[TaskSpec]:
    """One chain per benchmark: the trace when ``trace``, each image of
    ``schemes``, then each organization's standard fetch result.

    A caller that reads nothing gets no chains.
    """
    requests = (
        ([Request("trace")] if trace else [])
        + [Request("compress", scheme) for scheme in dict.fromkeys(schemes)]
        + [
            Request("fetch", scheme)
            for scheme in dict.fromkeys(
                normalize_fetch_scheme(scheme) for scheme in fetch_schemes
            )
        ]
    )
    if not requests:
        return []
    return [
        TaskSpec(chain_id(name, scale), name, scale, tuple(requests))
        for name in benchmarks
    ]


def execute_request(spec: TaskSpec, request: Request) -> None:
    """Materialize one request of ``spec``'s chain (in this process).

    Routing through :func:`~repro.core.study.study_for` means the result
    lands in both the in-memory study and (when enabled) the persistent
    store, and the study computes any prerequisite it lacks.
    """
    from repro.core.study import study_for

    study = study_for(spec.benchmark, spec.scale)
    if request.stage == "trace":
        study.run
    elif request.stage == "compress":
        study.compressed(request.key)
    elif request.configs:
        from repro.core.sweep import run_sweep

        run_sweep(spec.benchmark, request.configs, scale=spec.scale)
    else:
        study.fetch_metrics(request.key)
