"""Typed task graph over the study pipeline.

The paper's artifact chain — compile → emulate (trace) → compress per
scheme → fetch-simulate per organization — becomes an explicit DAG of
:class:`TaskSpec` nodes.  Nodes are cheap picklable descriptions
(strings, plus the frozen fetch configs of a sweep chunk), so the
scheduler can ship them to worker processes;
executing a node routes through :class:`~repro.core.study.ProgramStudy`
and therefore through the artifact store, which is how a worker's
output becomes visible to its parent.

Dependencies mirror the data flow:

* ``trace`` needs ``compile``;
* ``compress`` needs ``compile`` (the scheme re-encodes the image);
* ``fetch`` needs ``trace`` plus the ``compress`` node of the image it
  runs on, which :func:`~repro.fetch.config.fetch_image_key` reads from
  the organization table (Base/Tailored/Full-op per the paper's
  choices; the Ideal organization walks the uncompressed image).  The
  organization names and image keys this module accepts are that
  module's.  A ``fetch`` node
  without configs simulates its organization's standard config; one
  with configs is a chunk of a sharded ``run_sweep`` and publishes
  each of them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.compression.registry import hybrid_profile_source
from repro.errors import ConfigurationError
from repro.fetch.config import (
    FetchConfig,
    fetch_image_key,
    normalize_fetch_scheme,
)

STAGES = ("compile", "trace", "compress", "fetch")


@dataclass(frozen=True)
class TaskSpec:
    """One node of the pipeline DAG."""

    task_id: str
    stage: str
    benchmark: str
    scale: Optional[int] = None
    scheme: Optional[str] = None  # compression scheme key
    fetch_scheme: Optional[str] = None  # fetch organization
    #: A ``fetch`` node's sweep chunk (empty: the standard config).
    configs: Tuple[FetchConfig, ...] = ()
    deps: Tuple[str, ...] = field(default=())

    def __post_init__(self) -> None:
        if self.stage not in STAGES:
            raise ConfigurationError(f"unknown stage {self.stage!r}")


def _node(benchmark: str, scale: Optional[int]) -> str:
    return f"{benchmark}@{'d' if scale is None else scale}"


def compile_id(benchmark: str, scale: Optional[int] = None) -> str:
    return f"compile:{_node(benchmark, scale)}"


def trace_id(benchmark: str, scale: Optional[int] = None) -> str:
    return f"trace:{_node(benchmark, scale)}"


def compress_id(
    benchmark: str, scheme: str, scale: Optional[int] = None
) -> str:
    return f"compress:{_node(benchmark, scale)}:{scheme}"


def fetch_id(
    benchmark: str, fetch_scheme: str, scale: Optional[int] = None
) -> str:
    return f"fetch:{_node(benchmark, scale)}:{fetch_scheme}"


def build_study_graph(
    benchmarks: Sequence[str],
    *,
    scale: Optional[int] = None,
    schemes: Sequence[str] = (),
    fetch_schemes: Sequence[str] = (),
) -> Dict[str, TaskSpec]:
    """The DAG covering ``benchmarks`` × ``schemes`` × ``fetch_schemes``.

    Independent (benchmark, scheme) nodes share no edges, so the
    scheduler is free to fan them out across processes.
    """
    fetch_schemes = tuple(
        normalize_fetch_scheme(scheme) for scheme in fetch_schemes
    )
    graph: Dict[str, TaskSpec] = {}
    for name in benchmarks:
        cid = compile_id(name, scale)
        tid = trace_id(name, scale)
        graph[cid] = TaskSpec(cid, "compile", name, scale)
        graph[tid] = TaskSpec(tid, "trace", name, scale, deps=(cid,))
        wanted = dict.fromkeys(schemes)  # ordered, deduplicated
        for fetch_scheme in fetch_schemes:
            wanted.setdefault(fetch_image_key(fetch_scheme))
        for scheme in wanted:
            sid = compress_id(name, scheme, scale)
            # Trace-profiled hybrid recompression consumes the trace as
            # its heat profile, so its compress node gains the trace
            # edge; ``:static`` hybrids estimate heat from the image
            # alone and depend only on compile.
            deps = (
                (cid, tid)
                if hybrid_profile_source(scheme) == "trace"
                else (cid,)
            )
            graph[sid] = TaskSpec(
                sid, "compress", name, scale, scheme=scheme, deps=deps
            )
        for fetch_scheme in fetch_schemes:
            fid = fetch_id(name, fetch_scheme, scale)
            image_dep = compress_id(
                name, fetch_image_key(fetch_scheme), scale
            )
            graph[fid] = TaskSpec(
                fid,
                "fetch",
                name,
                scale,
                fetch_scheme=fetch_scheme,
                deps=(tid, image_dep),
            )
    return graph


def topological_order(graph: Dict[str, TaskSpec]) -> List[str]:
    """Kahn's algorithm; rejects missing dependencies and cycles."""
    indegree = {}
    dependents: Dict[str, List[str]] = {}
    for task_id, spec in graph.items():
        for dep in spec.deps:
            if dep not in graph:
                raise ConfigurationError(
                    f"task {task_id!r} depends on missing {dep!r}"
                )
            dependents.setdefault(dep, []).append(task_id)
        indegree[task_id] = len(spec.deps)
    ready = sorted(t for t, d in indegree.items() if d == 0)
    order: List[str] = []
    while ready:
        task_id = ready.pop(0)
        order.append(task_id)
        for dependent in dependents.get(task_id, ()):
            indegree[dependent] -= 1
            if indegree[dependent] == 0:
                ready.append(dependent)
    if len(order) != len(graph):
        stuck = sorted(set(graph) - set(order))
        raise ConfigurationError(f"dependency cycle involving {stuck}")
    return order


def execute_task(spec: TaskSpec) -> None:
    """Materialize one node's artifact (in the current process).

    Routing through :func:`~repro.core.study.study_for` means the result
    lands in both the in-memory study and (when enabled) the persistent
    store.
    """
    from repro.core.study import study_for

    study = study_for(spec.benchmark, spec.scale)
    if spec.stage == "compile":
        study.compiled
    elif spec.stage == "trace":
        study.run
    elif spec.stage == "compress":
        study.compressed(spec.scheme)
    elif spec.stage == "fetch" and spec.configs:
        from repro.core.sweep import run_sweep

        run_sweep(spec.benchmark, spec.configs, scale=spec.scale)
    elif spec.stage == "fetch":
        study.fetch_metrics(spec.fetch_scheme)
    else:  # pragma: no cover - __post_init__ rejects these
        raise ConfigurationError(f"unknown stage {spec.stage!r}")
