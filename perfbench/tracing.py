"""Spans around each pipeline layer, recorded from outside the package.

The end-to-end figures are measured with nothing patched.  A traced op
installs thin wrappers around the layers' public entry points by
rebinding the module attributes the pipeline looks up at call time,
records one span per call, and restores the originals when the op
ends.  A layer's self time is its span's duration minus the time its
child spans cover; spans nest strictly (one thread), so the self times
of one op's spans sum to the op's root span.
"""

from __future__ import annotations

import importlib
import json
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Dict, List, Optional

#: Root span of every traced op: the study/sweep/experiment glue around
#: the layer calls.  Its self time is ``core.self_s``.
ROOT_SPAN = "core"


@dataclass
class Span:
    name: str
    start: float
    parent: int
    op: int
    end: float = 0.0
    child_s: float = 0.0

    @property
    def self_s(self) -> float:
        return self.end - self.start - self.child_s


class Tracer:
    """In-memory spans plus per-layer work counters."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self._stack: List[int] = []
        self.op = -1

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        span = Span(name, perf_counter(), parent, self.op)
        self.spans.append(span)
        self._stack.append(index)
        try:
            yield span
        finally:
            span.end = perf_counter()
            self._stack.pop()
            if parent >= 0:
                self.spans[parent].child_s += span.end - span.start

    def count(self, name: str, value: float = 1) -> None:
        self.counts[name] += value

    def self_times(self) -> Dict[str, float]:
        """Total self seconds per span name."""
        totals: Dict[str, float] = defaultdict(float)
        for span in self.spans:
            totals[span.name] += span.self_s
        return totals

    def self_sum_gap(self) -> float:
        """Largest |sum of one op's self times - its root's wall time|."""
        per_op: Dict[int, float] = defaultdict(float)
        roots: Dict[int, float] = {}
        for span in self.spans:
            per_op[span.op] += span.self_s
            if span.parent < 0:
                roots[span.op] = span.end - span.start
        return max(
            (abs(per_op[op] - wall) for op, wall in roots.items()),
            default=0.0,
        )

    def write(self, path) -> None:
        """One JSON object per line: name, start, end, parent, op."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps({
                    "name": span.name,
                    "start": span.start,
                    "end": span.end,
                    "parent": span.parent,
                    "op": span.op,
                }) + "\n")


def _wrap(tracer: Tracer, name: str, fn: Callable,
          after: Optional[Callable] = None) -> Callable:
    def traced(*args, **kwargs):
        with tracer.span(name):
            result = fn(*args, **kwargs)
        if after is not None:
            after(tracer, result, *args, **kwargs)
        return result

    return traced


# ------------------------------------------------------------ counters
def _after_compile(tracer, program, *args, **kwargs):
    tracer.count("compiler.ops_out", program.image.total_ops)


def _after_emulate(tracer, run, *args, **kwargs):
    tracer.count("emulator.blocks", len(run.block_trace))


def _after_fetch(tracer, metrics, compressed, trace, *args, **kwargs):
    tracer.count("fetch.blocks_replayed", len(trace))


def _after_sweep(tracer, results, images, trace, configs, *args, **kwargs):
    tracer.count("fetch.sweep.points", len(configs))


def _after_bounds(tracer, report, *args, **kwargs):
    cache = report.classification.cache
    tracer.count(
        "analysis.cachebound.decided",
        len(cache.always_hit) + len(cache.always_miss),
    )
    tracer.count("analysis.cachebound.analyzed", len(cache.analyzed))


def _after_get(tracer, value, store, digest, *args, **kwargs):
    from repro.runtime.store import MISS

    if value is MISS:
        tracer.count("runtime.misses")
    else:
        tracer.count("runtime.hits")
        tracer.count("runtime.bytes_read", store.size_of(digest))


def _after_put(tracer, written, *args, **kwargs):
    tracer.count("runtime.bytes_written", written)


def _after_compress(tracer, compressed, image):
    tracer.count("compression.calls")
    tracer.count("compression.ops_encoded", image.total_ops)
    tracer.count("compression.bytes_out", compressed.total_code_bytes)


class _TracedScheme:
    """A compression scheme whose ``compress`` runs inside a span.

    Everything else delegates to the real scheme, which is also what the
    compressed image keeps (and the store pickles).
    """

    def __init__(self, tracer: Tracer, scheme) -> None:
        self._scheme = scheme
        self.compress = _wrap(
            tracer, "compression", scheme.compress, _after_compress
        )

    def __getattr__(self, name):
        return getattr(self._scheme, name)


def _traced_factory(tracer: Tracer, factory: Callable) -> Callable:
    return lambda key: _TracedScheme(tracer, factory(key))


#: (module, attribute, span name, counter hook).  Each attribute is the
#: name the pipeline looks up at call time, so rebinding it routes every
#: call through the span.
_TARGETS = (
    ("repro.core.study", "compile_benchmark", "programs", None),
    ("repro.programs.suite", "compile_module", "compiler", _after_compile),
    ("repro.core.study", "emulate", "emulator", _after_emulate),
    ("repro.core.study", "simulate_fetch", "fetch", _after_fetch),
    ("repro.core.study", "ideal_metrics", "fetch", _after_fetch),
    ("repro.core.sweep", "simulate_fetch_sweep_multi", "fetch.sweep",
     _after_sweep),
    ("repro.analysis.freq", "static_heat_profile", "analysis.freq", None),
    ("repro.analysis.cachebound", "cycle_bounds", "analysis.cachebound",
     _after_bounds),
    ("repro.runtime.fingerprint", "source_fingerprint",
     "runtime.fingerprint", None),
)

#: Scheme factories the study (pipeline) and static-bounds (benchmark)
#: instantiate compression schemes through.
_FACTORIES = (
    ("repro.core.study", "_scheme_factory"),
    ("repro.compression.registry", "scheme_factory"),
)


@contextmanager
def installed(tracer: Tracer):
    """Route the pipeline's layer entry points through ``tracer``."""
    from repro.runtime.store import ArtifactStore

    saved = []

    def rebind(owner, attr, value):
        saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    try:
        for module_name, attr, name, after in _TARGETS:
            module = importlib.import_module(module_name)
            rebind(module, attr,
                   _wrap(tracer, name, getattr(module, attr), after))
        for module_name, attr in _FACTORIES:
            module = importlib.import_module(module_name)
            rebind(module, attr,
                   _traced_factory(tracer, getattr(module, attr)))
        rebind(ArtifactStore, "get",
               _wrap(tracer, "runtime.get", ArtifactStore.get, _after_get))
        rebind(ArtifactStore, "put",
               _wrap(tracer, "runtime.put", ArtifactStore.put, _after_put))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
