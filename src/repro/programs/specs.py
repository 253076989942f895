"""The benchmark table: name → module, default scale and description.

This module imports nothing from the compiler, so the CLI and the
experiment table can name, validate and size benchmarks without loading
a pipeline layer.  :mod:`repro.programs.suite` re-exports these names
and adds building and compiling.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Optional

from repro.errors import ConfigurationError

if TYPE_CHECKING:
    from repro.compiler.ir import IRModule


@dataclass(frozen=True)
class BenchmarkSpec:
    """One benchmark: module name and its default problem size."""

    name: str
    module: str
    default_scale: int
    description: str

    def _mod(self):
        return importlib.import_module(self.module)

    @property
    def build(self) -> Callable[..., "IRModule"]:
        return self._mod().build

    @property
    def reference_checksum(self) -> Callable[..., int]:
        return self._mod().reference_checksum

    @property
    def scale(self) -> int:
        return self.default_scale


SUITE: dict[str, BenchmarkSpec] = {
    spec.name: spec
    for spec in (
        BenchmarkSpec(
            "compress", "repro.programs.compress", 16,
            "LZW compression of a synthetic text",
        ),
        BenchmarkSpec(
            "go", "repro.programs.go", 3,
            "board evaluation with captures",
        ),
        BenchmarkSpec(
            "ijpeg", "repro.programs.ijpeg", 4,
            "blocked integer DCT and quantization",
        ),
        BenchmarkSpec(
            "li", "repro.programs.li", 14,
            "cons-cell list interpreter (recursive)",
        ),
        BenchmarkSpec(
            "m88ksim", "repro.programs.m88ksim", 4,
            "instruction-set interpreter",
        ),
        BenchmarkSpec(
            "perl", "repro.programs.perl", 16,
            "string hashing and substring matching",
        ),
        BenchmarkSpec(
            "vortex", "repro.programs.vortex", 12,
            "in-memory record store with a sorted index",
        ),
        BenchmarkSpec(
            "gcc", "repro.programs.gcc", 12,
            "table-driven lexer/parser state machine",
        ),
    )
}

BENCHMARK_NAMES: tuple[str, ...] = tuple(SUITE)


def effective_scale(name: str, scale: Optional[int]) -> int:
    """The scale a benchmark runs at: ``scale``, or its default when
    ``None``.  Store keys use it, so the two spellings share entries.

    Raises :class:`ConfigurationError` for an unknown benchmark.
    """
    spec = SUITE.get(name)
    if spec is None:
        raise ConfigurationError(f"unknown benchmark {name!r}")
    return spec.default_scale if scale is None else scale
