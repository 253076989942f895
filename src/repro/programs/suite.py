"""Benchmark registry: name → builder/oracle, with compile caching."""

from __future__ import annotations

import importlib
from dataclasses import dataclass
from typing import Callable, Optional

from repro.compiler import CompiledProgram, compile_module
from repro.compiler.ir import IRModule
from repro.errors import CompilerError, ConfigurationError


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
    def build(self) -> Callable[..., IRModule]:
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

_compile_cache: dict[tuple[str, int, bool, bool], CompiledProgram] = {}


def build_benchmark(name: str, scale: Optional[int] = None) -> IRModule:
    spec = SUITE[name]
    return spec.build(scale if scale is not None else spec.default_scale)


def reference_checksum(name: str, scale: Optional[int] = None) -> int:
    spec = SUITE[name]
    return spec.reference_checksum(
        scale if scale is not None else spec.default_scale
    )


def compile_benchmark(
    name: str,
    scale: Optional[int] = None,
    *,
    opt: bool = True,
    hoist: bool = True,
) -> CompiledProgram:
    """Compile a benchmark (cached — images are reused across studies)."""
    spec = SUITE[name]
    actual_scale = scale if scale is not None else spec.default_scale
    key = (name, actual_scale, opt, hoist)
    if key not in _compile_cache:
        try:
            module = spec.build(actual_scale)
        except CompilerError as exc:
            # Building is pure IR construction sized by the scale; the
            # one way it fails is data outgrowing the address space.
            raise ConfigurationError(
                f"benchmark {name!r} cannot be built at scale "
                f"{actual_scale}: {exc}"
            ) from exc
        _compile_cache[key] = compile_module(module, opt=opt, hoist=hoist)
    return _compile_cache[key]
