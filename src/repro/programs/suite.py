"""Benchmark building and compiling, with compile caching.

The benchmark table itself (:class:`BenchmarkSpec`, :data:`SUITE`,
:data:`BENCHMARK_NAMES`) lives in :mod:`repro.programs.specs`, which
loads no compiler module; it is re-exported here.  ``compile_module``
stays a module-level name of this module: :func:`compile_benchmark`
looks it up at call time, so a profiler may rebind it.
"""

from __future__ import annotations

from typing import Optional

from repro.compiler.ir import IRModule
from repro.compiler.pipeline import CompiledProgram, compile_module
from repro.errors import CompilerError, ConfigurationError
from repro.programs.specs import (  # noqa: F401 - re-exported
    BENCHMARK_NAMES,
    SUITE,
    BenchmarkSpec,
    effective_scale,
)


_compile_cache: dict[tuple[str, int, bool, bool], CompiledProgram] = {}


def build_benchmark(name: str, scale: Optional[int] = None) -> IRModule:
    return SUITE[name].build(effective_scale(name, scale))


def reference_checksum(name: str, scale: Optional[int] = None) -> int:
    return SUITE[name].reference_checksum(effective_scale(name, scale))


def compile_benchmark(
    name: str,
    scale: Optional[int] = None,
    *,
    opt: bool = True,
    hoist: bool = True,
) -> CompiledProgram:
    """Compile a benchmark (cached — images are reused across studies)."""
    actual_scale = effective_scale(name, scale)
    key = (name, actual_scale, opt, hoist)
    if key not in _compile_cache:
        try:
            module = SUITE[name].build(actual_scale)
        except CompilerError as exc:
            # Building is pure IR construction sized by the scale; the
            # one way it fails is data outgrowing the address space.
            raise ConfigurationError(
                f"benchmark {name!r} cannot be built at scale "
                f"{actual_scale}: {exc}"
            ) from exc
        _compile_cache[key] = compile_module(module, opt=opt, hoist=hoist)
    return _compile_cache[key]
