"""Differential tests: every benchmark vs. its pure-Python oracle.

These are the strongest end-to-end checks in the repo: the whole stack —
builder, optimizer, treegion hoisting, register allocation, lowering,
scheduling, assembly and VLIW emulation — must agree with an independent
reimplementation of each algorithm, at several scales and with
optimizations toggled.
"""

import pytest

from repro.compiler.pipeline import compile_module
from repro.emulator import run_image
from repro.programs.kernels import KERNELS
from repro.programs.suite import BENCHMARK_NAMES, SUITE

#: Small scales keep the whole matrix fast.
SMALL_SCALE = {
    "compress": 2,
    "go": 1,
    "ijpeg": 1,
    "li": 3,
    "m88ksim": 1,
    "perl": 4,
    "vortex": 3,
    "gcc": 2,
}


def _run(module):
    prog = compile_module(module)
    result = run_image(prog.image, module.globals)
    return prog, result


@pytest.mark.parametrize("name", BENCHMARK_NAMES)
def test_benchmark_matches_oracle(name):
    spec = SUITE[name]
    scale = SMALL_SCALE[name]
    module = spec.build(scale)
    prog, result = _run(module)
    got = result.machine.load_word(module.globals["result"].address)
    assert got == spec.reference_checksum(scale)


@pytest.mark.parametrize("name", BENCHMARK_NAMES)
def test_benchmark_correct_without_optimizations(name):
    spec = SUITE[name]
    scale = SMALL_SCALE[name]
    module = spec.build(scale)
    prog = compile_module(module, opt=False, hoist=False)
    result = run_image(prog.image, module.globals)
    got = result.machine.load_word(module.globals["result"].address)
    assert got == spec.reference_checksum(scale)


@pytest.mark.parametrize("name", BENCHMARK_NAMES)
def test_benchmark_correct_with_hoisting_only(name):
    """Speculative hoisting alone must never change results."""
    spec = SUITE[name]
    scale = SMALL_SCALE[name]
    module = spec.build(scale)
    prog = compile_module(module, opt=False, hoist=True)
    result = run_image(prog.image, module.globals)
    got = result.machine.load_word(module.globals["result"].address)
    assert got == spec.reference_checksum(scale)


@pytest.mark.parametrize("name", BENCHMARK_NAMES)
def test_benchmark_scales_change_behaviour(name):
    """Different scales produce different checksums (no degenerate
    programs)."""
    spec = SUITE[name]
    a = spec.reference_checksum(SMALL_SCALE[name])
    b = spec.reference_checksum(SMALL_SCALE[name] + 1)
    assert a != b


@pytest.mark.parametrize("kernel", sorted(KERNELS))
def test_kernel_matches_oracle(kernel):
    build, reference = KERNELS[kernel]
    module = build(4)
    prog, result = _run(module)
    got = result.machine.load_word(module.globals["result"].address)
    assert got == reference(4)


@pytest.mark.parametrize("name", BENCHMARK_NAMES)
def test_benchmark_static_properties(name):
    """Every benchmark is a real program: multiple functions, calls,
    branches, loads and stores."""
    from repro.isa.opcodes import Opcode
    from repro.programs.suite import compile_benchmark

    prog = compile_benchmark(name, SMALL_SCALE[name])
    opcodes = {op.opcode for op in prog.image.all_operations()}
    assert Opcode.BR in opcodes
    assert Opcode.LD in opcodes and Opcode.ST in opcodes
    assert Opcode.HALT in opcodes
    functions = {b.function for b in prog.image}
    assert len(functions) >= 2  # main plus at least one callee
    assert prog.image.total_ops >= 100


def test_suite_registry_consistent():
    assert set(BENCHMARK_NAMES) == set(SUITE)
    for spec in SUITE.values():
        assert spec.default_scale >= 1
        assert spec.description
