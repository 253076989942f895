"""Property-based differential testing of the whole toolchain.

Hypothesis generates random straight-line ALU programs; a direct Python
interpretation of the generated instruction list (using the shared
32-bit semantics) is compared against compiling — with and without
optimizations — and emulating.  Any disagreement anywhere in the
builder → passes → regalloc → lowering → scheduler → assembler →
emulator chain fails the property.
"""

from hypothesis import given, settings, strategies as st

from repro.compiler.builder import ModuleBuilder
from repro.compiler.pipeline import compile_module
from repro.emulator import run_image
from repro.isa.opcodes import Opcode
from repro.utils.arith import shift_amount, unsigned32, wrap32

NUM_REGS = 6

_BINOPS = {
    "add": (Opcode.ADD, lambda a, b: wrap32(a + b)),
    "sub": (Opcode.SUB, lambda a, b: wrap32(a - b)),
    "mpy": (Opcode.MPY, lambda a, b: wrap32(a * b)),
    "and": (Opcode.AND, lambda a, b: wrap32(a & b)),
    "or": (Opcode.OR, lambda a, b: wrap32(a | b)),
    "xor": (Opcode.XOR, lambda a, b: wrap32(a ^ b)),
    "shl": (Opcode.SHL, lambda a, b: wrap32(a << shift_amount(b))),
    "shr": (Opcode.SHR,
            lambda a, b: wrap32(unsigned32(a) >> shift_amount(b))),
    "sra": (Opcode.SRA, lambda a, b: wrap32(a >> shift_amount(b))),
    "min": (Opcode.MIN, min),
    "max": (Opcode.MAX, max),
}

instruction = st.tuples(
    st.sampled_from(sorted(_BINOPS)),
    st.integers(0, NUM_REGS - 1),  # dest
    st.integers(0, NUM_REGS - 1),  # src1
    st.integers(0, NUM_REGS - 1),  # src2
)

program_strategy = st.tuples(
    st.lists(
        st.integers(min_value=-(1 << 19), max_value=(1 << 19) - 1),
        min_size=NUM_REGS, max_size=NUM_REGS,
    ),
    st.lists(instruction, max_size=40),
)


def _interpret(seeds, instrs):
    regs = list(seeds)
    for name, d, a, b in instrs:
        _, fn = _BINOPS[name]
        regs[d] = fn(regs[a], regs[b])
    return wrap32(sum(regs))


def _build(seeds, instrs):
    mb = ModuleBuilder("rand")
    mb.global_array("result", words=1)
    builder = mb.function("main", num_args=0)
    regs = [builder.ireg() for _ in range(NUM_REGS)]
    for reg, seed in zip(regs, seeds):
        builder.li(reg, seed)
    for name, d, a, b in instrs:
        opcode, _ = _BINOPS[name]
        builder._binop(opcode, regs[d], regs[a], regs[b])
    total = builder.ireg()
    builder.li(total, 0)
    for reg in regs:
        builder.add(total, total, reg)
    addr = builder.ireg()
    builder.la(addr, "result")
    builder.store(addr, total)
    builder.halt()
    builder.done()
    return mb.build()


@settings(max_examples=40, deadline=None)
@given(program_strategy)
def test_random_programs_optimized(program):
    seeds, instrs = program
    module = _build(seeds, instrs)
    prog = compile_module(module, opt=True, hoist=True)
    result = run_image(prog.image, module.globals)
    address = module.globals["result"].address
    assert result.machine.load_word(address) == _interpret(seeds, instrs)


@settings(max_examples=25, deadline=None)
@given(program_strategy)
def test_random_programs_unoptimized(program):
    seeds, instrs = program
    module = _build(seeds, instrs)
    prog = compile_module(module, opt=False, hoist=False)
    result = run_image(prog.image, module.globals)
    address = module.globals["result"].address
    assert result.machine.load_word(address) == _interpret(seeds, instrs)


@settings(max_examples=20, deadline=None)
@given(program_strategy)
def test_random_programs_compress_roundtrip(program):
    """Every scheme decompresses random compiled images bit-exactly."""
    from repro.compression.schemes import (
        ByteHuffmanScheme,
        FullOpHuffmanScheme,
    )
    from repro.tailored.encoding import TailoredScheme

    seeds, instrs = program
    module = _build(seeds, instrs)
    image = compile_module(module).image
    for scheme in (ByteHuffmanScheme(), FullOpHuffmanScheme(),
                   TailoredScheme()):
        scheme.compress(image).verify()
