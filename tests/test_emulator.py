"""Tests for the emulator: op semantics, predication, VLIW ordering."""

import pytest

from repro.compiler.builder import ModuleBuilder
from repro.compiler.pipeline import compile_module
from repro.emulator import Machine, run_image
from repro.emulator.machine import _execute_mop
from repro.errors import EmulationError
from repro.isa import MultiOp, Opcode, Operation
from repro.isa.operation import (
    BHWX_BYTE,
    BHWX_DOUBLE,
    BHWX_HALF,
    BHWX_WORD,
)
from repro.isa.registers import fpr, gpr, pred
from collections import Counter


def _run_value(build_body, expected, name="sem"):
    """Build main with ``build_body``, run, compare the result word."""
    mb = ModuleBuilder(name)
    out = mb.global_array("result", words=1)
    b = mb.function("main", num_args=0)
    value = build_body(b)
    addr = b.ireg()
    b.la(addr, "result")
    b.store(addr, value)
    b.halt()
    b.done()
    module = mb.build()
    prog = compile_module(module, opt=False)  # test raw semantics
    res = run_image(prog.image, module.globals)
    assert res.machine.load_word(out) == expected


class TestIntegerSemantics:
    @pytest.mark.parametrize(
        "emit,expected",
        [
            (lambda b, x, y, d: b.add(d, x, y), 7 + 5),
            (lambda b, x, y, d: b.sub(d, x, y), 2),
            (lambda b, x, y, d: b.mpy(d, x, y), 35),
            (lambda b, x, y, d: b.div(d, x, y), 1),
            (lambda b, x, y, d: b.mod(d, x, y), 2),
            (lambda b, x, y, d: b.and_(d, x, y), 7 & 5),
            (lambda b, x, y, d: b.or_(d, x, y), 7 | 5),
            (lambda b, x, y, d: b.xor(d, x, y), 7 ^ 5),
            (lambda b, x, y, d: b.shl(d, x, y), 7 << 5),
            (lambda b, x, y, d: b.shr(d, x, y), 0),
            (lambda b, x, y, d: b.min_(d, x, y), 5),
            (lambda b, x, y, d: b.max_(d, x, y), 7),
        ],
    )
    def test_binary_ops(self, emit, expected):
        def body(b):
            x = b.iconst(7)
            y = b.iconst(5)
            d = b.ireg()
            emit(b, x, y, d)
            return d

        _run_value(body, expected)

    def test_wrapping_multiply(self):
        def body(b):
            x = b.iconst(0x10000)
            d = b.ireg()
            b.mpy(d, x, x)  # 2^32 wraps to 0
            return d

        _run_value(body, 0)

    def test_sra_negative(self):
        def body(b):
            x = b.iconst(-8)
            s = b.iconst(1)
            d = b.ireg()
            b.sra(d, x, s)
            return d

        _run_value(body, -4)

    def test_division_by_zero_raises(self):
        mb = ModuleBuilder("dz")
        mb.global_array("result", words=1)
        b = mb.function("main", num_args=0)
        z = b.iconst(0)
        o = b.iconst(1)
        d = b.ireg()
        b.div(d, o, z)
        b.halt()
        b.done()
        module = mb.build()
        prog = compile_module(module, opt=False)
        with pytest.raises(EmulationError):
            run_image(prog.image, module.globals)

    def test_abs_and_not(self):
        def body(b):
            x = b.iconst(-9)
            a = b.ireg()
            b.abs_(a, x)
            n = b.ireg()
            b.not_(n, a)  # ~9 = -10
            d = b.ireg()
            b.sub(d, a, n)  # 9 - (-10) = 19
            return d

        _run_value(body, 19)


class TestPredication:
    def test_false_predicate_nullifies(self):
        def body(b):
            d = b.ireg()
            b.li(d, 1)
            zero = b.iconst(0)
            p = b.preg()
            b.cmpi_ne(p, zero, 0)  # false
            two = b.iconst(2)
            b.mov(d, two, predicate=p)  # must not execute
            return d

        _run_value(body, 1)

    def test_true_predicate_executes(self):
        def body(b):
            d = b.ireg()
            b.li(d, 1)
            zero = b.iconst(0)
            p = b.preg()
            b.cmpi_eq(p, zero, 0)  # true
            two = b.iconst(2)
            b.mov(d, two, predicate=p)
            return d

        _run_value(body, 2)


class TestVLIWSemantics:
    def test_reads_before_writes_within_mop(self):
        """A swap packed into one MultiOp must read old values."""
        m = Machine()
        m.gpr[1], m.gpr[2] = 11, 22
        mop = MultiOp.of([
            Operation(Opcode.MOV, dest=gpr(1), src1=gpr(2)),
            Operation(Opcode.MOV, dest=gpr(2), src1=gpr(1)),
        ])
        _execute_mop(m, mop.ops, Counter())
        assert (m.gpr[1], m.gpr[2]) == (22, 11)

    def test_two_control_transfers_rejected(self):
        m = Machine()
        mop = (
            Operation(Opcode.BR, target_block=1, tail=False),
            Operation(Opcode.BR, target_block=2, tail=True),
        )
        with pytest.raises(EmulationError):
            _execute_mop(m, mop, Counter())

    def test_store_applied_after_reads(self):
        m = Machine()
        m.gpr[1] = 256  # address
        m.gpr[2] = 5
        m.store(256, 99, BHWX_WORD)
        mop = MultiOp.of([
            Operation(Opcode.LD, dest=gpr(3), src1=gpr(1)),
            Operation(Opcode.ST, src1=gpr(1), src2=gpr(2)),
        ])
        _execute_mop(m, mop.ops, Counter())
        assert m.gpr[3] == 99  # load saw the pre-store value
        assert m.load_word(256) == 5


class TestMemory:
    def test_word_round_trip(self):
        m = Machine()
        m.store(128, -123456, BHWX_WORD)
        assert m.load(128, BHWX_WORD, False) == -123456

    def test_byte_and_half(self):
        m = Machine()
        m.store(64, 0x1FF, BHWX_BYTE)
        assert m.load(64, BHWX_BYTE, False) == 0xFF
        m.store(66, 0xABCD, BHWX_HALF)
        assert m.load(66, BHWX_HALF, False) == 0xABCD

    def test_double_round_trip(self):
        m = Machine()
        m.store(256, 3.5, BHWX_DOUBLE)
        assert m.load_double(256) == 3.5

    def test_misaligned_access_rejected(self):
        m = Machine()
        with pytest.raises(EmulationError):
            m.load(2, BHWX_WORD, False)
        with pytest.raises(EmulationError):
            m.store(4, 1.0, BHWX_DOUBLE)

    def test_out_of_range_rejected(self):
        m = Machine()
        with pytest.raises(EmulationError):
            m.load(len(m.memory), BHWX_WORD, False)
        with pytest.raises(EmulationError):
            m.load(-4, BHWX_WORD, False)


class TestControl:
    def test_trace_records_blocks_in_order(self, tiny_run):
        prog, result = tiny_run
        trace = list(result.block_trace)
        assert trace[0] == prog.image.entry_block
        assert all(0 <= b < len(prog.image) for b in trace)
        assert len(trace) >= 25  # at least one visit per loop iteration

    def test_runaway_guard(self, tiny_program):
        prog, _, _ = tiny_program
        with pytest.raises(EmulationError):
            run_image(prog.image, prog.module.globals, max_mops=10)

    def test_ret_with_empty_stack_rejected(self):
        mb = ModuleBuilder("badret")
        mb.global_array("result", words=1)
        b = mb.function("main", num_args=0)
        b.ret()
        b.done()
        module = mb.build()
        prog = compile_module(module, opt=False)
        with pytest.raises(EmulationError):
            run_image(prog.image, module.globals)

    def test_opcode_histogram_collected(self, tiny_run):
        _, result = tiny_run
        assert result.opcode_counts[Opcode.HALT] == 1
        assert result.opcode_counts[Opcode.MPY] >= 25

    def test_ideal_ipc_bounds(self, tiny_run):
        _, result = tiny_run
        assert 1.0 <= result.ideal_ipc <= 6.0


class TestFloat:
    def test_fp_pipeline(self):
        def body(b):
            three = b.iconst(3)
            x = b.freg()
            b.i2f(x, three)
            y = b.freg()
            b.fmpy(y, x, x)
            half_num = b.iconst(1)
            hn = b.freg()
            b.i2f(hn, half_num)
            z = b.freg()
            b.fadd(z, y, hn)  # 10.0
            d = b.ireg()
            b.f2i(d, z)
            return d

        _run_value(body, 10)

    def test_fdiv_by_zero_rejected(self):
        mb = ModuleBuilder("fdz")
        mb.global_array("result", words=1)
        b = mb.function("main", num_args=0)
        z = b.iconst(0)
        fz = b.freg()
        b.i2f(fz, z)
        o = b.iconst(1)
        fo = b.freg()
        b.i2f(fo, o)
        d = b.freg()
        b.fdiv(d, fo, fz)
        b.halt()
        b.done()
        module = mb.build()
        prog = compile_module(module, opt=False)
        with pytest.raises(EmulationError):
            run_image(prog.image, module.globals)
