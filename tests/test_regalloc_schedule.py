"""Tests for register allocation, scheduling, treegions and lowering."""

import pytest

from repro.compiler.builder import ModuleBuilder
from repro.compiler.pipeline import compile_module
from repro.compiler.machine import MBlock, MInstr
from repro.compiler.regalloc import (
    ALLOCATABLE,
    FP_SCRATCH_A,
    FP_SCRATCH_B,
    INT_SCRATCH_A,
    INT_SCRATCH_B,
    SP,
    SPILL_ADDR_SCRATCH,
    allocate_registers,
)
from repro.compiler.schedule import (
    LATENCY,
    latency_of,
    schedule_block,
)
from repro.compiler.treegion import form_treegions, hoist_into_parents
from repro.compiler.ir import RegClass
from repro.emulator import run_image
from repro.errors import RegisterAllocationError, ScheduleError
from repro.isa.multiop import ISSUE_WIDTH, MEMORY_UNITS
from repro.isa.opcodes import Opcode
from repro.isa.registers import TRUE_PREDICATE, gpr, pred


def _compile_and_check(mb, out, expected):
    module = mb.build()
    prog = compile_module(module)
    result = run_image(prog.image, module.globals)
    assert result.machine.load_word(out) == expected
    return prog


class TestRegisterAllocation:
    def test_reserved_registers_never_allocated(self):
        reserved = {SP, SPILL_ADDR_SCRATCH, INT_SCRATCH_A, INT_SCRATCH_B,
                    FP_SCRATCH_A, FP_SCRATCH_B}
        for pool in ALLOCATABLE.values():
            assert reserved.isdisjoint(pool)

    def test_high_pressure_spills_and_stays_correct(self):
        """More simultaneously-live values than GPRs forces spills."""
        count = 40  # > 28 allocatable GPRs
        mb = ModuleBuilder("pressure")
        out = mb.global_array("result", words=1)
        b = mb.function("main", num_args=0)
        regs = []
        for i in range(count):
            v = b.ireg()
            b.li(v, i + 1)
            regs.append(v)
        total = b.ireg()
        b.li(total, 0)
        for v in regs:  # all still live here
            b.add(total, total, v)
        addr = b.ireg()
        b.la(addr, "result")
        b.store(addr, total)
        b.halt()
        b.done()
        module = mb.build()
        prog = compile_module(module, opt=False)
        assert prog.stats.spill_slots["main"] > 0
        result = run_image(prog.image, module.globals)
        assert result.machine.load_word(out) == count * (count + 1) // 2

    def test_values_live_across_calls_survive(self, call_program):
        prog, out = call_program
        result = run_image(prog.image, prog.module.globals)
        assert result.machine.load_word(out) == 8  # fib(6)

    def test_predicate_live_across_call_rejected(self):
        mb = ModuleBuilder("predcall")
        mb.global_array("result", words=1)
        f = mb.function("leaf", num_args=0)
        f.ret()
        f.done()
        b = mb.function("main", num_args=0)
        p = b.preg()
        one = b.iconst(1)
        b.cmpi_eq(p, one, 1)
        b.call("leaf")
        b.br_if(p, "somewhere")  # p is live across the call
        b.halt()
        b.label("somewhere")
        b.halt()
        b.done()
        with pytest.raises(RegisterAllocationError):
            compile_module(mb.build())

    def test_allocation_output_is_physical(self):
        mb = ModuleBuilder("phys")
        b = mb.function("main", num_args=0)
        v = b.iconst(2)
        w = b.ireg()
        b.add(w, v, v)
        b.halt()
        b.done()
        func = mb.module.functions["main"]
        allocate_registers(func)
        from repro.isa.registers import Register

        for instr in func.all_instrs():
            for reg in (*instr.reads(), *instr.writes()):
                assert isinstance(reg, Register)


def _alu(dest, a, b):
    return MInstr(Opcode.ADD, dest=gpr(dest), src1=gpr(a), src2=gpr(b))


class TestScheduler:
    def _cycles(self, block, instr):
        for packet, cycle in zip(block.schedule, block.schedule_cycles):
            if instr in packet:
                return cycle
        raise AssertionError("instruction not scheduled")

    def test_raw_dependence_separates_cycles(self):
        producer = _alu(1, 2, 3)
        consumer = _alu(4, 1, 1)
        block = MBlock("b", [producer, consumer])
        schedule_block(block)
        assert self._cycles(block, consumer) > self._cycles(block, producer)

    def test_latency_respected(self):
        load = MInstr(Opcode.LD, dest=gpr(1), src1=gpr(2))
        use = _alu(3, 1, 1)
        block = MBlock("b", [load, use])
        schedule_block(block)
        gap = self._cycles(block, use) - self._cycles(block, load)
        assert gap >= latency_of(Opcode.LD)

    def test_independent_ops_pack_together(self):
        instrs = [_alu(i, 10 + i, 20 % 28) for i in range(4)]
        mops = schedule_block(MBlock("b", instrs))
        assert len(mops) == 1
        assert len(mops[0]) == 4

    def test_issue_width_limit(self):
        instrs = [_alu(i, 20, 21) for i in range(ISSUE_WIDTH + 2)]
        mops = schedule_block(MBlock("b", instrs))
        assert all(len(p) <= ISSUE_WIDTH for p in mops)
        assert sum(len(p) for p in mops) == ISSUE_WIDTH + 2

    def test_memory_unit_limit(self):
        loads = [
            MInstr(Opcode.LD, dest=gpr(i), src1=gpr(20))
            for i in range(5)
        ]
        mops = schedule_block(MBlock("b", loads))
        for packet in mops:
            assert sum(1 for i in packet if i.is_memory) <= MEMORY_UNITS

    def test_waw_not_same_cycle(self):
        first = _alu(1, 2, 3)
        second = _alu(1, 4, 5)
        block = MBlock("b", [first, second])
        schedule_block(block)
        assert self._cycles(block, second) > self._cycles(block, first)

    def test_store_load_ordering(self):
        store = MInstr(Opcode.ST, src1=gpr(1), src2=gpr(2))
        load = MInstr(Opcode.LD, dest=gpr(3), src1=gpr(1))
        block = MBlock("b", [store, load])
        schedule_block(block)
        assert self._cycles(block, load) > self._cycles(block, store)

    def test_terminator_in_last_cycle(self):
        instrs = [_alu(i, 20, 21) for i in range(3)]
        instrs.append(MInstr(Opcode.HALT))
        mops = schedule_block(MBlock("b", instrs))
        assert any(i.opcode is Opcode.HALT for i in mops[-1])

    def test_control_not_last_rejected(self):
        instrs = [MInstr(Opcode.HALT), _alu(1, 2, 3)]
        with pytest.raises(ScheduleError):
            schedule_block(MBlock("b", instrs))

    def test_empty_block_rejected(self):
        with pytest.raises(ScheduleError):
            schedule_block(MBlock("b", []))

    def test_predicated_select_serialized(self):
        """mov d,a ; mov d,b ?p must not share a cycle (WAW)."""
        mov1 = MInstr(Opcode.MOV, dest=gpr(1), src1=gpr(2))
        mov2 = MInstr(Opcode.MOV, dest=gpr(1), src1=gpr(3),
                      predicate=pred(4))
        block = MBlock("b", [mov1, mov2])
        schedule_block(block)
        assert self._cycles(block, mov2) > self._cycles(block, mov1)

    def test_all_ops_scheduled_exactly_once(self):
        instrs = [_alu((i * 5) % 28, (i * 3) % 28, (i * 7) % 28)
                  for i in range(20)]
        mops = schedule_block(MBlock("b", instrs))
        flat = [i for p in mops for i in p]
        assert len(flat) == len(instrs)
        assert {id(i) for i in flat} == {id(i) for i in instrs}

    def test_latency_table_sane(self):
        assert all(v >= 1 for v in LATENCY.values())
        assert latency_of(Opcode.ADD) == 1


class TestTreegion:
    def test_treegions_partition_blocks(self, tiny_program):
        from repro.compiler.lower import lower_module

        module, _ = (tiny_program[0].module, None)
        mmodule = lower_module(module)
        for func in mmodule.functions:
            regions = form_treegions(func)
            labels = [lbl for r in regions for lbl in r.blocks]
            assert sorted(labels) == sorted(
                b.label for b in func.blocks
            )

    def test_loop_header_is_region_root(self):
        from repro.compiler.lower import lower_module
        from tests.conftest import build_counting_module

        module, _ = build_counting_module("tg")
        # Compile up to lowering only (fresh module, no scheduling).
        from repro.compiler.regalloc import allocate_registers

        for func in module.functions.values():
            allocate_registers(func)
        mmodule = lower_module(module)
        func = mmodule.functions[0]
        regions = form_treegions(func)
        roots = {r.root for r in regions}
        assert "loop" in roots  # the back edge forces a new region

    def test_hoisting_marks_speculative(self):
        from repro.compiler.lower import lower_module
        from repro.compiler.regalloc import allocate_registers
        from tests.conftest import build_call_module

        module, _ = build_call_module("tg2")
        for func in module.functions.values():
            allocate_registers(func)
        mmodule = lower_module(module)
        moved = sum(
            hoist_into_parents(f, form_treegions(f))
            for f in mmodule.functions
        )
        if moved:
            spec_ops = [
                i
                for f in mmodule.functions
                for blk in f.blocks
                for i in blk.instrs
                if i.speculative
            ]
            assert len(spec_ops) == moved


class TestLowering:
    def test_arguments_pass_through_stack(self):
        mb = ModuleBuilder("args")
        out = mb.global_array("result", words=1)
        f = mb.function("combine", num_args=3)
        a, b_, c = f.arg(0), f.arg(1), f.arg(2)
        t = f.ireg()
        f.mpy(t, a, b_)
        f.sub(t, t, c)
        f.ret(t)
        f.done()
        m = mb.function("main", num_args=0)
        x = m.iconst(6)
        y = m.iconst(7)
        z = m.iconst(2)
        r = m.ireg()
        m.call("combine", args=[x, y, z], ret=r)
        addr = m.ireg()
        m.la(addr, "result")
        m.store(addr, r)
        m.halt()
        m.done()
        _compile_and_check(mb, out, 40)

    def test_nested_calls_restore_sp(self):
        mb = ModuleBuilder("nest")
        out = mb.global_array("result", words=1)
        f = mb.function("inner", num_args=1)
        v = f.ireg()
        f.addi(v, f.arg(0), 1)
        f.ret(v)
        f.done()
        g = mb.function("outer", num_args=1)
        r1 = g.ireg()
        g.call("inner", args=[g.arg(0)], ret=r1)
        r2 = g.ireg()
        g.call("inner", args=[r1], ret=r2)
        g.ret(r2)
        g.done()
        m = mb.function("main", num_args=0)
        x = m.iconst(5)
        r = m.ireg()
        m.call("outer", args=[x], ret=r)
        addr = m.ireg()
        m.la(addr, "result")
        m.store(addr, r)
        m.halt()
        m.done()
        _compile_and_check(mb, out, 7)

    def test_float_argument_and_return(self):
        mb = ModuleBuilder("fargs")
        out = mb.global_array("result", words=1)
        f = mb.function("fsq", num_args=1)
        x = f.arg(0)
        xf = f.freg()
        f.i2f(xf, x)
        y = f.freg()
        f.fmpy(y, xf, xf)
        z = f.ireg()
        f.f2i(z, y)
        f.ret(z)
        f.done()
        m = mb.function("main", num_args=0)
        a = m.iconst(9)
        r = m.ireg()
        m.call("fsq", args=[a], ret=r)
        addr = m.ireg()
        m.la(addr, "result")
        m.store(addr, r)
        m.halt()
        m.done()
        _compile_and_check(mb, out, 81)

    def test_mutual_recursion(self):
        """is_even/is_odd via mutual calls — deep return-stack traffic."""
        mb = ModuleBuilder("mutual")
        out = mb.global_array("result", words=1)
        fe = mb.function("is_even", num_args=1)
        n = fe.arg(0)
        p = fe.preg()
        fe.cmpi_eq(p, n, 0)
        fe.br_if(p, "yes")
        n1 = fe.ireg()
        fe.subi(n1, n, 1)
        r = fe.ireg()
        fe.call("is_odd", args=[n1], ret=r)
        fe.ret(r)
        fe.label("yes")
        one = fe.iconst(1)
        fe.ret(one)
        fe.done()
        fo = mb.function("is_odd", num_args=1)
        n = fo.arg(0)
        p = fo.preg()
        fo.cmpi_eq(p, n, 0)
        fo.br_if(p, "no")
        n1 = fo.ireg()
        fo.subi(n1, n, 1)
        r = fo.ireg()
        fo.call("is_even", args=[n1], ret=r)
        fo.ret(r)
        fo.label("no")
        zero = fo.iconst(0)
        fo.ret(zero)
        fo.done()
        m = mb.function("main", num_args=0)
        x = m.iconst(11)
        r = m.ireg()
        m.call("is_even", args=[x], ret=r)
        addr = m.ireg()
        m.la(addr, "result")
        m.store(addr, r)
        m.halt()
        m.done()
        _compile_and_check(mb, out, 0)
