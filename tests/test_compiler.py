"""Tests for the compiler: builder, passes, CFG, and the full pipeline."""

import pytest

from repro.compiler.builder import ModuleBuilder
from repro.compiler.pipeline import compile_module
from repro.compiler.cfg import (
    build_cfg,
    cleanup,
    predecessors,
    reachable_labels,
    remove_empty_blocks,
    remove_unreachable_blocks,
)
from repro.compiler.ir import IRJump, IROp, RegClass, VReg
from repro.compiler.liveness import analyze_liveness
from repro.compiler.passes import (
    eliminate_dead_code,
    fold_constants,
    propagate_copies,
)
from repro.emulator import run_image
from repro.errors import CompilerError
from repro.isa.opcodes import Opcode
from tests.conftest import build_counting_module


def _emulate(module):
    prog = compile_module(module)
    return run_image(prog.image, module.globals), prog


def _result(module, address):
    res, _ = _emulate(module)
    return res.machine.load_word(address)


class TestBuilder:
    def test_wide_constant_materialization(self):
        mb = ModuleBuilder("wide")
        out = mb.global_array("result", words=1)
        b = mb.function("main", num_args=0)
        v = b.ireg()
        b.li(v, 0x12345678)
        addr = b.ireg()
        b.la(addr, "result")
        b.store(addr, v)
        b.halt()
        b.done()
        assert _result(mb.build(), out) == 0x12345678

    def test_negative_wide_constant(self):
        mb = ModuleBuilder("neg")
        out = mb.global_array("result", words=1)
        b = mb.function("main", num_args=0)
        v = b.ireg()
        b.li(v, -0x7654321)
        addr = b.ireg()
        b.la(addr, "result")
        b.store(addr, v)
        b.halt()
        b.done()
        assert _result(mb.build(), out) == -0x7654321

    def test_constant_too_wide_rejected(self):
        mb = ModuleBuilder("huge")
        b = mb.function("main", num_args=0)
        with pytest.raises(CompilerError):
            b.li(b.ireg(), 1 << 40)

    def test_select_both_paths(self):
        for flag, expected in ((1, 111), (0, 222)):
            mb = ModuleBuilder("sel")
            out = mb.global_array("result", words=1)
            b = mb.function("main", num_args=0)
            f = b.iconst(flag)
            t = b.iconst(111)
            e = b.iconst(222)
            p = b.preg()
            b.cmpi_ne(p, f, 0)
            d = b.ireg()
            b.select(d, p, t, e)
            addr = b.ireg()
            b.la(addr, "result")
            b.store(addr, d)
            b.halt()
            b.done()
            assert _result(mb.build(), out) == expected

    def test_duplicate_label_rejected(self):
        mb = ModuleBuilder("dup")
        b = mb.function("main", num_args=0)
        b.label("x")
        with pytest.raises(CompilerError):
            b.label("x")

    def test_emit_after_terminator_rejected(self):
        mb = ModuleBuilder("term")
        b = mb.function("main", num_args=0)
        b.halt()
        # halt() opened a fresh auto block, so this is fine:
        b.li(b.ireg(), 1)

    def test_duplicate_function_rejected(self):
        mb = ModuleBuilder("m")
        mb.function("f", num_args=0)
        with pytest.raises(CompilerError):
            mb.function("f", num_args=0)

    def test_duplicate_global_rejected(self):
        mb = ModuleBuilder("m")
        mb.global_array("g", words=1)
        with pytest.raises(CompilerError):
            mb.global_array("g", words=1)

    def test_global_initializers_loaded(self):
        mb = ModuleBuilder("ini")
        out = mb.global_array("result", words=1)
        mb.global_array("tab", words=4, init=[10, 20, 30, 40])
        b = mb.function("main", num_args=0)
        t = b.ireg()
        b.la(t, "tab")
        v = b.ireg()
        b.load_word(v, t, 2)
        addr = b.ireg()
        b.la(addr, "result")
        b.store(addr, v)
        b.halt()
        b.done()
        assert _result(mb.build(), out) == 30

    def test_unknown_call_target_rejected_at_validate(self):
        mb = ModuleBuilder("m")
        b = mb.function("main", num_args=0)
        b.call("ghost")
        b.halt()
        b.done()
        with pytest.raises(CompilerError):
            mb.build()


class TestPasses:
    def _single_block_func(self, instrs):
        mb = ModuleBuilder("m")
        b = mb.function("main", num_args=0)
        func = b.func
        func.blocks[0].instrs.extend(instrs)
        return func

    def test_constant_folding_produces_ldi(self):
        v0, v1, v2 = (VReg(RegClass.INT, i) for i in range(3))
        func = self._single_block_func([
            IROp(Opcode.LDI, dest=v0, imm=6),
            IROp(Opcode.LDI, dest=v1, imm=7),
            IROp(Opcode.MPY, dest=v2, src1=v0, src2=v1),
        ])
        assert fold_constants(func)
        folded = func.blocks[0].instrs[-1]
        assert folded.opcode is Opcode.LDI and folded.imm == 42

    def test_strength_reduction_mpy_to_shl(self):
        v0, v1, v2 = (VReg(RegClass.INT, i) for i in range(3))
        func = self._single_block_func([
            IROp(Opcode.LDI, dest=v0, imm=8),
            IROp(Opcode.MPY, dest=v2, src1=v1, src2=v0),
        ])
        assert fold_constants(func)
        assert any(
            isinstance(i, IROp) and i.opcode is Opcode.SHL
            for i in func.blocks[0].instrs
        )

    def test_predicated_op_not_folded(self):
        v0, v1 = VReg(RegClass.INT, 0), VReg(RegClass.INT, 1)
        p = VReg(RegClass.PRED, 2)
        func = self._single_block_func([
            IROp(Opcode.LDI, dest=v0, imm=1),
            IROp(Opcode.LDI, dest=v1, imm=2),
            IROp(Opcode.ADD, dest=v1, src1=v0, src2=v1, predicate=p),
        ])
        fold_constants(func)
        assert func.blocks[0].instrs[-1].opcode is Opcode.ADD

    def test_copy_propagation_rewrites_reads(self):
        v0, v1, v2 = (VReg(RegClass.INT, i) for i in range(3))
        func = self._single_block_func([
            IROp(Opcode.MOV, dest=v1, src1=v0),
            IROp(Opcode.ADD, dest=v2, src1=v1, src2=v1),
        ])
        assert propagate_copies(func)
        add = func.blocks[0].instrs[-1]
        assert add.src1 == v0 and add.src2 == v0

    def test_copy_invalidated_by_redefinition(self):
        v0, v1, v2 = (VReg(RegClass.INT, i) for i in range(3))
        func = self._single_block_func([
            IROp(Opcode.MOV, dest=v1, src1=v0),
            IROp(Opcode.LDI, dest=v0, imm=5),
            IROp(Opcode.ADD, dest=v2, src1=v1, src2=v1),
        ])
        propagate_copies(func)
        add = func.blocks[0].instrs[-1]
        assert add.src1 == v1  # must NOT read the overwritten v0

    def test_dce_removes_orphan_chain(self):
        v0, v1 = VReg(RegClass.INT, 0), VReg(RegClass.INT, 1)
        func = self._single_block_func([
            IROp(Opcode.LDI, dest=v0, imm=1),
            IROp(Opcode.ADD, dest=v1, src1=v0, src2=v0),
        ])
        assert eliminate_dead_code(func)
        assert func.blocks[0].instrs == []

    def test_dce_keeps_stores(self):
        v0 = VReg(RegClass.INT, 0)
        func = self._single_block_func([
            IROp(Opcode.LDI, dest=v0, imm=64),
            IROp(Opcode.ST, src1=v0, src2=v0),
        ])
        eliminate_dead_code(func)
        assert len(func.blocks[0].instrs) == 2

    def test_optimization_preserves_semantics(self):
        module_a, out = build_counting_module("opt_a")
        module_b, _ = build_counting_module("opt_b")
        res_a = run_image(
            compile_module(module_a, opt=True).image, module_a.globals
        )
        res_b = run_image(
            compile_module(module_b, opt=False).image, module_b.globals
        )
        assert res_a.machine.load_word(out) == \
            res_b.machine.load_word(out)

    def test_optimization_reduces_dynamic_work(self):
        module_a, _ = build_counting_module("opt_c")
        module_b, _ = build_counting_module("opt_d")
        ops_opt = run_image(
            compile_module(module_a, opt=True).image, module_a.globals
        ).dynamic_ops
        ops_raw = run_image(
            compile_module(module_b, opt=False).image, module_b.globals
        ).dynamic_ops
        assert ops_opt <= ops_raw


class TestCFG:
    def _two_block_func(self):
        mb = ModuleBuilder("m")
        b = mb.function("main", num_args=0)
        p = b.preg()
        v = b.iconst(1)
        b.cmpi_eq(p, v, 1)
        b.br_if(p, "then")
        b.halt()
        b.label("then")
        b.halt()
        b.done()
        return b.func

    def test_successors_and_predecessors(self):
        func = self._two_block_func()
        cfg = build_cfg(func)
        entry = func.blocks[0].label
        succs = cfg[entry]
        assert len(succs) == 2  # fallthrough + branch target
        preds = predecessors(cfg)
        assert entry in preds["then"]

    def test_unreachable_removed(self):
        func = self._two_block_func()
        # Orphan block at the end, reachable from nothing.
        mb2 = ModuleBuilder("m2")
        b2 = mb2.function("f", num_args=0)
        b2.jump("end")
        b2.label("orphan_src")  # auto dead block precedes this
        b2.label("end")
        b2.halt()
        b2.done()
        before = len(b2.func.blocks)
        removed = remove_unreachable_blocks(b2.func)
        assert removed >= 0
        assert len(b2.func.blocks) == before - removed
        assert reachable_labels(b2.func) == {
            blk.label for blk in b2.func.blocks
        }

    def test_empty_blocks_collapse(self):
        mb = ModuleBuilder("m")
        b = mb.function("main", num_args=0)
        b.jump("target")
        b.label("hop")  # empty: falls into target
        b.label("target")
        b.halt()
        b.done()
        removed = remove_empty_blocks(b.func)
        assert removed >= 1
        cleanup(b.func)
        terminator = b.func.blocks[0].terminator
        assert isinstance(terminator, IRJump)
        assert terminator.target in {blk.label for blk in b.func.blocks}


class TestLiveness:
    def test_loop_carried_values_live_through_block(self):
        module, _ = build_counting_module("live")
        func = module.functions["main"]
        result = analyze_liveness(func)
        loop = func.block_by_label("loop")
        # The accumulator is live in and out of the loop block.
        assert result.live_in["loop"] & result.live_out["loop"]
        assert loop is not None

    def test_entry_has_no_live_in(self):
        module, _ = build_counting_module("live2")
        func = module.functions["main"]
        result = analyze_liveness(func)
        assert result.live_in[func.blocks[0].label] == set()


class TestPipelineStats:
    def test_stats_populated(self, tiny_program):
        prog, _, _ = tiny_program
        assert prog.stats.treegions >= 1
        assert "main" in prog.stats.spill_slots

    def test_hoisting_differential(self):
        module_a, out = build_counting_module("hoist_on")
        module_b, _ = build_counting_module("hoist_off")
        a = run_image(
            compile_module(module_a, hoist=True).image, module_a.globals
        )
        b = run_image(
            compile_module(module_b, hoist=False).image, module_b.globals
        )
        assert a.machine.load_word(out) == b.machine.load_word(out)

    def test_recompiling_a_module_is_refused(self):
        # The passes rewrite the module in place: compiled again,
        # compress@16's main reserves an 8-byte frame instead of 40 and
        # the image faults out of range.
        from repro.programs.suite import SUITE

        module = SUITE["compress"].build(16)
        first = compile_module(module)
        with pytest.raises(CompilerError, match=repr(module.name)):
            compile_module(module)
        fresh = compile_module(SUITE["compress"].build(16))
        assert fresh.image.total_ops == first.image.total_ops
