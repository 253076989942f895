"""Differential tests for the generated-code emulator kernel.

The kernel (`repro.emulator.kernel`) must be indistinguishable from the
interpretive reference (`repro.emulator.machine.run_image`) in every
observable: the block trace, all dynamic statistics, the opcode
histogram, final machine state, and the point and message of every
abort.  Fixed suite programs pin the real workloads; hypothesis
generates op/state combinations the suite never reaches.
"""

from __future__ import annotations

import gc
import math
import struct
import weakref
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.hazards import needs_buffered_execution
from repro.emulator import Machine, emulate, run_image
from repro.emulator.kernel import plan_for, run_image_kernel
from repro.emulator.machine import CANONICAL_NAN, _execute_mop
from repro.errors import EmulationError
from repro.isa import MultiOp, Opcode, Operation
from repro.isa.image import BasicBlockImage, ProgramImage
from repro.isa.multiop import MEMORY_UNITS
from repro.isa.operation import BHWX_BYTE, BHWX_DOUBLE, BHWX_HALF, BHWX_WORD
from repro.isa.registers import fpr, gpr, pred
from repro.programs.suite import BENCHMARK_NAMES, compile_benchmark
from repro.utils.arith import wrap32

_SCALE = 2


def _both(compiled, **kwargs):
    reference = run_image(
        compiled.image, compiled.module.globals, **kwargs
    )
    kernel = run_image_kernel(
        compiled.image, compiled.module.globals, **kwargs
    )
    return reference, kernel


# ------------------------------------------------------------- suite
def _op_soup_program(iterations: int):
    """A synthetic op-soup loop touching every execution path the
    kernel specializes: int/fp/compare/memory ops, predicated moves
    (via ``select``) and a call/ret pair.  It is the only program that
    runs ``fabs_``, and the only one running every FP family together
    with call/ret and ``select``."""
    from repro.compiler.pipeline import compile_module
    from repro.compiler.builder import ModuleBuilder

    mb = ModuleBuilder("opsoup")
    mb.global_array("buf", words=64)
    mb.global_array("result", words=1)

    helper = mb.function("mix", num_args=1)
    hv = helper.arg(0)
    out = helper.ireg()
    helper.xori(out, hv, 0x5A5A)
    helper.srai(out, out, 3)
    helper.ret(out)
    helper.done()

    b = mb.function("main", num_args=0)
    base = b.ireg()
    b.la(base, "buf")
    i = b.ireg()
    b.li(i, 0)
    acc = b.ireg()
    b.li(acc, 1)
    total = b.iconst(iterations)
    # Loop 1: integer ALU, memory traffic, a call/ret pair and a
    # predicated select.  (No FP state may live across the call — FP
    # spill slots cannot be expressed in the baseline encoding.)
    b.label("iloop")
    slot = b.ireg()
    b.modi(slot, i, 64)
    b.store_index(base, slot, acc)
    back = b.ireg()
    b.load_index(back, base, slot)
    b.mpyi(acc, acc, 1103515245)
    b.addi(acc, acc, 12345)
    b.xor(acc, acc, back)
    mixed = b.ireg()
    b.call("mix", [acc], ret=mixed)
    lo = b.ireg()
    b.andi(lo, mixed, 0xFF)
    p = b.preg()
    b.cmpi_gt(p, lo, 127)
    picked = b.ireg()
    b.select(picked, p, lo, acc)
    b.add(acc, acc, picked)
    b.addi(i, i, 1)
    pg = b.preg()
    b.cmp_lt(pg, i, total)
    b.br_if(pg, "iloop")
    # Loop 2: the floating-point families.
    facc = b.freg()
    seed = b.iconst(3)
    b.i2f(facc, seed)
    cap = b.freg()
    big = b.iconst(65536)
    b.i2f(cap, big)
    b.li(i, 0)
    b.label("floop")
    fstep = b.freg()
    step = b.ireg()
    b.andi(step, i, 0xFF)
    b.i2f(fstep, step)
    b.fadd(facc, facc, fstep)
    b.fmpy(facc, facc, facc)
    b.fabs_(facc, facc)
    b.fdiv(facc, facc, cap)
    b.addi(i, i, 1)
    pf = b.preg()
    b.cmp_lt(pf, i, total)
    b.br_if(pf, "floop")
    fout = b.ireg()
    b.f2i(fout, facc)
    b.xor(acc, acc, fout)
    outp = b.ireg()
    b.la(outp, "result")
    b.store(outp, acc)
    b.halt()
    b.done()
    return compile_module(mb.build())


@pytest.mark.parametrize("name", BENCHMARK_NAMES + ("op-soup",))
def test_suite_program_runs_identical(name):
    if name == "op-soup":
        compiled = _op_soup_program(200)
    else:
        compiled = compile_benchmark(name, _SCALE)
    reference, kernel = _both(compiled)
    ref_fp = reference.fingerprint()
    ker_fp = kernel.fingerprint()
    for fld, expected in ref_fp.items():
        assert ker_fp[fld] == expected, f"{name}: {fld} diverged"
    # Counter equality is dict equality: a zero-count entry on one side
    # only would slip past fingerprint's name/count view.
    assert kernel.opcode_counts == reference.opcode_counts
    if name == "op-soup":
        assert reference.opcode_counts[Opcode.FABS] == 200


def test_dataclass_fields_equal_modulo_machine():
    compiled = compile_benchmark("compress", _SCALE)
    reference, kernel = _both(compiled)
    assert kernel.block_trace == reference.block_trace
    assert kernel.block_trace.typecode == reference.block_trace.typecode
    assert kernel.dynamic_ops == reference.dynamic_ops
    assert kernel.dynamic_mops == reference.dynamic_mops
    assert kernel.executed_ops == reference.executed_ops
    assert kernel.ideal_ipc == reference.ideal_ipc
    assert (
        kernel.machine.state_digest() == reference.machine.state_digest()
    )


# ------------------------------------------------------------- aborts
@pytest.mark.parametrize("budget", [1, 7, 57, 331])
def test_runaway_aborts_at_identical_point(budget):
    compiled = compile_benchmark("compress", _SCALE)
    outcomes = []
    for runner in (run_image, run_image_kernel):
        machine = Machine()
        with pytest.raises(EmulationError) as err:
            runner(
                compiled.image,
                compiled.module.globals,
                max_mops=budget,
                machine=machine,
            )
        outcomes.append((str(err.value), machine.state_digest()))
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][0] == f"program exceeded {budget} dynamic MultiOps"


@pytest.mark.parametrize("budget", [0, -3])
def test_exhausted_budget_aborts_before_the_first_group(budget):
    compiled = compile_benchmark("compress", _SCALE)
    outcomes = []
    for runner in (run_image, run_image_kernel):
        machine = Machine()
        with pytest.raises(EmulationError) as err:
            runner(compiled.image, max_mops=budget, machine=machine)
        outcomes.append((str(err.value), machine.state_digest()))
    assert outcomes[0] == outcomes[1] == (
        f"program exceeded {budget} dynamic MultiOps",
        Machine().state_digest(),
    )


# --------------------------------------------------------- dispatcher
def test_emulate_dispatches_to_kernel_by_default(monkeypatch):
    sentinel = object()
    monkeypatch.setattr(
        "repro.emulator.kernel.run_image_kernel",
        lambda *a, **k: sentinel,
    )
    compiled = compile_benchmark("compress", _SCALE)
    assert emulate(compiled.image, compiled.module.globals) is sentinel


def test_plan_is_memoized_per_image():
    compiled = compile_benchmark("compress", _SCALE)
    assert plan_for(compiled.image) is plan_for(compiled.image)


def test_plan_does_not_keep_its_image_alive():
    """The memo is weak: a plan that referenced its image would keep
    every emulated image (and its generated code) alive."""
    image = ProgramImage(
        "short-lived", [BasicBlockImage(0, "only", (_HALT,))]
    )
    run_image_kernel(image)
    assert plan_for(image) is not None
    alive = weakref.ref(image)
    del image
    gc.collect()
    assert alive() is None


# ------------------------------------------------- VLIW group compile
_HALT = MultiOp.of([Operation(Opcode.HALT)])


def _run_one_block(mops, prepare=lambda machine: None):
    """Run ``mops`` as a one-block image on both engines.

    The kernel must match the reference's fingerprint and histogram, or
    raise its error from the same machine state; returns the kernel's
    result and final machine, or the error message.
    """
    image = ProgramImage("case", [BasicBlockImage(0, "case", tuple(mops))])
    outcomes = []
    for runner in (run_image, run_image_kernel):
        machine = Machine()
        prepare(machine)
        try:
            result = runner(image, machine=machine)
        except EmulationError as exc:
            outcomes.append((str(exc), machine.state_digest()))
            continue
        outcomes.append(result)
    reference, kernel = outcomes
    if isinstance(reference, tuple):
        assert kernel == reference
        return kernel[0]
    else:
        assert kernel.fingerprint() == reference.fingerprint()
        assert kernel.opcode_counts == reference.opcode_counts
    return kernel


class TestCompiledMopSemantics:
    def test_swap_reads_before_writes(self):
        def prepare(machine):
            machine.gpr[1], machine.gpr[2] = 11, 22

        mop = MultiOp.of([
            Operation(Opcode.MOV, dest=gpr(1), src1=gpr(2)),
            Operation(Opcode.MOV, dest=gpr(2), src1=gpr(1)),
        ])
        machine = _run_one_block([mop, _HALT], prepare).machine
        assert (machine.gpr[1], machine.gpr[2]) == (22, 11)

    def test_two_control_transfers_rejected(self):
        mop = MultiOp.of([
            Operation(Opcode.BR, target_block=0),
            Operation(Opcode.HALT),
        ])
        assert _run_one_block([mop]) == "two control transfers in one MultiOp"

    def test_predicated_second_control_is_fine(self):
        mop = MultiOp.of([  # p1 is False
            Operation(Opcode.HALT),
            Operation(Opcode.BR, target_block=0, predicate=pred(1)),
        ])
        result = _run_one_block([mop])
        # The nullified branch counted nothing.
        assert result.executed_ops == 1
        assert result.opcode_counts == Counter({Opcode.HALT: 1})

    def test_branch_guard_read_before_its_group_rewrites_it(self):
        """The last group's branch reads p2 before the compare beside it
        sets it: the branch does not fire, so the block has no
        successor."""
        mop = MultiOp.of([
            Operation(Opcode.BR, target_block=0, predicate=pred(2)),
            Operation(Opcode.CMPP_EQ, dest=pred(2), src1=gpr(1), src2=gpr(1)),
        ])
        assert _run_one_block([mop]) == (
            "block case has no successor and no control transfer fired"
        )

    def test_earlier_transfer_wins_when_a_later_one_does_not_fire(self):
        halt = MultiOp.of([Operation(Opcode.HALT)])
        branch = MultiOp.of([  # p1 is False
            Operation(Opcode.BR, target_block=0, predicate=pred(1)),
        ])
        result = _run_one_block([halt, branch])
        assert result.block_trace.tolist() == [0]
        assert result.opcode_counts == Counter({Opcode.HALT: 1})

    def test_store_guard_read_before_its_group_rewrites_it(self):
        def prepare(machine):
            machine.gpr[1], machine.gpr[2] = 256, 7

        mop = MultiOp.of([  # p2 is False when the store reads it
            Operation(Opcode.ST, src1=gpr(1), src2=gpr(2), predicate=pred(2)),
            Operation(Opcode.CMPP_EQ, dest=pred(2), src1=gpr(1), src2=gpr(1)),
        ])
        assert not needs_buffered_execution(mop.ops)
        machine = _run_one_block([mop, _HALT], prepare).machine
        assert machine.load_word(256) == 0
        assert machine.pr[2]

    def test_store_operands_read_before_its_group_rewrites_them(self):
        def prepare(machine):
            machine.gpr[1], machine.gpr[2], machine.gpr[3] = 256, 7, 9

        mop = MultiOp.of([
            Operation(Opcode.ST, src1=gpr(1), src2=gpr(2)),
            Operation(Opcode.MOV, dest=gpr(2), src1=gpr(3)),
            Operation(Opcode.LDI, dest=gpr(1), imm=512),
        ])
        assert not needs_buffered_execution(mop.ops)
        machine = _run_one_block([mop, _HALT], prepare).machine
        assert (machine.load_word(256), machine.load_word(512)) == (7, 0)

    def test_hazardous_group_writes_reach_later_groups(self):
        def prepare(machine):
            machine.gpr[2], machine.gpr[3], machine.gpr[4] = 5, 6, 40

        mops = [
            MultiOp.of([
                Operation(Opcode.ADD, dest=gpr(1), src1=gpr(2), src2=gpr(3)),
            ]),
            MultiOp.of([  # RAW on r2: the reference's executor runs it
                Operation(Opcode.MOV, dest=gpr(2), src1=gpr(4)),
                Operation(Opcode.ADD, dest=gpr(5), src1=gpr(2), src2=gpr(2)),
            ]),
            MultiOp.of([
                Operation(Opcode.ADD, dest=gpr(6), src1=gpr(2), src2=gpr(3)),
            ]),
            _HALT,
        ]
        assert needs_buffered_execution(mops[1].ops)
        machine = _run_one_block(mops, prepare).machine
        assert (machine.gpr[5], machine.gpr[6]) == (10, 46)

    def test_store_applied_after_reads(self):
        def prepare(machine):
            machine.gpr[1] = 256
            machine.gpr[2] = 5
            machine.store(256, 99, 2)

        mop = MultiOp.of([
            Operation(Opcode.LD, dest=gpr(3), src1=gpr(1)),
            Operation(Opcode.ST, src1=gpr(1), src2=gpr(2)),
        ])
        machine = _run_one_block([mop, _HALT], prepare).machine
        assert machine.gpr[3] == 99
        assert machine.load_word(256) == 5

    def test_faulting_store_reports_the_later_fault(self):
        """The reference evaluates every op before any store, so a
        group whose store and a later op both fault reports the later
        op, with no write of the group applied."""
        def prepare(machine):
            machine.gpr[1], machine.gpr[2] = -4, 7
            machine.gpr[3], machine.gpr[4] = 5, 0

        mop = MultiOp.of([
            Operation(Opcode.ST, src1=gpr(1), src2=gpr(2)),
            Operation(Opcode.DIV, dest=gpr(3), src1=gpr(2), src2=gpr(4)),
        ])
        assert not needs_buffered_execution(mop.ops)
        assert _run_one_block([mop, _HALT], prepare) == (
            "integer division by zero"
        )

    def test_nan_results_are_canonical(self):
        """Which operand's NaN CPython propagates depends on whether a
        float operation ran specialized, so every FP result NaN is the
        one canonical NaN, on both engines and on any interpreter."""
        def prepare(machine):
            machine.fpr[0], machine.fpr[1] = math.inf, math.nan

        mops = [
            MultiOp.of([  # inf/inf: the hardware's negative NaN
                Operation(Opcode.FDIV, dest=fpr(2), src1=fpr(0), src2=fpr(0)),
            ]),
            MultiOp.of([
                Operation(Opcode.FMPY, dest=fpr(3), src1=fpr(2), src2=fpr(1)),
                Operation(Opcode.FADD, dest=fpr(4), src1=fpr(1), src2=fpr(2)),
                Operation(Opcode.FSUB, dest=fpr(5), src1=fpr(0), src2=fpr(0)),
            ]),
            _HALT,
        ]
        canonical = struct.pack("<d", CANONICAL_NAN)
        # Repeated runs warm the reference's float operations into their
        # specialized forms.
        for _ in range(3):
            machine = _run_one_block(mops, prepare).machine
            assert [
                struct.pack("<d", machine.fpr[i]) for i in (2, 3, 4, 5)
            ] == [canonical] * 4

    def test_predicated_op_counts_dynamically(self):
        def prepare(machine):
            machine.pr[2] = True
            machine.gpr[4] = 9

        mop = MultiOp.of([
            Operation(
                Opcode.MOV, dest=gpr(5), src1=gpr(4), predicate=pred(2)
            ),
        ])
        result = _run_one_block([mop, _HALT], prepare)
        assert result.machine.gpr[5] == 9
        assert result.executed_ops == 2
        assert result.opcode_counts == Counter(
            {Opcode.MOV: 1, Opcode.HALT: 1}
        )


# --------------------------------------------------------- hypothesis
_BINARY_OPCODES = (
    Opcode.ADD, Opcode.SUB, Opcode.MPY, Opcode.AND, Opcode.OR,
    Opcode.XOR, Opcode.SHL, Opcode.SHR, Opcode.SRA, Opcode.MIN,
    Opcode.MAX, Opcode.DIV, Opcode.MOD, Opcode.CMPP_EQ, Opcode.CMPP_NE,
    Opcode.CMPP_LT, Opcode.CMPP_LE, Opcode.CMPP_GT, Opcode.CMPP_GE,
)
_UNARY_OPCODES = (Opcode.MOV, Opcode.ABS, Opcode.NOT)

_int32 = st.integers(min_value=-(1 << 31), max_value=(1 << 31) - 1)
_reg_index = st.integers(min_value=0, max_value=31)


@st.composite
def _arith_cases(draw):
    opcode = draw(st.sampled_from(_BINARY_OPCODES + _UNARY_OPCODES))
    if opcode.is_compare:
        dest = pred(draw(_reg_index))
    else:
        dest = gpr(draw(_reg_index))
    src1 = gpr(draw(_reg_index))
    src2 = (
        gpr(draw(_reg_index)) if opcode in _BINARY_OPCODES else None
    )
    op = Operation(opcode, dest=dest, src1=src1, src2=src2)
    registers = draw(
        st.lists(_int32, min_size=32, max_size=32)
    )
    return op, registers


@given(_arith_cases())
@settings(max_examples=300, deadline=None)
def test_compiled_arithmetic_matches_execute_op(case):
    """An op's generated code (a one-block image: the op, then HALT)
    and `_execute_op` (via `_execute_mop`) leave two machines in
    identical register state — or raise the identical error — from any
    32-bit register file."""
    op, registers = case
    ref_machine, ker_machine = Machine(), Machine()
    ref_machine.gpr[:] = registers
    ker_machine.gpr[:] = registers
    assert all(wrap32(v) == v for v in registers)

    mop = MultiOp.of([op])
    image = ProgramImage("op", [BasicBlockImage(0, "op", (mop, _HALT))])
    outcomes = []
    for machine, execute in (
        (ref_machine, lambda m: _execute_mop(m, mop.ops, Counter())),
        (ker_machine, lambda m: run_image_kernel(image, machine=m)),
    ):
        try:
            execute(machine)
            outcomes.append(None)
        except EmulationError as exc:
            outcomes.append(str(exc))
    assert outcomes[0] == outcomes[1]
    assert ker_machine.gpr == ref_machine.gpr
    assert ker_machine.pr == ref_machine.pr
    assert ker_machine.state_digest() == ref_machine.state_digest()


# ------------------------------------------- hazardous groups (hypothesis)
#: Few registers per bank, so random operands collide often.
_NREGS = 6
_reg = st.integers(min_value=0, max_value=_NREGS - 1)
#: Guards: p0 (always true) half the time, else p1..p4.
_guard = st.one_of(
    st.just(pred(0)), st.integers(min_value=1, max_value=4).map(pred)
)
#: Register values: mostly aligned in-range addresses (so memory ops
#: usually succeed), plus small ints (zero divisors) and any int32.
_gpr_value = st.one_of(
    st.sampled_from([256, 264, 512, 1024, 4096]),
    st.just(0),
    st.integers(min_value=-3, max_value=3),
    _int32,
)
_fpr_value = st.one_of(
    st.just(0.0),
    st.floats(min_value=-1e3, max_value=1e3, allow_nan=False),
)
_INT_OPS = tuple(op for op in _BINARY_OPCODES if not op.is_compare)
_CMP_OPS = tuple(op for op in _BINARY_OPCODES if op.is_compare)
_FP_BINARY_OPS = (
    Opcode.FADD, Opcode.FSUB, Opcode.FMPY, Opcode.FMIN, Opcode.FMAX,
    Opcode.FDIV,
)
_WIDTHS = (BHWX_BYTE, BHWX_HALF, BHWX_WORD, BHWX_DOUBLE)


@st.composite
def _int_op(draw, src1=None, guard=None):
    opcode = draw(st.sampled_from(_INT_OPS + _UNARY_OPCODES))
    return Operation(
        opcode,
        dest=gpr(draw(_reg)),
        src1=src1 or gpr(draw(_reg)),
        src2=gpr(draw(_reg)) if opcode in _INT_OPS else None,
        predicate=guard or draw(_guard),
    )


@st.composite
def _fp_op(draw, src1=None, guard=None):
    opcode = draw(st.sampled_from(
        _FP_BINARY_OPS + (Opcode.FABS, Opcode.FMOV)
    ))
    return Operation(
        opcode,
        dest=fpr(draw(_reg)),
        src1=src1 or fpr(draw(_reg)),
        src2=fpr(draw(_reg)) if opcode in _FP_BINARY_OPS else None,
        predicate=guard or draw(_guard),
    )


@st.composite
def _compare_op(draw, src1=None, min_pred=0):
    return Operation(
        draw(st.sampled_from(_CMP_OPS)),
        dest=pred(draw(st.integers(min_value=min_pred, max_value=4))),
        src1=src1 or gpr(draw(_reg)),
        src2=gpr(draw(_reg)),
        predicate=draw(_guard),
    )


@st.composite
def _gpr_writer(draw):
    """LDI, F2I or LD: the GPR writers besides the integer ALU."""
    kind = draw(st.sampled_from(("ldi", "f2i", "ld")))
    guard = draw(_guard)
    if kind == "ldi":
        return Operation(
            Opcode.LDI, dest=gpr(draw(_reg)),
            imm=draw(st.integers(min_value=-8, max_value=4096)),
            predicate=guard,
        )
    if kind == "f2i":
        return Operation(
            Opcode.F2I, dest=gpr(draw(_reg)), src1=fpr(draw(_reg)),
            predicate=guard,
        )
    return Operation(
        Opcode.LD, dest=gpr(draw(_reg)), src1=gpr(draw(_reg)),
        bhwx=draw(st.sampled_from(_WIDTHS)), predicate=guard,
    )


@st.composite
def _i2f_op(draw):
    return Operation(
        Opcode.I2F, dest=fpr(draw(_reg)), src1=gpr(draw(_reg)),
        predicate=draw(_guard),
    )


@st.composite
def _store_op(draw):
    value = draw(st.one_of(_reg.map(gpr), _reg.map(fpr)))
    return Operation(
        Opcode.ST, src1=gpr(draw(_reg)), src2=value,
        bhwx=draw(st.sampled_from(_WIDTHS)), predicate=draw(_guard),
    )


@st.composite
def _control_op(draw, guard=None):
    opcode = draw(st.sampled_from(
        (Opcode.BR, Opcode.BR, Opcode.CALL, Opcode.RET, Opcode.HALT)
    ))
    target = None
    if opcode in (Opcode.BR, Opcode.CALL):
        # Block 1 halts; a transfer back to block 0 loops until the
        # MultiOp budget aborts the run.
        target = draw(st.sampled_from((1, 1, 0)))
    return Operation(
        opcode, target_block=target, predicate=guard or draw(_guard)
    )


_filler_op = st.one_of(
    _int_op(), _fp_op(), _compare_op(), _gpr_writer(), _i2f_op(),
    _store_op(), _control_op(),
)


@st.composite
def _hazard_pair(draw):
    """Two ops, the later one depending on the earlier in one group."""
    kind = draw(st.sampled_from(
        ("raw", "fp-raw", "guard-raw", "load-after-store", "two-controls")
    ))
    if kind == "raw":
        first = draw(st.one_of(_int_op(), _gpr_writer()))
        return first, draw(st.one_of(
            _int_op(src1=first.dest), _compare_op(src1=first.dest)
        ))
    if kind == "fp-raw":
        first = draw(_fp_op())
        return first, draw(_fp_op(src1=first.dest))
    if kind == "guard-raw":
        first = draw(_compare_op(min_pred=1))
        return first, draw(st.one_of(
            _int_op(guard=first.dest), _fp_op(guard=first.dest),
            _control_op(guard=first.dest),
        ))
    if kind == "load-after-store":
        return draw(_store_op()), draw(
            _gpr_writer().filter(lambda op: op.opcode is Opcode.LD)
        )
    return draw(_control_op()), draw(_control_op())


@st.composite
def _hazardous_group(draw):
    """A 2-4 op MultiOp that ``needs_buffered_execution``."""
    ops = list(draw(_hazard_pair()))
    memory_left = MEMORY_UNITS - sum(op.opcode.is_memory for op in ops)
    for filler in draw(st.lists(_filler_op, max_size=2)):
        if filler.opcode.is_memory:
            if not memory_left:
                continue
            memory_left -= 1
        ops.insert(
            draw(st.integers(min_value=0, max_value=len(ops))), filler
        )
    return MultiOp.of(ops)


@st.composite
def _hazard_programs(draw):
    """Block 0 holds the groups and falls through to a HALT block."""
    groups = draw(st.lists(_hazardous_group(), min_size=1, max_size=3))
    if draw(st.booleans()):
        # A hazard-free, fault-free group, so one block mixes the
        # kernel's static opcode counts with hazardous groups.
        safe = MultiOp.of([
            Operation(Opcode.ADD, dest=gpr(1), src1=gpr(2), src2=gpr(3)),
            Operation(Opcode.FMOV, dest=fpr(1), src1=fpr(2),
                      predicate=draw(_guard)),
        ])
        groups.insert(
            draw(st.integers(min_value=0, max_value=len(groups))), safe
        )
    image = ProgramImage("hazards", [
        BasicBlockImage(0, "groups", tuple(groups), fallthrough=1),
        BasicBlockImage(1, "done", (MultiOp.of([Operation(Opcode.HALT)]),)),
    ])
    state = (
        draw(st.lists(_gpr_value, min_size=_NREGS, max_size=_NREGS)),
        draw(st.lists(_fpr_value, min_size=_NREGS, max_size=_NREGS)),
        draw(st.lists(st.booleans(), min_size=4, max_size=4)),
    )
    return image, state


def _hazard_outcome(runner, image, state):
    """The run's fingerprint and histogram, or its error type and text."""
    gprs, fprs, preds = state
    machine = Machine()
    machine.gpr[:_NREGS] = gprs
    machine.fpr[:_NREGS] = fprs
    machine.pr[1:5] = preds
    try:
        result = runner(image, max_mops=40, machine=machine)
    except (EmulationError, ArithmeticError, ValueError) as exc:
        return type(exc), str(exc)
    return result.fingerprint(), result.opcode_counts


@given(_hazard_programs())
@settings(max_examples=300, deadline=None)
def test_hazardous_groups_match_reference(program):
    """Groups with RAW, guard-RAW, load-after-store or two control
    transfers (plus predicated-off ops, zero divisors and FP ops) give
    the reference's fingerprint, or raise its error type and message."""
    image, state = program
    mops = image.block(0).mops
    hazardous = [mop for mop in mops if needs_buffered_execution(mop.ops)]
    assert len(hazardous) >= len(mops) - 1
    assert all(2 <= len(mop) <= 4 for mop in hazardous)
    assert _hazard_outcome(run_image_kernel, image, state) == (
        _hazard_outcome(run_image, image, state)
    )


# -------------------------------- faulting hazard-free groups (hypothesis)
#: Values that make ops fault: bad or misaligned addresses, zero
#: divisors (from ``_gpr_value``), and FP values ``int()`` rejects.
_fault_gpr_value = st.one_of(
    _gpr_value, st.sampled_from([-4, 258, 1 << 19, (1 << 19) - 2])
)
_fault_fpr_value = st.one_of(
    _fpr_value, st.sampled_from([math.inf, -math.inf, math.nan])
)
_f2i_op = st.builds(
    lambda d, s, guard: Operation(
        Opcode.F2I, dest=gpr(d), src1=fpr(s), predicate=guard
    ),
    _reg, _reg, _guard,
)
_div_op = st.builds(
    lambda opcode, d, a, b, guard: Operation(
        opcode, dest=gpr(d), src1=gpr(a), src2=gpr(b), predicate=guard
    ),
    st.sampled_from((Opcode.DIV, Opcode.MOD)), _reg, _reg, _reg, _guard,
)
_fault_op = st.one_of(_filler_op, _f2i_op, _div_op, _store_op())


@st.composite
def _hazard_free_group(draw):
    """A 1-4 op MultiOp the kernel runs as generated statements.

    Drawn ops that would make the group hazardous, or overflow the
    memory units, are dropped in order.
    """
    ops, memory = [], 0
    for op in draw(st.lists(_fault_op, min_size=1, max_size=6)):
        if len(ops) == 4:
            break
        if op.opcode.is_memory and memory == MEMORY_UNITS:
            continue
        if needs_buffered_execution(ops + [op]):
            continue
        ops.append(op)
        memory += op.opcode.is_memory
    return MultiOp.of(ops)


@st.composite
def _faulting_programs(draw):
    """Block 0 holds hazard-free groups and falls through to HALT."""
    groups = draw(st.lists(_hazard_free_group(), min_size=1, max_size=3))
    image = ProgramImage("faults", [
        BasicBlockImage(0, "groups", tuple(groups), fallthrough=1),
        BasicBlockImage(1, "done", (MultiOp.of([Operation(Opcode.HALT)]),)),
    ])
    state = (
        draw(st.lists(_fault_gpr_value, min_size=_NREGS, max_size=_NREGS)),
        draw(st.lists(_fault_fpr_value, min_size=_NREGS, max_size=_NREGS)),
        draw(st.lists(st.booleans(), min_size=4, max_size=4)),
    )
    return image, state


def _fault_outcome(runner, image, state):
    """The run's fingerprint and histogram, or its error and machine."""
    gprs, fprs, preds = state
    machine = Machine()
    machine.gpr[:_NREGS] = gprs
    machine.fpr[:_NREGS] = fprs
    machine.pr[1:5] = preds
    try:
        result = runner(image, max_mops=40, machine=machine)
    except (EmulationError, ArithmeticError, ValueError) as exc:
        return type(exc), str(exc), machine.state_digest()
    return result.fingerprint(), result.opcode_counts


@given(_faulting_programs())
@settings(max_examples=300, deadline=None)
def test_faulting_hazard_free_groups_match_reference(program):
    """Hazard-free groups whose ops fault (bad or misaligned addresses,
    zero divisors, ``int()`` of an infinity or NaN, a store before a
    later fault) raise the reference's error type and message, from
    the reference's machine state, or give its fingerprint."""
    image, state = program
    assert not any(
        needs_buffered_execution(mop.ops) for mop in image.block(0).mops
    )
    assert _fault_outcome(run_image_kernel, image, state) == (
        _fault_outcome(run_image, image, state)
    )
