"""Shared intra-MultiOp hazard analysis: units plus the pinning
regression required by the kernel refactor.

``_legacy_has_hazard``/``_legacy_needs_buffered`` below are verbatim
copies of the logic that used to live inline in
``repro.emulator.kernel`` — the pinning test holds the extracted
:mod:`repro.analysis.hazards` to identical classifications over every
MultiOp of the full benchmark suite, so the kernel's buffered-vs-direct
dispatch provably did not change.
"""

from __future__ import annotations

import pytest

from repro.analysis.hazards import (
    GUARD_RAW,
    LOAD_AFTER_STORE,
    MULTI_CONTROL,
    RAW,
    classify_hazards,
    control_transfer_count,
    has_hazard,
    needs_buffered_execution,
)
from repro.isa.opcodes import Opcode
from repro.isa.operation import Operation
from repro.isa.registers import fpr, gpr, pred
from repro.programs.suite import BENCHMARK_NAMES, compile_benchmark

_SCALE = 2


# ---------------------------------------------------- the pinned legacy
def _legacy_has_hazard(ops) -> bool:
    """Verbatim pre-extraction kernel logic (do not modernize)."""
    written: set = set()
    store_seen = False
    for op in ops:
        if op.opcode is Opcode.LD and store_seen:
            return True
        guard = op.guard
        if guard is not None and (guard.bank, guard.index) in written:
            return True
        for reg in op.reads:
            if (reg.bank, reg.index) in written:
                return True
        if op.dest is not None:
            written.add((op.dest.bank, op.dest.index))
        if op.opcode is Opcode.ST:
            store_seen = True
    return False


def _legacy_needs_buffered(ops) -> bool:
    n_control = sum(1 for op in ops if op.opcode.is_branch)
    return n_control > 1 or _legacy_has_hazard(ops)


@pytest.mark.parametrize("bench_name", BENCHMARK_NAMES)
def test_shared_hazards_pin_legacy_kernel_classification(bench_name):
    compiled = compile_benchmark(bench_name, _SCALE)
    groups = 0
    for block in compiled.image:
        for mop in block.mops:
            groups += 1
            ops = mop.ops
            assert has_hazard(ops) == _legacy_has_hazard(ops)
            assert needs_buffered_execution(ops) == (
                _legacy_needs_buffered(ops)
            )
            # classify_hazards is the exhaustive form of the boolean:
            # a non-control hazard exists iff has_hazard says so.
            kinds = [h.kind for h in classify_hazards(ops)]
            assert has_hazard(ops) == any(
                k != MULTI_CONTROL for k in kinds
            )
            assert (control_transfer_count(ops) > 1) == (
                MULTI_CONTROL in kinds
            )
    assert groups > 0


@pytest.mark.parametrize("bench_name", BENCHMARK_NAMES)
def test_suite_schedules_carry_no_intra_group_hazard(bench_name):
    """The scheduler never packs a reader with its writer, so no suite
    MultiOp, at scale 2 or at the default scale, runs the emulator
    kernel's reference path for hazardous groups."""
    for scale in (_SCALE, None):
        image = compile_benchmark(bench_name, scale).image
        hazardous = [
            str(mop)
            for block in image
            for mop in block.mops
            if needs_buffered_execution(mop.ops)
        ]
        assert hazardous == [], f"{bench_name}@{scale}"


# ------------------------------------------------------------------ units
def test_raw_within_group_is_a_hazard():
    ops = (
        Operation(Opcode.ADD, dest=gpr(1), src1=gpr(2), src2=gpr(3)),
        Operation(Opcode.ADD, dest=gpr(4), src1=gpr(1), src2=gpr(5)),
    )
    assert has_hazard(ops)
    (hazard,) = classify_hazards(ops)
    assert hazard.kind == RAW
    assert (hazard.earlier, hazard.later) == (0, 1)
    assert "r1" in hazard.what


def test_war_and_waw_are_not_hazards():
    # Read-then-write of the same register (WAR) and two writes (WAW)
    # never make in-order execution diverge: reads happen up front.
    war = (
        Operation(Opcode.ADD, dest=gpr(4), src1=gpr(1), src2=gpr(2)),
        Operation(Opcode.ADD, dest=gpr(1), src1=gpr(2), src2=gpr(3)),
    )
    waw = (
        Operation(Opcode.LDI, dest=gpr(7), imm=1),
        Operation(Opcode.LDI, dest=gpr(7), imm=2),
    )
    assert not has_hazard(war)
    assert not has_hazard(waw)
    assert classify_hazards(war) == ()
    assert classify_hazards(waw) == ()


def test_guard_written_in_group_is_a_hazard():
    ops = (
        Operation(Opcode.CMPP_LT, dest=pred(1), src1=gpr(1), src2=gpr(2)),
        Operation(
            Opcode.ADD,
            dest=gpr(3),
            src1=gpr(4),
            src2=gpr(5),
            predicate=pred(1),
        ),
    )
    assert has_hazard(ops)
    (hazard,) = classify_hazards(ops)
    assert hazard.kind == GUARD_RAW


def test_p0_guard_is_never_a_hazard():
    # p0 is hard-wired true; a compare "writing" it cannot change any
    # later op's guard.
    ops = (
        Operation(Opcode.CMPP_LT, dest=pred(0), src1=gpr(1), src2=gpr(2)),
        Operation(
            Opcode.ADD,
            dest=gpr(3),
            src1=gpr(4),
            src2=gpr(5),
            predicate=pred(0),
        ),
    )
    assert not has_hazard(ops)


def test_load_after_store_is_a_hazard_but_not_the_reverse():
    st_then_ld = (
        Operation(Opcode.ST, src1=gpr(1), src2=gpr(2)),
        Operation(Opcode.LD, dest=gpr(3), src1=gpr(4)),
    )
    ld_then_st = (
        Operation(Opcode.LD, dest=gpr(3), src1=gpr(4)),
        Operation(Opcode.ST, src1=gpr(1), src2=gpr(2)),
    )
    assert has_hazard(st_then_ld)
    (hazard,) = classify_hazards(st_then_ld)
    assert hazard.kind == LOAD_AFTER_STORE
    assert not has_hazard(ld_then_st)


def test_multiple_control_transfers_need_buffering_without_hazard():
    ops = (
        Operation(Opcode.BR, target_block=1),
        Operation(Opcode.BR, target_block=2, predicate=pred(1)),
    )
    assert not has_hazard(ops)
    assert control_transfer_count(ops) == 2
    assert needs_buffered_execution(ops)
    (hazard,) = classify_hazards(ops)
    assert hazard.kind == MULTI_CONTROL


def test_classifier_reports_every_conflict_in_scan_order():
    ops = (
        Operation(Opcode.ST, src1=gpr(1), src2=gpr(2)),
        Operation(Opcode.LDI, dest=gpr(5), imm=7),
        Operation(Opcode.LD, dest=gpr(6), src1=gpr(5)),
    )
    kinds = [h.kind for h in classify_hazards(ops)]
    assert kinds == [LOAD_AFTER_STORE, RAW]
    descriptions = [h.describe() for h in classify_hazards(ops)]
    assert any("loads after the store" in d for d in descriptions)


def test_fpr_and_gpr_banks_do_not_alias():
    ops = (
        Operation(Opcode.FADD, dest=fpr(1), src1=fpr(2), src2=fpr(3)),
        Operation(Opcode.ADD, dest=gpr(1), src1=gpr(2), src2=gpr(3)),
    )
    assert not has_hazard(ops)
