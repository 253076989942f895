"""Treegion hoisting against its set-based reference.

The reference below is the hoisting loop as it was before liveness
moved onto :func:`repro.analysis.dataflow.solve_masks`: before every
treegion edge it re-solves physical-register liveness from scratch, by
a round-robin fixed point over ``set``s of :class:`Register`.  For
every function of every suite benchmark (scales 1 and 2) and of the
recursive call program, :func:`hoist_into_parents` must hoist as many
ops as the reference and leave the same machine code: opcode,
operands, predicate and speculative bit of every op, block by block.
"""

from __future__ import annotations

import copy

import pytest

from repro.compiler.lower import lower_module
from repro.compiler.machine import MBlock, MFunction, MInstr, MModule
from repro.compiler.passes import optimize
from repro.compiler.regalloc import allocate_registers
from repro.compiler.treegion import (
    MAX_HOIST_PER_EDGE,
    _hoistable,
    _successors,
    form_treegions,
    hoist_into_parents,
)
from repro.isa.opcodes import Opcode
from repro.isa.registers import Register, TRUE_PREDICATE, gpr, pred
from repro.programs.suite import SUITE
from tests.conftest import build_call_module


# ------------------------------------------------------------ reference
def _minstr_reads(instr: MInstr) -> set[Register]:
    regs = {r for r in (instr.src1, instr.src2) if r is not None}
    if instr.predicate != TRUE_PREDICATE:
        regs.add(instr.predicate)
        if instr.dest is not None:
            regs.add(instr.dest)
    return regs


def _machine_liveness(func: MFunction) -> dict[str, set[Register]]:
    """Per-block live-in sets of physical registers."""
    succ = _successors(func)
    use: dict[str, set[Register]] = {}
    deff: dict[str, set[Register]] = {}
    for block in func.blocks:
        upward: set[Register] = set()
        killed: set[Register] = set()
        for instr in block.instrs:
            for reg in _minstr_reads(instr):
                if reg not in killed:
                    upward.add(reg)
            if instr.predicate == TRUE_PREDICATE:
                killed.update(instr.writes())
        use[block.label] = upward
        deff[block.label] = killed
    live_in = {b.label: set() for b in func.blocks}
    changed = True
    while changed:
        changed = False
        for block in reversed(func.blocks):
            label = block.label
            out: set[Register] = set()
            for s in succ[label]:
                out |= live_in[s]
            new_in = use[label] | (out - deff[label])
            if new_in != live_in[label]:
                live_in[label] = new_in
                changed = True
    return live_in


def _back_edge_heads(func: MFunction) -> set[tuple[str, str]]:
    index = {b.label: i for i, b in enumerate(func.blocks)}
    back = set()
    for u, targets in _successors(func).items():
        for v in targets:
            if index[v] <= index[u]:
                back.add((u, v))
    return back


def _hoist_prefix(
    parent: MBlock,
    child: MBlock,
    succ: dict[str, list[str]],
    live_in: dict[str, set[Register]],
    child_label: str,
) -> int:
    other_live: set[Register] = set()
    for other in succ[parent.label]:
        if other != child_label:
            other_live |= live_in[other]
    term = parent.terminator
    term_reads = _minstr_reads(term) if term is not None else set()
    moved = 0
    while moved < MAX_HOIST_PER_EDGE and child.instrs:
        op = child.instrs[0]
        if not _hoistable(op):
            break
        if op.dest in other_live or op.dest in term_reads:
            break
        if len(child.instrs) == 1:
            break
        child.instrs.pop(0)
        op.speculative = True
        insert_at = len(parent.instrs)
        if term is not None:
            insert_at -= 1
        parent.instrs.insert(insert_at, op)
        moved += 1
    return moved


def _reference_hoist(func: MFunction) -> int:
    succ = _successors(func)
    back = _back_edge_heads(func)
    by_label = {b.label: b for b in func.blocks}
    hoisted_total = 0
    for region in form_treegions(func):
        for child_label in region.blocks:
            parent_label = region.parent.get(child_label)
            if parent_label is None:
                continue
            if (parent_label, child_label) in back:
                continue
            live_in = _machine_liveness(func)
            hoisted_total += _hoist_prefix(
                by_label[parent_label],
                by_label[child_label],
                succ,
                live_in,
                child_label,
            )
    return hoisted_total


# ------------------------------------------------------------- the check
def _lowered(module) -> MModule:
    """The compile pipeline up to (not including) hoisting."""
    module.validate()
    optimize(module)
    for func in module.functions.values():
        allocate_registers(func)
    return lower_module(module)


def _code(func: MFunction) -> list:
    return [
        (
            block.label,
            [
                (
                    i.opcode, i.dest, i.src1, i.src2, i.imm, i.predicate,
                    i.bhwx, i.target_label, i.target_function,
                    i.speculative,
                )
                for i in block.instrs
            ],
        )
        for block in func.blocks
    ]


CASES = [(name, scale) for name in SUITE for scale in (1, 2)]


def _assert_matches_reference(mmodule: MModule) -> int:
    reference = copy.deepcopy(mmodule)
    total = 0
    for func, ref in zip(mmodule.functions, reference.functions):
        moved = hoist_into_parents(func, form_treegions(func))
        assert moved == _reference_hoist(ref), func.name
        assert _code(func) == _code(ref), func.name
        total += moved
    return total


@pytest.mark.parametrize(
    "name,scale", CASES, ids=[f"{n}@{s}" for n, s in CASES]
)
def test_suite_hoisting_matches_set_reference(name, scale):
    mmodule = _lowered(SUITE[name].build(scale))
    assert _assert_matches_reference(mmodule) > 0


def test_call_module_hoisting_matches_set_reference():
    module, _ = build_call_module("oracle")
    _assert_matches_reference(_lowered(module))


@pytest.mark.parametrize(
    "written,expected",
    [(pred(1), 0), (pred(2), 2)],
    ids=["branch-predicate", "other-predicate"],
)
def test_hoist_keeps_the_parent_branch_predicate(written, expected):
    """No suite program needs the terminator-read guard, so this one
    does: the child's first op writes the predicate the parent's
    branch reads (nothing moves) or another one (two ops move)."""

    def build():
        r1, r2, r3, r4 = (gpr(i) for i in range(1, 5))
        entry = MBlock("entry", [
            MInstr(Opcode.CMPP_LT, dest=pred(1), src1=r1, src2=r2),
            MInstr(Opcode.BR, predicate=pred(1), target_label="out"),
        ])
        child = MBlock("child", [
            MInstr(Opcode.CMPP_EQ, dest=written, src1=r2, src2=r3),
            MInstr(Opcode.ADD, dest=r4, src1=r1, src2=r2),
            MInstr(Opcode.HALT),
        ])
        out = MBlock("out", [MInstr(Opcode.HALT)])
        return MFunction("f", 0, [entry, child, out])

    func, ref = build(), build()
    assert hoist_into_parents(func, form_treegions(func)) == expected
    assert _reference_hoist(ref) == expected
    assert _code(func) == _code(ref)
