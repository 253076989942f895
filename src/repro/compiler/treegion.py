"""Treegion formation and treegion-scoped speculative hoisting.

A *treegion* (Havanki/Banerjia/Conte) is a single-entry tree of basic
blocks: every block except the root has exactly one predecessor, which is
also in the tree, and tree edges are forward (no back edges).  The paper's
LEGO compiler schedules treegions globally and then decomposes them back
into basic blocks; here treegions are formed on the machine CFG and used
for a conservative upward code motion: ALU ops from the head of a
single-predecessor child may move into their parent block when the
destination is dead on the parent's other paths.  Hoisted ops are marked
speculative (the ``S`` bit of the TEPIC encoding).

Hoisting asks which registers are live into the parent's other
successors.  Physical registers are numbered once, by bank and index,
into int bitmasks, and liveness is solved by the same fixed-point loop
every other analysis uses (:func:`repro.analysis.dataflow.solve_masks`).
After a hoist that moved ops, only the parent's and the child's
use/def masks are recomputed, and liveness is solved again from the
empty bottom.  A hoist can *shrink* liveness (the child may stop
reading an operand), and a solve seeded from the previous solution
could then stop at a larger, non-least fixed point around a loop and
change later hoisting decisions.

The motion is deliberately conservative — correctness is checked by
differential tests (emulator output with hoisting on vs. off) and by a
set-based reference of the hoisting loop (``test_treegion_oracle.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.dataflow import predecessors, solve_masks
from repro.compiler.machine import MBlock, MFunction, MInstr
from repro.isa.opcodes import Opcode, OpType
from repro.isa.registers import (
    NUM_FPR,
    NUM_GPR,
    Register,
    RegisterBank,
    TRUE_PREDICATE,
)

#: Most ops movable per parent/child pair (one issue packet's worth).
MAX_HOIST_PER_EDGE = 6


def _successors(func: MFunction) -> dict[str, list[str]]:
    labels = [b.label for b in func.blocks]
    succ: dict[str, list[str]] = {}
    for i, block in enumerate(func.blocks):
        term = block.terminator
        next_label = labels[i + 1] if i + 1 < len(labels) else None
        if term is None or term.opcode is Opcode.CALL:
            succ[block.label] = [next_label] if next_label else []
        elif term.opcode is Opcode.BR:
            targets = []
            if term.predicate != TRUE_PREDICATE and next_label:
                targets.append(next_label)
            targets.append(term.target_label)
            succ[block.label] = [t for t in targets if t is not None]
        else:  # RET / HALT
            succ[block.label] = []
    return succ


@dataclass
class Treegion:
    """One tree of blocks; ``parent`` maps non-root labels to parents."""

    root: str
    blocks: list[str] = field(default_factory=list)
    parent: dict[str, str] = field(default_factory=dict)

    @property
    def size(self) -> int:
        return len(self.blocks)


def form_treegions(func: MFunction) -> list[Treegion]:
    """Partition the CFG into maximal treegions (greedy, layout order).

    A back edge is an edge (u, v) where v does not come after u in
    layout order.  Layout order is a conservative stand-in for a DFS
    order here: any backward-in-layout edge is treated as a loop back
    edge, which can only make treegions smaller, never incorrect.
    """
    succ = _successors(func)
    preds = predecessors(succ)
    index = {b.label: i for i, b in enumerate(func.blocks)}
    assigned: dict[str, Treegion] = {}
    regions: list[Treegion] = []
    for block in func.blocks:
        label = block.label
        block_preds = preds[label]
        joins_parent = None
        if len(block_preds) == 1:
            parent = block_preds[0]
            # Only a forward edge joins; its parent is already placed.
            if index[parent] < index[label]:
                joins_parent = parent
        if joins_parent is None:
            region = Treegion(root=label, blocks=[label])
            regions.append(region)
            assigned[label] = region
        else:
            region = assigned[joins_parent]
            region.blocks.append(label)
            region.parent[label] = joins_parent
            assigned[label] = region
    return regions


#: Bit offset of each bank in a register mask.
_BANK_SHIFT = {
    RegisterBank.GPR: 0,
    RegisterBank.FPR: NUM_GPR,
    RegisterBank.PRED: NUM_GPR + NUM_FPR,
}


def _bit(reg: Register) -> int:
    return 1 << (_BANK_SHIFT[reg.bank] + reg.index)


def _read_mask(instr: MInstr) -> int:
    """The registers ``instr`` reads; a predicated op also reads its
    destination, whose old value survives when the predicate is false."""
    mask = 0
    for reg in (instr.src1, instr.src2):
        if reg is not None:
            mask |= _bit(reg)
    if instr.predicate != TRUE_PREDICATE:
        mask |= _bit(instr.predicate)
        if instr.dest is not None:
            mask |= _bit(instr.dest)
    return mask


def _block_masks(block: MBlock) -> tuple[int, int]:
    """(upward-exposed reads, definite writes) of ``block``."""
    upward = killed = 0
    for instr in block.instrs:
        upward |= _read_mask(instr) & ~killed
        if instr.predicate == TRUE_PREDICATE and instr.dest is not None:
            killed |= _bit(instr.dest)
    return upward, killed


def _hoistable(instr: MInstr) -> bool:
    if instr.is_control or instr.is_memory:
        return False
    if instr.predicate != TRUE_PREDICATE:
        return False
    if instr.dest is None:
        return False
    # Excepting ops that can trap: division by zero must not be
    # speculated above the guarding branch.
    if instr.opcode in (Opcode.DIV, Opcode.MOD, Opcode.FDIV):
        return False
    return instr.opcode.optype in (OpType.INT, OpType.FLOAT)


def hoist_into_parents(func: MFunction, regions: list[Treegion]) -> int:
    """Move safe child-prefix ops into single-predecessor parents.

    ``regions`` are ``func``'s treegions (:func:`form_treegions`);
    hoisting moves no control op, so they stay valid while it runs.
    Returns the number of hoisted operations.  Must run before
    scheduling.
    """
    succ = _successors(func)
    by_label = {b.label: b for b in func.blocks}
    use: dict[str, int] = {}
    deff: dict[str, int] = {}
    for block in func.blocks:
        use[block.label], deff[block.label] = _block_masks(block)
    live_in = None
    hoisted_total = 0
    for region in regions:
        for child_label in region.blocks:
            parent_label = region.parent.get(child_label)
            if parent_label is None:
                continue
            if live_in is None:
                live_in = solve_masks(
                    succ, gen=use, kill=deff, forward=False
                ).before
            parent = by_label[parent_label]
            child = by_label[child_label]
            moved = _hoist_prefix(parent, child, succ, live_in)
            if moved:
                for block in (parent, child):
                    use[block.label], deff[block.label] = _block_masks(block)
                live_in = None
            hoisted_total += moved
    return hoisted_total


def _hoist_prefix(
    parent: MBlock,
    child: MBlock,
    succ: dict[str, list[str]],
    live_in: dict[str, int],
) -> int:
    # Registers that must stay intact on the parent's *other* paths.
    blocked = 0
    for other in succ[parent.label]:
        if other != child.label:
            blocked |= live_in[other]
    # Registers the parent's terminator reads (the hoisted op lands
    # before the terminator, so it must not clobber its inputs).
    term = parent.terminator
    if term is not None:
        blocked |= _read_mask(term)
    moved = 0
    while moved < MAX_HOIST_PER_EDGE and child.instrs:
        op = child.instrs[0]
        if not _hoistable(op):
            break
        if _bit(op.dest) & blocked:
            break
        if len(child.instrs) == 1:
            break  # never empty a block
        child.instrs.pop(0)
        op.speculative = True
        insert_at = len(parent.instrs)
        if term is not None:
            insert_at -= 1
        parent.instrs.insert(insert_at, op)
        moved += 1
    return moved
