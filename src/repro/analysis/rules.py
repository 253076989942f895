"""Machine-code verifier rules over laid-out :class:`ProgramImage`\\ s.

Severity policy: structural breakage the emulator or fetch engines
would trip over (bad block wiring, unresolved branch targets, issue
discipline, multiple control transfers per MultiOp) is **error**;
findings the machine tolerates but a clean compiler should never emit
(intra-group RAW, reads of never-assigned registers, unreachable
blocks) are **warning** lint.  ``repro analyze --fail-on warning``
promotes the lint tier.
"""

from __future__ import annotations

from typing import Dict, Iterable, Set, Tuple

from repro.analysis import hazards as hz
from repro.analysis.dataflow import definitely_assigned
from repro.analysis.verifier import RuleContext, rule
from repro.isa.image import BasicBlockImage
from repro.isa.multiop import ISSUE_WIDTH, MEMORY_UNITS
from repro.isa.opcodes import Opcode
from repro.isa.registers import Register, RegisterBank

#: Facts that hold before the first op executes: the stack pointer is
#: initialized by :class:`repro.emulator.machine.Machine` and ``p0`` is
#: hard-wired true.
ENTRY_FACTS = (
    (RegisterBank.GPR, 31),
    (RegisterBank.PRED, 0),
)


def _fact(reg: Register) -> Tuple[RegisterBank, int]:
    return (reg.bank, reg.index)


def _block_assigns(
    image,
) -> Dict[int, Set[Tuple[RegisterBank, int]]]:
    return {
        block.block_id: {
            _fact(reg) for op in block.ops for reg in op.writes
        }
        for block in image
    }


def _assigned_before(ctx: RuleContext):
    """Per-block definitely-assigned-at-entry facts, plus reachability."""
    result = definitely_assigned(
        ctx.graph.successors,
        ctx.image.entry_block,
        _block_assigns(ctx.image),
        seed=ENTRY_FACTS,
    )
    return result.before


@rule(
    "block-structure",
    kind="machine",
    description=(
        "block ids match layout order, control transfers sit in the "
        "final MultiOp, and fallthrough links agree with the terminator"
    ),
)
def _block_structure(ctx: RuleContext) -> None:
    n = len(ctx.image)
    for index, block in enumerate(ctx.image):
        ctx.checked()
        if block.block_id != index:
            ctx.error(
                f"block id {block.block_id} does not match layout "
                f"index {index}",
                block=block,
                hint="re-run layout; ids must equal layout positions",
            )
        offset = 0
        for mop_index, mop in enumerate(block.mops[:-1]):
            for pos, op in enumerate(mop):
                if op.is_control_transfer:
                    ctx.error(
                        f"{op.opcode.name} appears in MultiOp "
                        f"{mop_index}, before the final "
                        "group of the block",
                        block=block,
                        op_index=offset + pos,
                        hint=(
                            "control transfers must terminate their "
                            "block; the scheduler should have split here"
                        ),
                    )
            offset += len(mop)
        term = block.terminator
        needs_fallthrough = (
            term is None
            or term.opcode is Opcode.CALL
            or (term.opcode is Opcode.BR and term.guard is not None)
        )
        if needs_fallthrough and block.fallthrough is None:
            kind = "no terminator" if term is None else term.opcode.name
            ctx.error(
                f"block can fall through ({kind}) but records no "
                "fallthrough successor",
                block=block,
                hint="the assembler must link the textually-next block",
            )
        if block.fallthrough is not None:
            if not needs_fallthrough:
                ctx.warning(
                    f"fallthrough {block.fallthrough} is unreachable "
                    f"past terminator {term.opcode.name}",
                    block=block,
                    hint="drop the stale fallthrough link",
                )
            if block.fallthrough != index + 1 or block.fallthrough >= n:
                ctx.error(
                    f"fallthrough {block.fallthrough} is not the "
                    f"textually-next block {index + 1}",
                    block=block,
                    hint="fallthrough must name the next layout block",
                )


@rule(
    "branch-target",
    kind="machine",
    description=(
        "every BR resolves to a block of the same function and every "
        "CALL to a function entry block"
    ),
)
def _branch_target(ctx: RuleContext) -> None:
    image = ctx.image
    n = len(image)
    entry_ids = set(ctx.graph.entries.values())
    for block in image:
        for op_index, op in enumerate(block.ops):
            if op.opcode not in (Opcode.BR, Opcode.CALL):
                continue
            ctx.checked()
            target = op.target_block
            if target is None or not 0 <= target < n:
                ctx.error(
                    f"{op.opcode.name} target {target!r} is not a "
                    f"block id (image has {n} blocks)",
                    block=block,
                    op_index=op_index,
                    hint="branch targets must name laid-out blocks",
                )
                continue
            target_block = image.blocks[target]
            if (
                op.opcode is Opcode.BR
                and target_block.function != block.function
            ):
                ctx.error(
                    f"BR escapes {block.function!r} into "
                    f"{target_block.function!r} (block {target})",
                    block=block,
                    op_index=op_index,
                    hint="cross-function transfers must use CALL",
                )
            elif (
                op.opcode is Opcode.CALL
                and target not in entry_ids
            ):
                ctx.error(
                    f"CALL target {target} ({target_block.label!r}) "
                    "is not a function entry block",
                    block=block,
                    op_index=op_index,
                    hint="calls must land on the callee's first block",
                )


@rule(
    "multiop-discipline",
    kind="machine",
    description=(
        "every MultiOp respects issue width, memory-unit count, and "
        "tail-bit placement"
    ),
)
def _multiop_discipline(ctx: RuleContext) -> None:
    for block in ctx.image:
        offset = 0
        for mop in block.mops:
            ctx.checked()
            ops = mop.ops
            if len(ops) > ISSUE_WIDTH:
                ctx.error(
                    f"MultiOp issues {len(ops)} ops, machine width "
                    f"is {ISSUE_WIDTH}",
                    block=block,
                    op_index=offset,
                    hint="the scheduler must split this group",
                )
            n_mem = sum(1 for op in ops if op.opcode.is_memory)
            if n_mem > MEMORY_UNITS:
                ctx.error(
                    f"MultiOp uses {n_mem} memory ops, machine has "
                    f"{MEMORY_UNITS} memory units",
                    block=block,
                    op_index=offset,
                    hint="at most two LD/ST per group",
                )
            for pos, op in enumerate(ops):
                expected_tail = pos == len(ops) - 1
                if op.tail != expected_tail:
                    ctx.error(
                        f"op {pos} of the group has tail="
                        f"{op.tail}, expected {expected_tail}",
                        block=block,
                        op_index=offset + pos,
                        hint=(
                            "exactly the last op of a MultiOp carries "
                            "the tail bit; decoders key on it"
                        ),
                    )
            offset += len(ops)


@rule(
    "vliw-hazard",
    kind="machine",
    description=(
        "no MultiOp packs more than one control transfer (error) or "
        "intra-group RAW / load-after-store conflicts (lint)"
    ),
)
def _vliw_hazard(ctx: RuleContext) -> None:
    for block in ctx.image:
        offset = 0
        for mop in block.mops:
            ctx.checked()
            for hazard in hz.classify_hazards(mop.ops):
                emit = (
                    ctx.error
                    if hazard.kind == hz.MULTI_CONTROL
                    else ctx.warning
                )
                emit(
                    hazard.describe(),
                    block=block,
                    op_index=offset + hazard.later,
                    hint=(
                        "read-all-then-write-all semantics make this "
                        "group depend on buffered execution; the "
                        "scheduler normally keeps groups conflict-free"
                    ),
                )
            offset += len(mop)


@rule(
    "reg-def-before-use",
    kind="machine",
    description=(
        "every register read is preceded by an assignment on all "
        "paths from program entry"
    ),
)
def _reg_def_before_use(ctx: RuleContext) -> None:
    before = _assigned_before(ctx)
    for block in ctx.image:
        if block.block_id not in ctx.graph.reachable_without_returns:
            continue  # unreachable-block lint owns these
        defined = set(before[block.block_id])
        offset = 0
        for mop in block.mops:
            # Read-all-then-write-all: the whole group reads the
            # pre-group register state.
            for pos, op in enumerate(mop):
                for reg in op.reads:
                    ctx.checked()
                    if _fact(reg) not in defined:
                        ctx.warning(
                            f"{op.opcode.name} reads {reg} which is "
                            "not assigned on every path from entry",
                            block=block,
                            op_index=offset + pos,
                            hint=(
                                "initialize the register or prove the "
                                "guarding predicate excludes this path"
                            ),
                        )
            for op in mop:
                for reg in op.writes:
                    defined.add(_fact(reg))
            offset += len(mop)


@rule(
    "predicate-guard",
    kind="machine",
    description=(
        "every predicate guard refers to a predicate register some "
        "compare defines on all paths"
    ),
)
def _predicate_guard(ctx: RuleContext) -> None:
    before = _assigned_before(ctx)
    for block in ctx.image:
        if block.block_id not in ctx.graph.reachable_without_returns:
            continue
        defined = set(before[block.block_id])
        offset = 0
        for mop in block.mops:
            for pos, op in enumerate(mop):
                guard = op.guard
                if guard is None:
                    continue
                ctx.checked()
                if _fact(guard) not in defined:
                    ctx.warning(
                        f"{op.opcode.name} is guarded by {guard} "
                        "which no compare defines on every path",
                        block=block,
                        op_index=offset + pos,
                        hint=(
                            "an undefined guard silently predicates "
                            "on the power-on value"
                        ),
                    )
            for op in mop:
                for reg in op.writes:
                    defined.add(_fact(reg))
            offset += len(mop)


@rule(
    "unreachable-block",
    kind="machine",
    description="every block is reachable from the program entry",
)
def _unreachable_block(ctx: RuleContext) -> None:
    for block in ctx.image:
        ctx.checked()
        if block.block_id not in ctx.graph.reachable_without_returns:
            ctx.warning(
                "block is unreachable from the entry block "
                f"{ctx.image.entry_block}",
                block=block,
                hint=(
                    "dead code inflates every compression dictionary; "
                    "drop the block or fix the branch that should "
                    "reach it"
                ),
            )


@rule(
    "op-roundtrip",
    kind="machine",
    description=(
        "every op survives a baseline 40-bit encode/decode round trip"
    ),
)
def _op_roundtrip(ctx: RuleContext) -> None:
    from repro.isa.operation import Operation

    for block in ctx.image:
        for op_index, op in enumerate(block.ops):
            ctx.checked()
            try:
                word = op.encode()
                decoded = Operation.decode(word)
            except Exception as exc:  # report, never crash the run
                ctx.error(
                    f"{op.opcode.name} failed to round-trip through "
                    f"the baseline encoding: {exc}",
                    block=block,
                    op_index=op_index,
                    hint="op carries a value its format cannot encode",
                )
                continue
            if decoded != op:
                ctx.error(
                    f"{op.opcode.name} decodes to a different op "
                    f"({decoded})",
                    block=block,
                    op_index=op_index,
                    hint=(
                        "a field is lost or aliased by the Table 2 "
                        "format; encode() and decode() disagree"
                    ),
                )
