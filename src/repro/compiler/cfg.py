"""Control-flow graph utilities over IR functions.

Blocks live in *layout order*: the textual order the builder emitted them,
which is also the memory order the assembler will use.  A block's
successors are its explicit branch/jump targets plus the fallthrough block
(the next one in layout order) when the terminator permits fallthrough.

Calls are terminators but, for *intra-procedural* analyses (liveness,
treegions), control continues at the fallthrough block, so the CFG edge is
kept; the register allocator separately accounts for the clobbering at
call sites.
"""

from __future__ import annotations

from repro.errors import CompilerError
from repro.compiler.ir import (
    IRBlock,
    IRBranch,
    IRCall,
    IRFunction,
    IRHalt,
    IRJump,
    IRReturn,
)


def successor_labels(func: IRFunction, block: IRBlock, index: int) -> list[str]:
    """Successors of ``block`` (at layout position ``index``)."""
    term = block.terminator
    next_label = (
        func.blocks[index + 1].label if index + 1 < len(func.blocks) else None
    )
    if term is None or isinstance(term, IRCall):
        if next_label is None:
            raise CompilerError(
                f"{func.name}/{block.label}: falls off the end of the "
                "function"
            )
        return [next_label]
    if isinstance(term, IRJump):
        return [term.target]
    if isinstance(term, IRBranch):
        if next_label is None:
            raise CompilerError(
                f"{func.name}/{block.label}: conditional branch at function "
                "end has no fallthrough"
            )
        # Fallthrough first: the not-taken path.
        return [next_label, term.target]
    if isinstance(term, (IRReturn, IRHalt)):
        return []
    raise CompilerError(f"unknown terminator {term!r}")


def build_cfg(func: IRFunction) -> dict[str, list[str]]:
    """``{label: [successor labels]}`` for every block."""
    return {
        block.label: successor_labels(func, block, i)
        for i, block in enumerate(func.blocks)
    }


def predecessors(cfg: dict[str, list[str]]) -> dict[str, list[str]]:
    preds: dict[str, list[str]] = {label: [] for label in cfg}
    for label, succs in cfg.items():
        for succ in succs:
            preds[succ].append(label)
    return preds


def reachable_labels(func: IRFunction) -> set[str]:
    cfg = build_cfg(func)
    entry = func.blocks[0].label
    seen = {entry}
    stack = [entry]
    while stack:
        for succ in cfg[stack.pop()]:
            if succ not in seen:
                seen.add(succ)
                stack.append(succ)
    return seen


def remove_unreachable_blocks(func: IRFunction) -> int:
    """Drop blocks no path reaches; returns how many were removed."""
    keep = reachable_labels(func)
    # Never drop a block that a kept block must fall into: reachability
    # already guarantees that (fallthrough is a CFG edge).
    removed = [b for b in func.blocks if b.label not in keep]
    func.blocks = [b for b in func.blocks if b.label in keep]
    return len(removed)


def remove_empty_blocks(func: IRFunction) -> int:
    """Remove empty fallthrough blocks, redirecting references.

    The builder's auto-labels (after ``jump``/``ret``) and user labels
    stacked on one another leave blocks with no instructions and no
    terminator; they forward to the next block in layout order.
    """
    removed = 0
    changed = True
    while changed:
        changed = False
        for i, block in enumerate(func.blocks):
            if not block.is_empty or i + 1 >= len(func.blocks):
                continue
            if i == 0:
                continue  # keep the entry block stable
            replacement = func.blocks[i + 1].label
            for other in func.blocks:
                term = other.terminator
                if isinstance(term, (IRBranch, IRJump)) and (
                    term.target == block.label
                ):
                    term.target = replacement
            func.blocks.pop(i)
            removed += 1
            changed = True
            break
    return removed


def cleanup(func: IRFunction) -> None:
    """Normalize a function: drop empty and unreachable blocks."""
    remove_empty_blocks(func)
    remove_unreachable_blocks(func)
    if not func.blocks:
        raise CompilerError(f"function {func.name!r} optimized to nothing")
