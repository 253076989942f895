"""Control-flow view of a laid-out :class:`ProgramImage`.

:mod:`repro.compiler.cfg` works on IR functions before layout; the
verifier needs the same graph over the *assembled* image — block ids,
resolved branch targets, recorded fallthroughs, and interprocedural
edges (a CALL reaches both its callee's entry and, eventually, its own
fallthrough continuation; a RET has no static successors).  Analyses
treat the call edge and the continuation edge as ordinary successors,
the same approximation :mod:`repro.compiler.cfg` documents for
intra-procedural liveness.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.isa.image import BasicBlockImage, ProgramImage
from repro.isa.opcodes import Opcode


def block_successors(
    image: ProgramImage, block: BasicBlockImage
) -> List[int]:
    """Static successor block ids, in fetch-preference order.

    Branch/call targets first, the fallthrough continuation last;
    duplicates collapse (a conditional branch targeting its own
    fallthrough contributes one edge).  Out-of-range targets are
    dropped — the branch-target rule reports them; the graph stays
    well-formed for the other analyses either way.
    """
    n = len(image)
    succs: List[int] = []
    for op in block.ops:
        if op.target_block is None:
            continue
        if op.opcode in (Opcode.BR, Opcode.CALL):
            target = op.target_block
            if 0 <= target < n and target not in succs:
                succs.append(target)
    ft = block.fallthrough
    if ft is not None and 0 <= ft < n and ft not in succs:
        succs.append(ft)
    return succs


def image_cfg(image: ProgramImage) -> Dict[int, List[int]]:
    """``{block_id: [successor block ids]}`` over the whole image."""
    return {
        block.block_id: block_successors(image, block) for block in image
    }


def return_continuations(image: ProgramImage) -> Dict[int, List[int]]:
    """``{ret_block_id: [continuation block ids]}`` for every RET block.

    A RET in function ``f`` may resume at the fallthrough continuation
    of *any* call site whose target lies in ``f`` — the static
    over-approximation of the return stack.  Used to close the image CFG
    over procedure boundaries: a graph missing these edges under-counts
    paths, which would make must/may cache facts unsound.
    """
    n = len(image)
    # Function owning each possible callee-entry block.
    owner = {block.block_id: block.function for block in image}
    # function name -> continuation blocks of calls into it.
    continuations: Dict[str, List[int]] = {}
    for block in image:
        for op in block.ops:
            if op.opcode is not Opcode.CALL or op.target_block is None:
                continue
            target = op.target_block
            ft = block.fallthrough
            if not (0 <= target < n) or ft is None or not (0 <= ft < n):
                continue
            conts = continuations.setdefault(owner[target], [])
            if ft not in conts:
                conts.append(ft)
    result: Dict[int, List[int]] = {}
    for block in image:
        if any(op.opcode is Opcode.RET for op in block.ops):
            result[block.block_id] = list(
                continuations.get(block.function, ())
            )
    return result


def interprocedural_cfg(image: ProgramImage) -> Dict[int, List[int]]:
    """:func:`image_cfg` closed with RET-continuation edges.

    Every dynamically feasible block transition is an edge of this
    graph (machine-checked by the ``static-trace-edges`` invariant), so
    forward dataflow over it is sound for the static frequency and
    cache-bound analyses.

    One walk over each block's MultiOps collects its branch and call
    targets, its call continuations and whether it returns; keys and
    successors come out in the order :func:`image_cfg` followed by
    :func:`return_continuations`' edges would give them.
    """
    # Enum members read as locals: ``Opcode.RET`` is a descriptor call.
    br, call, ret = Opcode.BR, Opcode.CALL, Opcode.RET
    n = len(image)
    cfg: Dict[int, List[int]] = {}
    calls: List[Tuple[int, int]] = []  # (callee block, continuation)
    returns: List[BasicBlockImage] = []
    for block in image:
        ft = block.fallthrough
        if ft is not None and not 0 <= ft < n:
            ft = None
        succs: List[int] = []
        returns_here = False
        for mop in block.mops:
            for op in mop.ops:
                opcode = op.opcode
                if opcode is ret:
                    returns_here = True
                elif opcode is br or opcode is call:
                    target = op.target_block
                    if target is None or not 0 <= target < n:
                        continue
                    if target not in succs:
                        succs.append(target)
                    if opcode is call and ft is not None:
                        calls.append((target, ft))
        if ft is not None and ft not in succs:
            succs.append(ft)
        cfg[block.block_id] = succs
        if returns_here:
            returns.append(block)
    owner = {block.block_id: block.function for block in image}
    continuations: Dict[str, List[int]] = {}
    for target, ft in calls:
        conts = continuations.setdefault(owner[target], [])
        if ft not in conts:
            conts.append(ft)
    for block in returns:
        succs = cfg[block.block_id]
        for cont in continuations.get(block.function, ()):
            if cont not in succs:
                succs.append(cont)
    return cfg


def function_entries(image: ProgramImage) -> Dict[str, int]:
    """First (entry) block id of each function, in layout order."""
    entries: Dict[str, int] = {}
    for block in image:
        if block.function not in entries:
            entries[block.function] = block.block_id
    return entries


__all__ = [
    "block_successors",
    "function_entries",
    "image_cfg",
    "interprocedural_cfg",
    "return_continuations",
]
