"""Backward liveness dataflow over virtual registers.

Used by the register allocator (live-interval construction).  Treegion
hoisting solves physical-register liveness with the same solver, on
register bitmasks (:mod:`repro.compiler.treegion`).

Predicated ops are conditional writes, so a predicated destination is
*not* treated as a kill — the old value may survive.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.dataflow import live_variables
from repro.compiler.cfg import build_cfg
from repro.compiler.ir import IRFunction, IRInstr, IROp, VReg


def instr_uses(instr: IRInstr) -> tuple[VReg, ...]:
    return tuple(r for r in instr.reads() if isinstance(r, VReg))


def instr_defs(instr: IRInstr) -> tuple[VReg, ...]:
    return tuple(r for r in instr.writes() if isinstance(r, VReg))


def instr_kills(instr: IRInstr) -> tuple[VReg, ...]:
    """Definitely-overwritten registers (predicated writes don't kill)."""
    if isinstance(instr, IROp) and instr.predicate is not None:
        return ()
    return instr_defs(instr)


@dataclass
class LivenessResult:
    """Per-block live-in/live-out sets of virtual registers."""

    live_in: dict[str, set[VReg]]
    live_out: dict[str, set[VReg]]


def analyze_liveness(func: IRFunction) -> LivenessResult:
    """Backward may-liveness via the shared worklist solver.

    The per-block transfer sets (upward-exposed uses, definite kills)
    stay here; the fixed-point iteration lives in
    :func:`repro.analysis.dataflow.live_variables`.
    """
    cfg = build_cfg(func)
    use: dict[str, set[VReg]] = {}
    deff: dict[str, set[VReg]] = {}
    for block in func.blocks:
        upward: set[VReg] = set()
        killed: set[VReg] = set()
        for instr in block.all_instrs():
            for r in instr_uses(instr):
                if r not in killed:
                    upward.add(r)
            killed.update(instr_kills(instr))
        use[block.label] = upward
        deff[block.label] = killed
    result = live_variables(cfg, use, deff)
    return LivenessResult(
        live_in={label: set(facts) for label, facts in result.before.items()},
        live_out={label: set(facts) for label, facts in result.after.items()},
    )
