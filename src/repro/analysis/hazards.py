"""Intra-MultiOp hazard analysis, shared by emulator and verifier.

A MultiOp's ops issue in one cycle with read-all-then-write-all
semantics: every op reads machine state as it was *before* the group.
Executing the group's ops in textual order instead (the emulator
kernel's fast path) is only equivalent when no op observes state an
earlier op of the same group wrote.  The same conditions are what the
static verifier flags: the scheduler promises never to pack a
same-cycle reader after its writer (RAW latencies are >= 1), so any
intra-group read-after-write in an emitted image marks a scheduling
bug even though the hardware resolves it deterministically.

Two entry points serve the two consumers:

* :func:`needs_buffered_execution` / :func:`has_hazard` — the boolean
  the threaded-code kernel dispatches on (early exit, no allocation):
  a group it flags runs the reference's own
  :func:`~repro.emulator.machine._execute_mop` instead of the kernel's
  closures;
* :func:`classify_hazards` — the exhaustive, structured scan the
  verifier turns into diagnostics (op indices, hazard kind, registers).

``tests/test_analysis_hazards.py`` pins both to identical
classifications over every MultiOp of the full benchmark suite, and
pins that no suite MultiOp (at scale 2 or the default scale) needs
buffered execution at all.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence, Tuple

from repro.isa.opcodes import Opcode
from repro.isa.operation import Operation

#: Hazard kinds reported by :func:`classify_hazards`.
RAW = "raw"
GUARD_RAW = "guard-raw"
LOAD_AFTER_STORE = "load-after-store"
MULTI_CONTROL = "multi-control"


@dataclass(frozen=True)
class Hazard:
    """One intra-MultiOp ordering conflict.

    ``earlier``/``later`` are op positions within the group; ``what``
    names the contended resource (a register, ``"memory"`` or
    ``"control"``).
    """

    kind: str
    earlier: int
    later: int
    what: str

    def describe(self) -> str:
        if self.kind == RAW:
            return (
                f"op {self.later} reads {self.what} written by op "
                f"{self.earlier} of the same MultiOp"
            )
        if self.kind == GUARD_RAW:
            return (
                f"op {self.later} is guarded on {self.what} written by "
                f"op {self.earlier} of the same MultiOp"
            )
        if self.kind == LOAD_AFTER_STORE:
            return (
                f"op {self.later} loads after the store at op "
                f"{self.earlier} of the same MultiOp"
            )
        return (
            f"ops {self.earlier} and {self.later} both transfer control "
            "in one MultiOp"
        )


def has_hazard(ops: Sequence[Operation]) -> bool:
    """Does any op read state written by an earlier op of this MultiOp?

    Covers register sources, predicate guards (``p0`` is immutable and
    excluded) and load-after-store memory ordering — the cases where
    in-order immediate execution would diverge from the reference's
    read-all-then-write-all semantics.  Multiple control transfers are
    *not* a hazard in this sense; see
    :func:`needs_buffered_execution`.
    """
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


def control_transfer_count(ops: Sequence[Operation]) -> int:
    """How many ops of this group may redirect fetch (BR/CALL/RET/HALT)."""
    return sum(1 for op in ops if op.opcode.is_branch)


def needs_buffered_execution(ops: Sequence[Operation]) -> bool:
    """Must this group run through a read-all-then-write-all executor?

    True when in-order execution could diverge from the reference
    semantics (:func:`has_hazard`) or when the group carries more than
    one control transfer — the reference detects the double-transfer
    error only under buffered execution, so the kernel hands such a
    group to the reference's executor to raise identically.
    """
    return control_transfer_count(ops) > 1 or has_hazard(ops)


def classify_hazards(ops: Sequence[Operation]) -> Tuple[Hazard, ...]:
    """Every intra-group conflict, in scan order (no early exit).

    The boolean :func:`has_hazard` is definitionally equivalent to
    "this tuple contains a non-:data:`MULTI_CONTROL` entry"; the
    regression tests pin that equivalence on the whole suite.
    """
    return tuple(_scan(ops))


def _scan(ops: Sequence[Operation]) -> Iterator[Hazard]:
    written: dict = {}
    last_store = None
    first_control = None
    for j, op in enumerate(ops):
        if op.opcode is Opcode.LD and last_store is not None:
            yield Hazard(LOAD_AFTER_STORE, last_store, j, "memory")
        guard = op.guard
        if guard is not None:
            key = (guard.bank, guard.index)
            if key in written:
                yield Hazard(GUARD_RAW, written[key], j, str(guard))
        for reg in op.reads:
            key = (reg.bank, reg.index)
            if key in written:
                yield Hazard(RAW, written[key], j, str(reg))
        if op.opcode.is_branch:
            if first_control is not None:
                yield Hazard(MULTI_CONTROL, first_control, j, "control")
            else:
                first_control = j
        if op.dest is not None:
            written[(op.dest.bank, op.dest.index)] = j
        if op.opcode is Opcode.ST:
            last_store = j


__all__ = [
    "GUARD_RAW",
    "Hazard",
    "LOAD_AFTER_STORE",
    "MULTI_CONTROL",
    "RAW",
    "classify_hazards",
    "control_transfer_count",
    "has_hazard",
    "needs_buffered_execution",
]
