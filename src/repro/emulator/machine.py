"""Architectural-state emulator for compiled TEPIC images.

The emulator is *functional* (no pipeline timing): it executes MultiOps in
order, honoring predication and VLIW read-before-write semantics, and
records the dynamic basic-block trace.  Timing lives entirely in
:mod:`repro.fetch`, which replays the trace against the cache models —
the same trace-driven methodology as the paper.
"""

from __future__ import annotations

import hashlib
import struct
from array import array
from collections import Counter
from dataclasses import dataclass, field
from typing import Optional

from repro.errors import EmulationError, MopBudgetError
from repro.compiler.builder import MEMORY_BYTES, STACK_TOP
from repro.compiler.ir import GlobalData
from repro.isa.image import ProgramImage
from repro.isa.opcodes import Opcode
from repro.isa.operation import (
    BHWX_BYTE,
    BHWX_DOUBLE,
    BHWX_HALF,
    BHWX_WORD,
    Operation,
)
from repro.isa.registers import RegisterBank
from repro.utils.arith import (
    div_trunc,
    mod_trunc,
    shift_amount,
    unsigned32,
    wrap32,
)

#: Default dynamic MultiOp budget before the emulator declares a runaway.
DEFAULT_MAX_MOPS = 50_000_000

#: Bytes one load or store moves, by its BHWX width code.
_ACCESS_WIDTH = {BHWX_BYTE: 1, BHWX_HALF: 2, BHWX_WORD: 4, BHWX_DOUBLE: 8}

#: Granule of a pickled machine's memory: only nonzero pages are kept.
PAGE_BYTES = 4096
_ZERO_PAGE = bytes(PAGE_BYTES)


@dataclass
class RunResult:
    """Outcome of one emulation."""

    block_trace: array
    dynamic_ops: int
    dynamic_mops: int
    executed_ops: int  # ops whose predicate held
    opcode_counts: Counter = field(default_factory=Counter)
    machine: Optional["Machine"] = None

    @property
    def ideal_ipc(self) -> float:
        """Ops per cycle with perfect fetch: one MultiOp per cycle."""
        if self.dynamic_mops == 0:
            return 0.0
        return self.dynamic_ops / self.dynamic_mops

    def fingerprint(self) -> dict:
        """Every observable output of the run, comparison ready.

        ``RunResult`` is a dataclass whose generated ``__eq__`` compares
        ``machine`` by object identity (:class:`Machine` defines no
        equality), so two independent runs of the same program never
        compare equal directly.  The fingerprint replaces the machine
        with its :meth:`Machine.state_digest` checksum; the kernel
        differential gates compare fingerprints.
        """
        return {
            "block_trace": self.block_trace.tolist(),
            "dynamic_ops": self.dynamic_ops,
            "dynamic_mops": self.dynamic_mops,
            "executed_ops": self.executed_ops,
            "opcode_counts": {
                op.name: n for op, n in sorted(
                    self.opcode_counts.items(), key=lambda kv: kv[0].name
                )
            },
            "machine": self.machine.state_digest() if self.machine else None,
        }


class Machine:
    """Registers, data memory and the (abstracted) return-address stack."""

    def __init__(self, memory_bytes: int = MEMORY_BYTES) -> None:
        self.gpr = [0] * 32
        self.fpr = [0.0] * 32
        self.pr = [False] * 32
        self.pr[0] = True
        self.memory = bytearray(memory_bytes)
        self.call_stack: list[int] = []
        self.gpr[31] = STACK_TOP

    # ------------------------------------------------------------- memory
    def load(self, addr: int, bhwx: int, float_dest: bool) -> object:
        self._check(addr, bhwx)
        if bhwx == BHWX_DOUBLE:
            raw = bytes(self.memory[addr : addr + 8])
            value = struct.unpack("<d", raw)[0]
            return value if float_dest else int(value)
        if bhwx == BHWX_BYTE:
            return self.memory[addr]
        if bhwx == BHWX_HALF:
            return self.memory[addr] | (self.memory[addr + 1] << 8)
        raw4 = bytes(self.memory[addr : addr + 4])
        value = struct.unpack("<i", raw4)[0]
        return float(value) if float_dest else value

    def store(self, addr: int, value: object, bhwx: int) -> None:
        self._check(addr, bhwx)
        if bhwx == BHWX_DOUBLE:
            self.memory[addr : addr + 8] = struct.pack("<d", float(value))
            return
        ivalue = int(value)
        if bhwx == BHWX_BYTE:
            self.memory[addr] = ivalue & 0xFF
        elif bhwx == BHWX_HALF:
            self.memory[addr] = ivalue & 0xFF
            self.memory[addr + 1] = (ivalue >> 8) & 0xFF
        else:
            self.memory[addr : addr + 4] = struct.pack(
                "<i", wrap32(ivalue)
            )

    def _check(self, addr: int, bhwx: int) -> None:
        width = _ACCESS_WIDTH[bhwx]
        if addr < 0 or addr + width > len(self.memory):
            raise EmulationError(f"memory access at {addr:#x} out of range")
        if addr % width:
            raise EmulationError(
                f"misaligned {width}-byte access at {addr:#x}"
            )

    def load_word(self, addr: int) -> int:
        """Convenience accessor for tests and examples."""
        return self.load(addr, BHWX_WORD, float_dest=False)  # type: ignore

    def load_double(self, addr: int) -> float:
        return self.load(addr, BHWX_DOUBLE, float_dest=True)  # type: ignore

    def initialize_globals(self, data: dict[str, GlobalData]) -> None:
        for g in data.values():
            for i, word in enumerate(g.init_words):
                self.store(g.address + 4 * i, wrap32(word), BHWX_WORD)

    # ------------------------------------------------------------ pickle
    def __getstate__(self) -> dict:
        """State with memory as ``(length, {page offset: bytes})``.

        A run touches a few of memory's pages, so a trace artifact keeps
        only the nonzero ones.
        """
        state = self.__dict__.copy()
        memory = state.pop("memory")
        pages = {}
        for offset in range(0, len(memory), PAGE_BYTES):
            page = bytes(memory[offset : offset + PAGE_BYTES])
            if page != _ZERO_PAGE[: len(page)]:
                pages[offset] = page
        state["memory_pages"] = (len(memory), pages)
        return state

    def __setstate__(self, state: dict) -> None:
        length, pages = state.pop("memory_pages")
        memory = bytearray(length)
        for offset, page in pages.items():
            memory[offset : offset + len(page)] = page
        state["memory"] = memory
        self.__dict__.update(state)

    # ------------------------------------------------------------ digest
    def state_digest(self) -> str:
        """SHA-256 over the full architectural state.

        Covers every register bank, data memory and the return-address
        stack with fixed-width little-endian serialization, so two
        machines digest equal iff their observable state is equal —
        the memory/register checksum the emulator kernel differential
        gates compare.
        """
        h = hashlib.sha256()
        h.update(struct.pack("<32i", *self.gpr))
        h.update(struct.pack("<32d", *self.fpr))
        h.update(bytes(self.pr))
        h.update(self.memory)
        h.update(struct.pack(f"<{len(self.call_stack)}i", *self.call_stack))
        return h.hexdigest()


_INT_BINARY = {
    Opcode.ADD: lambda a, b: wrap32(a + b),
    Opcode.SUB: lambda a, b: wrap32(a - b),
    Opcode.MPY: lambda a, b: wrap32(a * b),
    Opcode.AND: lambda a, b: wrap32(a & b),
    Opcode.OR: lambda a, b: wrap32(a | b),
    Opcode.XOR: lambda a, b: wrap32(a ^ b),
    Opcode.SHL: lambda a, b: wrap32(a << shift_amount(b)),
    Opcode.SHR: lambda a, b: wrap32(unsigned32(a) >> shift_amount(b)),
    Opcode.SRA: lambda a, b: wrap32(a >> shift_amount(b)),
    Opcode.MIN: min,
    Opcode.MAX: max,
}

_CMP = {
    Opcode.CMPP_EQ: lambda a, b: a == b,
    Opcode.CMPP_NE: lambda a, b: a != b,
    Opcode.CMPP_LT: lambda a, b: a < b,
    Opcode.CMPP_LE: lambda a, b: a <= b,
    Opcode.CMPP_GT: lambda a, b: a > b,
    Opcode.CMPP_GE: lambda a, b: a >= b,
}

_FP_BINARY = {
    Opcode.FADD: lambda a, b: a + b,
    Opcode.FSUB: lambda a, b: a - b,
    Opcode.FMPY: lambda a, b: a * b,
    Opcode.FMIN: min,
    Opcode.FMAX: max,
}


@dataclass
class _Control:
    """Control decision raised by a MultiOp."""

    kind: str  # "branch" | "call" | "ret" | "halt"
    target: Optional[int] = None


def run_image(
    image: ProgramImage,
    globals_data: Optional[dict[str, GlobalData]] = None,
    max_mops: int = DEFAULT_MAX_MOPS,
    machine: Optional[Machine] = None,
) -> RunResult:
    """Execute ``image`` from its entry block until HALT."""
    m = machine or Machine()
    if globals_data:
        m.initialize_globals(globals_data)
    trace = array("i")
    dynamic_ops = 0
    dynamic_mops = 0
    executed_ops = 0
    opcode_counts: Counter = Counter()
    block_id = image.entry_block
    halted = False
    while not halted:
        block = image.block(block_id)
        trace.append(block_id)
        control: Optional[_Control] = None
        for mop in block.mops:
            dynamic_mops += 1
            dynamic_ops += len(mop.ops)
            if dynamic_mops > max_mops:
                raise MopBudgetError(
                    f"program exceeded {max_mops} dynamic MultiOps"
                )
            ctl, ran = _execute_mop(m, mop.ops, opcode_counts)
            executed_ops += ran
            if ctl is not None:
                control = ctl
        block_id, halted = _next_block(m, image, block, control)
    return RunResult(
        block_trace=trace,
        dynamic_ops=dynamic_ops,
        dynamic_mops=dynamic_mops,
        executed_ops=executed_ops,
        opcode_counts=opcode_counts,
        machine=m,
    )


def emulate(
    image: ProgramImage,
    globals_data: Optional[dict[str, GlobalData]] = None,
    max_mops: int = DEFAULT_MAX_MOPS,
    machine: Optional[Machine] = None,
) -> RunResult:
    """Execute ``image`` on the threaded-code engine.

    :func:`~repro.emulator.kernel.run_image_kernel` produces the same
    :class:`RunResult` fields (see :meth:`RunResult.fingerprint`) as
    this module's interpretive :func:`run_image`, the retained reference
    the differential tests compare it against.
    """
    from repro.emulator.kernel import run_image_kernel

    return run_image_kernel(
        image, globals_data, max_mops=max_mops, machine=machine
    )


def _execute_mop(
    m: Machine, ops: tuple[Operation, ...], counts: Counter
) -> tuple[Optional[_Control], int]:
    """Execute one MultiOp: read all, then write all."""
    writes: list[tuple[RegisterBank, int, object]] = []
    stores: list[tuple[int, object, int]] = []
    control: Optional[_Control] = None
    executed = 0
    for op in ops:
        if not m.pr[op.predicate.index]:
            continue
        executed += 1
        counts[op.opcode] += 1
        ctl = _execute_op(m, op, writes, stores)
        if ctl is not None:
            if control is not None:
                raise EmulationError(
                    "two control transfers in one MultiOp"
                )
            control = ctl
    for bank, index, value in writes:
        if bank is RegisterBank.GPR:
            m.gpr[index] = wrap32(int(value))
        elif bank is RegisterBank.FPR:
            m.fpr[index] = float(value)
        else:
            m.pr[index] = bool(value)
            if index == 0:
                m.pr[0] = True  # p0 is hard-wired true
    for addr, value, bhwx in stores:
        m.store(addr, value, bhwx)
    return control, executed


def _execute_op(
    m: Machine,
    op: Operation,
    writes: list,
    stores: list,
) -> Optional[_Control]:
    opcode = op.opcode
    if opcode in _INT_BINARY:
        a = m.gpr[op.src1.index]
        b = m.gpr[op.src2.index]
        writes.append(
            (RegisterBank.GPR, op.dest.index, _INT_BINARY[opcode](a, b))
        )
        return None
    if opcode in _CMP:
        a = m.gpr[op.src1.index]
        b = m.gpr[op.src2.index]
        writes.append(
            (RegisterBank.PRED, op.dest.index, _CMP[opcode](a, b))
        )
        return None
    if opcode is Opcode.LDI:
        writes.append((RegisterBank.GPR, op.dest.index, op.imm or 0))
        return None
    if opcode is Opcode.MOV:
        writes.append(
            (RegisterBank.GPR, op.dest.index, m.gpr[op.src1.index])
        )
        return None
    if opcode is Opcode.ABS:
        writes.append(
            (RegisterBank.GPR, op.dest.index,
             wrap32(abs(m.gpr[op.src1.index])))
        )
        return None
    if opcode is Opcode.NOT:
        writes.append(
            (RegisterBank.GPR, op.dest.index, wrap32(~m.gpr[op.src1.index]))
        )
        return None
    if opcode in (Opcode.DIV, Opcode.MOD):
        a = m.gpr[op.src1.index]
        b = m.gpr[op.src2.index]
        if b == 0:
            raise EmulationError("integer division by zero")
        fn = div_trunc if opcode is Opcode.DIV else mod_trunc
        writes.append((RegisterBank.GPR, op.dest.index, wrap32(fn(a, b))))
        return None
    if opcode in _FP_BINARY:
        a = m.fpr[op.src1.index]
        b = m.fpr[op.src2.index]
        writes.append(
            (RegisterBank.FPR, op.dest.index, _FP_BINARY[opcode](a, b))
        )
        return None
    if opcode is Opcode.FDIV:
        b = m.fpr[op.src2.index]
        if b == 0.0:
            raise EmulationError("floating-point division by zero")
        writes.append(
            (RegisterBank.FPR, op.dest.index, m.fpr[op.src1.index] / b)
        )
        return None
    if opcode is Opcode.FABS:
        writes.append(
            (RegisterBank.FPR, op.dest.index, abs(m.fpr[op.src1.index]))
        )
        return None
    if opcode is Opcode.FMOV:
        writes.append(
            (RegisterBank.FPR, op.dest.index, m.fpr[op.src1.index])
        )
        return None
    if opcode is Opcode.I2F:
        writes.append(
            (RegisterBank.FPR, op.dest.index, float(m.gpr[op.src1.index]))
        )
        return None
    if opcode is Opcode.F2I:
        writes.append(
            (RegisterBank.GPR, op.dest.index,
             wrap32(int(m.fpr[op.src1.index])))
        )
        return None
    if opcode is Opcode.LD:
        addr = m.gpr[op.src1.index]
        float_dest = op.dest.bank is RegisterBank.FPR
        value = m.load(addr, op.bhwx, float_dest)
        bank = RegisterBank.FPR if float_dest else RegisterBank.GPR
        writes.append((bank, op.dest.index, value))
        return None
    if opcode is Opcode.ST:
        addr = m.gpr[op.src1.index]
        if op.src2.bank is RegisterBank.FPR:
            value: object = m.fpr[op.src2.index]
        else:
            value = m.gpr[op.src2.index]
        stores.append((addr, value, op.bhwx))
        return None
    if opcode is Opcode.BR:
        return _Control("branch", op.target_block)
    if opcode is Opcode.CALL:
        return _Control("call", op.target_block)
    if opcode is Opcode.RET:
        return _Control("ret")
    if opcode is Opcode.HALT:
        return _Control("halt")
    raise EmulationError(f"unimplemented opcode {opcode.name}")


def _next_block(
    m: Machine,
    image: ProgramImage,
    block,
    control: Optional[_Control],
) -> tuple[int, bool]:
    if control is None:
        if block.fallthrough is None:
            raise EmulationError(
                f"block {block.label} has no successor and no control "
                "transfer fired"
            )
        return block.fallthrough, False
    if control.kind == "halt":
        return block.block_id, True
    if control.kind == "branch":
        return control.target, False  # type: ignore[return-value]
    if control.kind == "call":
        if block.fallthrough is None:
            raise EmulationError(
                f"call block {block.label} lacks a continuation"
            )
        if len(m.call_stack) > 10_000:
            raise EmulationError("call stack overflow")
        m.call_stack.append(block.fallthrough)
        return control.target, False  # type: ignore[return-value]
    if control.kind == "ret":
        if not m.call_stack:
            raise EmulationError("RET with an empty call stack")
        return m.call_stack.pop(), False
    raise EmulationError(f"unknown control kind {control.kind!r}")
