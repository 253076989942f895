"""Three-address intermediate representation over virtual registers.

The IR deliberately shares the TEPIC opcode vocabulary
(:class:`~repro.isa.opcodes.Opcode`): an IR instruction is a TEPIC op whose
operands are virtual registers and whose branch targets are labels.
Lowering to machine code is then register allocation plus label
resolution — the same relationship the paper's LEGO compiler has to the
TINKER assembler.

Instruction kinds:

* :class:`IROp` — a plain (non-control) operation, possibly predicated.
* Pseudo ops that survive until frame sizes are known:
  :class:`IRArgLoad` (read incoming argument *i*), :class:`IRStoreArg`
  (place outgoing argument *i*), :class:`IRLoadRet`/:class:`IRStoreRet`
  (return-value slot traffic).
* Terminators: :class:`IRBranch` (predicated, with fallthrough),
  :class:`IRJump`, :class:`IRCall` (ends its block — the paper treats
  calls as branches that end a basic block), :class:`IRReturn`,
  :class:`IRHalt`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterator, Optional, Union

from repro.errors import CompilerError
from repro.isa.opcodes import Opcode
from repro.isa.registers import Register


class RegClass(enum.Enum):
    """Virtual register classes, matching the architectural banks."""

    INT = "i"
    FLOAT = "f"
    PRED = "p"

    # Singletons compared by identity; Enum's hash is a slow Python call.
    __hash__ = object.__hash__


@dataclass(frozen=True, order=True)
class VReg:
    """A virtual register, e.g. ``%i7`` or ``%p2``."""

    cls: RegClass
    index: int

    def __str__(self) -> str:
        return f"%{self.cls.value}{self.index}"


#: An IR operand: virtual before allocation, physical after.
Operand = Union[VReg, Register]


def operand_str(operand: Optional[Operand]) -> str:
    return "-" if operand is None else str(operand)


@dataclass
class IRInstr:
    """Base class for every IR instruction."""

    def reads(self) -> tuple[Operand, ...]:
        return ()

    def writes(self) -> tuple[Operand, ...]:
        return ()

    @property
    def is_terminator(self) -> bool:
        return False


@dataclass
class IROp(IRInstr):
    """A plain TEPIC operation over IR operands.

    ``predicate`` of ``None`` means unpredicated (architecturally p0,
    hard-wired true).  Predicated ops are *conditional writes*: their
    destination is not killed, which the optimization passes must (and do)
    respect.
    """

    opcode: Opcode
    dest: Optional[Operand] = None
    src1: Optional[Operand] = None
    src2: Optional[Operand] = None
    imm: Optional[int] = None
    predicate: Optional[Operand] = None
    bhwx: int = 2
    note: str = field(default="", compare=False)

    def __post_init__(self) -> None:
        if self.opcode.is_branch:
            raise CompilerError(
                f"{self.opcode.name} must be a terminator, not an IROp"
            )

    def reads(self) -> tuple[Operand, ...]:
        regs = [r for r in (self.src1, self.src2) if r is not None]
        if self.predicate is not None:
            regs.append(self.predicate)
        return tuple(regs)

    def writes(self) -> tuple[Operand, ...]:
        return (self.dest,) if self.dest is not None else ()

    @property
    def has_side_effect(self) -> bool:
        return self.opcode.is_store

    @property
    def is_pure(self) -> bool:
        """True when removing the op (given a dead dest) is safe."""
        return not self.opcode.is_memory

    def __str__(self) -> str:
        parts = [self.opcode.name.lower()]
        operands = [
            operand_str(o)
            for o in (self.dest, self.src1, self.src2)
            if o is not None
        ]
        if self.imm is not None:
            operands.append(f"#{self.imm}")
        text = parts[0] + (" " + ", ".join(operands) if operands else "")
        if self.predicate is not None:
            text += f" ?{self.predicate}"
        return text


# --------------------------------------------------------------- pseudo ops
@dataclass
class IRArgLoad(IRInstr):
    """Read incoming argument ``index`` into ``dest`` (callee side)."""

    dest: Operand
    index: int

    def writes(self) -> tuple[Operand, ...]:
        return (self.dest,)

    def __str__(self) -> str:
        return f"argload {self.dest}, arg{self.index}"


@dataclass
class IRStoreArg(IRInstr):
    """Place outgoing argument ``index`` for the upcoming call."""

    index: int
    src: Operand

    def reads(self) -> tuple[Operand, ...]:
        return (self.src,)

    def __str__(self) -> str:
        return f"storearg arg{self.index}, {self.src}"


@dataclass
class IRLoadRet(IRInstr):
    """Fetch the return value of the call that just returned (caller)."""

    dest: Operand
    callee_num_args: int

    def writes(self) -> tuple[Operand, ...]:
        return (self.dest,)

    def __str__(self) -> str:
        return f"loadret {self.dest}"


@dataclass
class IRStoreRet(IRInstr):
    """Deposit the return value before returning (callee side)."""

    src: Operand
    num_args: int

    def reads(self) -> tuple[Operand, ...]:
        return (self.src,)

    def __str__(self) -> str:
        return f"storeret {self.src}"


# -------------------------------------------------------------- terminators
@dataclass
class IRBranch(IRInstr):
    """Conditional branch on ``predicate``; falls through otherwise."""

    predicate: Operand
    target: str

    def reads(self) -> tuple[Operand, ...]:
        return (self.predicate,)

    @property
    def is_terminator(self) -> bool:
        return True

    def __str__(self) -> str:
        return f"br {self.target} ?{self.predicate}"


@dataclass
class IRJump(IRInstr):
    """Unconditional jump."""

    target: str

    @property
    def is_terminator(self) -> bool:
        return True

    def __str__(self) -> str:
        return f"jmp {self.target}"


@dataclass
class IRCall(IRInstr):
    """Call ``callee``; execution resumes at the fallthrough block.

    Arguments are materialized by preceding :class:`IRStoreArg` pseudo ops;
    the return value (if any) is read by an :class:`IRLoadRet` in the
    continuation block.
    """

    callee: str

    @property
    def is_terminator(self) -> bool:
        return True

    def __str__(self) -> str:
        return f"call {self.callee}"


@dataclass
class IRReturn(IRInstr):
    @property
    def is_terminator(self) -> bool:
        return True

    def __str__(self) -> str:
        return "ret"


@dataclass
class IRHalt(IRInstr):
    @property
    def is_terminator(self) -> bool:
        return True

    def __str__(self) -> str:
        return "halt"


# ------------------------------------------------------------------- blocks
@dataclass
class IRBlock:
    """A basic block: straight-line ops plus an optional terminator.

    ``terminator`` of ``None`` means pure fallthrough into the next block
    in layout order.
    """

    label: str
    instrs: list[IRInstr] = field(default_factory=list)
    terminator: Optional[IRInstr] = None

    def all_instrs(self) -> Iterator[IRInstr]:
        yield from self.instrs
        if self.terminator is not None:
            yield self.terminator

    @property
    def is_empty(self) -> bool:
        return not self.instrs and self.terminator is None

    def __str__(self) -> str:
        lines = [f"{self.label}:"]
        lines.extend(f"  {i}" for i in self.instrs)
        if self.terminator is not None:
            lines.append(f"  {self.terminator}")
        return "\n".join(lines)


@dataclass
class IRFunction:
    """One function: ordered basic blocks; the first block is the entry."""

    name: str
    num_args: int
    blocks: list[IRBlock] = field(default_factory=list)
    next_vreg: int = 0
    #: Filled by register allocation: spill slots used (frame sizing).
    num_spill_slots: int = 0

    def new_vreg(self, cls: RegClass) -> VReg:
        reg = VReg(cls, self.next_vreg)
        self.next_vreg += 1
        return reg

    def block_by_label(self, label: str) -> IRBlock:
        for block in self.blocks:
            if block.label == label:
                return block
        raise CompilerError(
            f"function {self.name!r} has no block {label!r}"
        )

    @property
    def labels(self) -> set[str]:
        return {b.label for b in self.blocks}

    def all_instrs(self) -> Iterator[IRInstr]:
        for block in self.blocks:
            yield from block.all_instrs()

    def __str__(self) -> str:
        header = f"func {self.name}({self.num_args} args):"
        return "\n".join([header] + [str(b) for b in self.blocks])


@dataclass
class GlobalData:
    """A statically allocated data region (word granularity)."""

    name: str
    size_bytes: int
    address: int
    init_words: tuple[int, ...] = ()


@dataclass
class IRModule:
    """A whole program: functions (entry = ``main``) plus global data."""

    name: str
    functions: dict[str, IRFunction] = field(default_factory=dict)
    globals: dict[str, GlobalData] = field(default_factory=dict)
    entry: str = "main"

    def function(self, name: str) -> IRFunction:
        try:
            return self.functions[name]
        except KeyError:
            raise CompilerError(
                f"module {self.name!r} has no function {name!r}"
            ) from None

    def validate(self) -> None:
        """Structural checks: entry exists, call targets and labels exist."""
        if self.entry not in self.functions:
            raise CompilerError(f"module lacks entry function {self.entry!r}")
        for func in self.functions.values():
            if not func.blocks:
                raise CompilerError(f"function {func.name!r} has no blocks")
            labels = func.labels
            if len(labels) != len(func.blocks):
                raise CompilerError(
                    f"function {func.name!r} has duplicate labels"
                )
            for block in func.blocks:
                term = block.terminator
                if isinstance(term, (IRBranch, IRJump)):
                    if term.target not in labels:
                        raise CompilerError(
                            f"{func.name}/{block.label}: missing target "
                            f"{term.target!r}"
                        )
                if isinstance(term, IRCall):
                    if term.callee not in self.functions:
                        raise CompilerError(
                            f"{func.name}/{block.label}: call to unknown "
                            f"function {term.callee!r}"
                        )

    def __str__(self) -> str:
        return "\n\n".join(str(f) for f in self.functions.values())
