"""Operation types and opcodes of the TEPIC ISA.

TEPIC carries a 2-bit operation *type* (``OPT``) and a 5-bit operation
*code* (``OPCODE``) in fixed positions at the front of every format — the
property the paper's tailored encoding exploits so the decoder "no search
needed".  The concrete opcode assignments below follow the TINKER machine
language's RISC-like repertoire; the exact numeric values are not specified
by the paper, only the field widths, so any assignment that fits 2+5 bits is
faithful.
"""

from __future__ import annotations

import enum


class OpType(enum.IntEnum):
    """The 2-bit operation type field (``OPT``)."""

    INT = 0
    FLOAT = 1
    MEMORY = 2
    BRANCH = 3


class FormatName(enum.Enum):
    """Names of the seven Table 2 instruction formats."""

    INT_ALU = "int_alu"
    INT_CMPP = "int_cmpp"
    LOAD_IMM = "load_imm"
    FP = "fp"
    LOAD = "load"
    STORE = "store"
    BRANCH = "branch"


class Opcode(enum.Enum):
    """Every TEPIC operation: ``(OpType, 5-bit code, format)``.

    The enum value is the ``(optype, code)`` pair so that the pair — which is
    what the hardware decodes — is unique even though 5-bit codes repeat
    across types.
    """

    # --- integer ALU (INT_ALU format) ------------------------------------
    ADD = (OpType.INT, 0, FormatName.INT_ALU)
    SUB = (OpType.INT, 1, FormatName.INT_ALU)
    MPY = (OpType.INT, 2, FormatName.INT_ALU)
    DIV = (OpType.INT, 3, FormatName.INT_ALU)
    MOD = (OpType.INT, 4, FormatName.INT_ALU)
    AND = (OpType.INT, 5, FormatName.INT_ALU)
    OR = (OpType.INT, 6, FormatName.INT_ALU)
    XOR = (OpType.INT, 7, FormatName.INT_ALU)
    SHL = (OpType.INT, 8, FormatName.INT_ALU)
    SHR = (OpType.INT, 9, FormatName.INT_ALU)  # logical right shift
    SRA = (OpType.INT, 10, FormatName.INT_ALU)  # arithmetic right shift
    MOV = (OpType.INT, 11, FormatName.INT_ALU)
    MIN = (OpType.INT, 12, FormatName.INT_ALU)
    MAX = (OpType.INT, 13, FormatName.INT_ALU)
    ABS = (OpType.INT, 14, FormatName.INT_ALU)
    NOT = (OpType.INT, 15, FormatName.INT_ALU)

    # --- integer load-immediate (LOAD_IMM format, 20-bit immediate) ------
    LDI = (OpType.INT, 16, FormatName.LOAD_IMM)

    # --- compare-to-predicate (INT_CMPP format) --------------------------
    CMPP_EQ = (OpType.INT, 17, FormatName.INT_CMPP)
    CMPP_NE = (OpType.INT, 18, FormatName.INT_CMPP)
    CMPP_LT = (OpType.INT, 19, FormatName.INT_CMPP)
    CMPP_LE = (OpType.INT, 20, FormatName.INT_CMPP)
    CMPP_GT = (OpType.INT, 21, FormatName.INT_CMPP)
    CMPP_GE = (OpType.INT, 22, FormatName.INT_CMPP)

    # --- floating point (FP format) ---------------------------------------
    FADD = (OpType.FLOAT, 0, FormatName.FP)
    FSUB = (OpType.FLOAT, 1, FormatName.FP)
    FMPY = (OpType.FLOAT, 2, FormatName.FP)
    FDIV = (OpType.FLOAT, 3, FormatName.FP)
    FABS = (OpType.FLOAT, 4, FormatName.FP)
    FMIN = (OpType.FLOAT, 5, FormatName.FP)
    FMAX = (OpType.FLOAT, 6, FormatName.FP)
    FMOV = (OpType.FLOAT, 7, FormatName.FP)
    I2F = (OpType.FLOAT, 8, FormatName.FP)
    F2I = (OpType.FLOAT, 9, FormatName.FP)

    # --- memory -----------------------------------------------------------
    LD = (OpType.MEMORY, 0, FormatName.LOAD)
    ST = (OpType.MEMORY, 1, FormatName.STORE)

    # --- branch -----------------------------------------------------------
    BR = (OpType.BRANCH, 0, FormatName.BRANCH)  # predicated (cond.) branch
    CALL = (OpType.BRANCH, 1, FormatName.BRANCH)
    RET = (OpType.BRANCH, 2, FormatName.BRANCH)
    HALT = (OpType.BRANCH, 3, FormatName.BRANCH)  # emulator stop

    # Singletons compared by identity; Enum's hash is a slow Python call.
    __hash__ = object.__hash__

    def __init__(
        self, optype: OpType, code: int, format_name: FormatName
    ) -> None:
        if not 0 <= code < 32:
            raise ValueError(f"opcode code {code} does not fit 5 bits")
        self.optype = optype
        self.code = code
        self.format_name = format_name

    @property
    def is_branch(self) -> bool:
        return self.optype is OpType.BRANCH

    @property
    def is_memory(self) -> bool:
        return self.optype is OpType.MEMORY

    @property
    def is_load(self) -> bool:
        return self is Opcode.LD

    @property
    def is_store(self) -> bool:
        return self is Opcode.ST

    @property
    def is_compare(self) -> bool:
        return self.format_name is FormatName.INT_CMPP

    @property
    def is_float(self) -> bool:
        return self.optype is OpType.FLOAT


#: Reverse map from the decoded (OPT, OPCODE) pair to the opcode.
OPCODE_BY_PAIR: dict[tuple[int, int], Opcode] = {
    (op.optype.value, op.code): op for op in Opcode
}

#: Opcodes that can issue on any functional unit (the 4 universal ALUs and
#: the 2 memory-capable units); memory ops are restricted to the 2 units.
MEMORY_UNIT_ONLY = frozenset({Opcode.LD, Opcode.ST})


def lookup(optype: int, code: int) -> Opcode:
    """Return the opcode for a decoded ``(OPT, OPCODE)`` pair."""
    try:
        return OPCODE_BY_PAIR[(optype, code)]
    except KeyError:
        raise KeyError(
            f"no opcode with OPT={optype} OPCODE={code}"
        ) from None
