"""The seven TEPIC instruction formats, field widths per the paper's Table 2.

All formats are 40 bits and share a fixed prefix — ``T`` (tail bit), ``S``
(speculative bit), ``OPT`` (2-bit type) and ``OPCODE`` (5 bits) — which is
what allows format selection without search, a property the tailored
encoding preserves deliberately (Section 2.3).

One deliberate deviation: the Branch format's 16 "Reserved" bits are used
here as the branch-target field (named ``target``).  The paper's TEPIC
relies on PlayDoh-style prepare-to-branch registers for targets, machinery
it never describes; folding the target into the reserved bits keeps the
format width and the compression statistics identical while making the
image self-contained.
"""

from __future__ import annotations

from repro.isa.fields import Field, Format
from repro.isa.opcodes import FormatName

#: Baseline TEPIC operation size in bits.
OP_BITS = 40

#: Baseline TEPIC operation size in bytes (blocks are byte aligned).
OP_BYTES = OP_BITS // 8


def _fmt(name: FormatName, *fields: Field) -> Format:
    return Format(name.value, tuple(fields), OP_BITS)


INT_ALU_FORMAT = _fmt(
    FormatName.INT_ALU,
    Field("t", 1),
    Field("s", 1),
    Field("opt", 2),
    Field("opcode", 5),
    Field("src1", 5),
    Field("src2", 5),
    Field("bhwx", 2),
    Field("res", 8, reserved=True),
    Field("dest", 5),
    Field("l1", 1),
    Field("pred", 5),
)

INT_CMPP_FORMAT = _fmt(
    FormatName.INT_CMPP,
    Field("t", 1),
    Field("s", 1),
    Field("opt", 2),
    Field("opcode", 5),
    Field("src1", 5),
    Field("src2", 5),
    Field("bhwx", 2),
    Field("d1", 3),
    Field("res", 5, reserved=True),
    Field("dest", 5),
    Field("l1", 1),
    Field("pred", 5),
)

LOAD_IMM_FORMAT = _fmt(
    FormatName.LOAD_IMM,
    Field("t", 1),
    Field("s", 1),
    Field("opt", 2),
    Field("opcode", 5),
    Field("imm", 20),
    Field("dest", 5),
    Field("l1", 1),
    Field("pred", 5),
)

FP_FORMAT = _fmt(
    FormatName.FP,
    Field("t", 1),
    Field("s", 1),
    Field("opt", 2),
    Field("opcode", 5),
    Field("src1", 5),
    Field("src2", 5),
    Field("sd", 1),
    Field("res", 6, reserved=True),
    Field("tsslu", 3),
    Field("dest", 5),
    Field("l1", 1),
    Field("pred", 5),
)

LOAD_FORMAT = _fmt(
    FormatName.LOAD,
    Field("t", 1),
    Field("s", 1),
    Field("opt", 2),
    Field("opcode", 5),
    Field("src1", 5),
    Field("bhwx", 2),
    Field("scs", 2),
    Field("res", 1, reserved=True),
    Field("tcs", 2),
    Field("res2", 3, reserved=True),
    Field("lat", 5),
    Field("dest", 5),
    Field("rsv", 1, reserved=True),
    Field("pred", 5),
)

STORE_FORMAT = _fmt(
    FormatName.STORE,
    Field("t", 1),
    Field("s", 1),
    Field("opt", 2),
    Field("opcode", 5),
    Field("src1", 5),
    Field("src2", 5),
    Field("bhwx", 2),
    Field("tcs", 2),
    Field("res", 11, reserved=True),
    Field("l1", 1),
    Field("pred", 5),
)

BRANCH_FORMAT = _fmt(
    FormatName.BRANCH,
    Field("t", 1),
    Field("s", 1),
    Field("opt", 2),
    Field("opcode", 5),
    Field("src1", 5),
    Field("counter", 5),
    Field("target", 16),  # the paper's 16 reserved bits; see module docs
    Field("pred", 5),
)

#: All formats keyed by :class:`~repro.isa.opcodes.FormatName`.
FORMATS: dict[FormatName, Format] = {
    FormatName.INT_ALU: INT_ALU_FORMAT,
    FormatName.INT_CMPP: INT_CMPP_FORMAT,
    FormatName.LOAD_IMM: LOAD_IMM_FORMAT,
    FormatName.FP: FP_FORMAT,
    FormatName.LOAD: LOAD_FORMAT,
    FormatName.STORE: STORE_FORMAT,
    FormatName.BRANCH: BRANCH_FORMAT,
}

#: Fields shared by every format, in the shared fixed prefix order.
COMMON_PREFIX = ("t", "s", "opt", "opcode")

#: Shifts of the T (tail) and S (speculative) bits that open every format.
T_SHIFT = OP_BITS - 1
S_SHIFT = OP_BITS - 2

#: The 7-bit (opt, opcode) prefix below the T and S bits:
#: ``word >> OPCODE_PREFIX_SHIFT & OPCODE_PREFIX_MASK`` names an op
#: word's opcode, and hence its format.
OPCODE_PREFIX_SHIFT = OP_BITS - 9
OPCODE_PREFIX_MASK = 0x7F
