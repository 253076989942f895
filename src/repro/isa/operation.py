"""A single TEPIC RISC-like operation and its 40-bit binary encoding.

An :class:`Operation` carries both the *semantic* content the compiler and
emulator work with (opcode, registers, immediate, branch-target block) and
enough format knowledge to produce/consume the exact Table 2 bit pattern.
The compression and tailored-encoding subsystems consume operations through
:meth:`Operation.encode` (whole-word view); the encoding checks read
:meth:`Operation.field_values` (per-field view).
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Callable, Optional

from repro.errors import DecodingError, EncodingError
from repro.isa.fields import Format
from repro.isa.formats import FORMATS, OP_BITS, S_SHIFT, T_SHIFT
from repro.isa.opcodes import FormatName, Opcode, OpType, lookup
from repro.isa.registers import Register, RegisterBank, TRUE_PREDICATE, pred

#: Range of the 20-bit signed load-immediate field.
IMM_MIN = -(1 << 19)
IMM_MAX = (1 << 19) - 1

#: Operand-size selector values for the BHWX field.
BHWX_BYTE = 0
BHWX_HALF = 1
BHWX_WORD = 2
BHWX_DOUBLE = 3

#: Default architectural load latency (cycles) carried in the Lat field.
DEFAULT_LOAD_LATENCY = 2

_FP_SRC_BANK = {
    Opcode.I2F: RegisterBank.GPR,
}
_FP_DEST_BANK = {
    Opcode.F2I: RegisterBank.GPR,
}

#: Number of register source operands each opcode actually uses.  Formats
#: still encode unused source fields (as zero); this table lets decoding
#: normalize them back to ``None`` so encode/decode round-trips exactly.
SRC_ARITY: dict[Opcode, int] = {
    Opcode.MOV: 1,
    Opcode.ABS: 1,
    Opcode.NOT: 1,
    Opcode.LDI: 0,
    Opcode.FABS: 1,
    Opcode.FMOV: 1,
    Opcode.I2F: 1,
    Opcode.F2I: 1,
    Opcode.LD: 1,
    Opcode.BR: 0,
    Opcode.CALL: 0,
    Opcode.RET: 0,
    Opcode.HALT: 0,
}


def src_arity(opcode: Opcode) -> int:
    """How many register sources ``opcode`` uses (default: 2)."""
    return SRC_ARITY.get(opcode, 2)


#: Opcodes that produce no destination register.
NO_DEST = frozenset(
    {Opcode.ST, Opcode.BR, Opcode.CALL, Opcode.RET, Opcode.HALT}
)


#: How :meth:`Operation.field_values` fills each operand field, in the
#: order the view lists them.  ``sd`` is always zero: single precision
#: throughout this study.
_OPERAND_GETTERS: dict[str, Callable[["Operation"], int]] = {
    "src1": lambda op: op.src1.index if op.src1 else 0,
    "src2": lambda op: op.src2.index if op.src2 else 0,
    "dest": lambda op: op.dest.index if op.dest else 0,
    "bhwx": lambda op: op.bhwx,
    "imm": lambda op: (op.imm or 0) & 0xFFFFF,
    "lat": lambda op: op.lat,
    "counter": lambda op: op.counter,
    "target": lambda op: op.target_block or 0,
    "sd": lambda op: 0,
}

#: Fields :meth:`Operation.field_values` sets before the operand table.
_PREFIX_FIELDS = frozenset({"t", "s", "opt", "opcode", "pred"})


def _operand_fields(fmt: Format) -> tuple:
    """``(name, getter)`` per non-prefix, non-reserved field of ``fmt``.

    The operands come first in :data:`_OPERAND_GETTERS` order; the
    remaining architectural fields this study leaves at zero
    (cache-specifier hints, link bits, FP sub-fields) follow in format
    order with a ``None`` getter.
    """
    operands = [(n, g) for n, g in _OPERAND_GETTERS.items() if n in fmt]
    zeros = [
        (f.name, None)
        for f in fmt
        if not f.reserved
        and f.name not in _PREFIX_FIELDS
        and f.name not in _OPERAND_GETTERS
    ]
    return tuple(operands + zeros)


#: Per-format operand field table, built once from :data:`FORMATS`.
_OPERAND_FIELDS: dict[FormatName, tuple] = {
    name: _operand_fields(fmt) for name, fmt in FORMATS.items()
}

#: The predicate field's maximum.  It is the last field, so its shift
#: is 0.  The same in every Table 2 format (the plans below check it,
#: with the T and S shifts).
_PRED_MAX = 31


def _encode_plan(opcode: Opcode) -> tuple:
    """``(fixed, operands)``: how :meth:`Operation.encode` packs ``opcode``.

    ``fixed`` is the word with only the OPT and OPCODE bits set.
    ``operands`` is ``(getter, shift, max_value)`` per operand field of
    the format, in layout order; the fields this study leaves at zero
    and the reserved fields add no bits and are left out.
    """
    fmt = FORMATS[opcode.format_name]
    layout = {name: (shift, top) for name, shift, top in fmt.layout}
    if (
        layout["t"] != (T_SHIFT, 1)
        or layout["s"] != (S_SHIFT, 1)
        or layout["pred"] != (0, _PRED_MAX)
    ):
        raise ValueError(f"format {fmt.name!r} moves the T, S or pred field")
    fixed = fmt.encode({"opt": opcode.optype.value, "opcode": opcode.code})
    getters = {name: get for name, get in _OPERAND_FIELDS[opcode.format_name]}
    operands = tuple(
        (getters[name], shift, max_value)
        for name, shift, max_value in fmt.layout
        if getters.get(name) is not None
    )
    return fixed, operands


#: One encode plan per opcode, built once.
_ENCODE_PLANS: dict[Opcode, tuple] = {
    opcode: _encode_plan(opcode) for opcode in Opcode
}


def _expected_src_bank(opcode: Opcode) -> RegisterBank:
    if opcode.is_float:
        return _FP_SRC_BANK.get(opcode, RegisterBank.FPR)
    return RegisterBank.GPR


def _expected_dest_bank(opcode: Opcode) -> RegisterBank:
    if opcode.is_compare:
        return RegisterBank.PRED
    if opcode.is_float:
        return _FP_DEST_BANK.get(opcode, RegisterBank.FPR)
    return RegisterBank.GPR


@dataclass
class Operation:
    """One TEPIC operation.

    ``dest``/``src1``/``src2`` are architectural registers (or ``None`` when
    the format has no such operand).  ``target_block`` is the branch-target
    basic-block id, carried in the Branch format's 16-bit target field.
    ``value_src`` names the register whose value a float load/store moves
    when the access is to the FPR bank.
    """

    opcode: Opcode
    dest: Optional[Register] = None
    src1: Optional[Register] = None
    src2: Optional[Register] = None
    imm: Optional[int] = None
    predicate: Register = TRUE_PREDICATE
    tail: bool = False
    speculative: bool = False
    bhwx: int = BHWX_WORD
    lat: int = DEFAULT_LOAD_LATENCY
    counter: int = 0
    target_block: Optional[int] = None
    #: Optional source-line/debug note carried through compilation.
    note: str = field(default="", compare=False)

    def __post_init__(self) -> None:
        self._validate()

    # ----------------------------------------------------------- structure
    @property
    def format(self) -> Format:
        return FORMATS[self.opcode.format_name]

    @property
    def is_branch(self) -> bool:
        return self.opcode.is_branch

    @property
    def is_control_transfer(self) -> bool:
        """True for ops that may redirect fetch (BR/CALL/RET/HALT)."""
        return self.opcode.is_branch

    @property
    def reads(self) -> tuple[Register, ...]:
        """Registers read by this op (excluding the predicate)."""
        regs = [r for r in (self.src1, self.src2) if r is not None]
        return tuple(regs)

    @property
    def guard(self) -> Optional[Register]:
        """The predicate register gating this op, or ``None`` when the op
        is guarded by the hard-wired always-true ``p0``.

        ``p0`` cannot be cleared (writes to it are forced back to true),
        so a ``None`` guard means the op executes unconditionally —
        the distinction the emulator kernel's hazard analysis and
        static opcode accounting are built on.
        """
        if self.predicate.index == 0:
            return None
        return self.predicate

    @property
    def writes(self) -> tuple[Register, ...]:
        """Registers written by this op."""
        return (self.dest,) if self.dest is not None else ()

    def _validate(self) -> None:
        opcode = self.opcode
        if self.predicate.bank is not RegisterBank.PRED:
            raise EncodingError(
                f"{opcode.name}: predicate must be a predicate register, "
                f"got {self.predicate}"
            )
        if not 0 <= self.bhwx <= 3:
            raise EncodingError(f"{opcode.name}: bhwx {self.bhwx} not in 0..3")
        fmt_name = opcode.format_name
        if fmt_name is FormatName.LOAD_IMM:
            if self.imm is None:
                raise EncodingError("LDI requires an immediate")
            if not IMM_MIN <= self.imm <= IMM_MAX:
                raise EncodingError(
                    f"immediate {self.imm} outside 20-bit signed range"
                )
        elif self.imm is not None:
            raise EncodingError(
                f"{opcode.name} does not take an immediate operand"
            )
        if opcode.is_branch:
            if opcode in (Opcode.BR, Opcode.CALL) and self.target_block is None:
                raise EncodingError(f"{opcode.name} requires a target block")
            if self.target_block is not None and not (
                0 <= self.target_block < (1 << 16)
            ):
                raise EncodingError(
                    f"target block {self.target_block} does not fit 16 bits"
                )
        elif self.target_block is not None:
            raise EncodingError(f"{opcode.name} cannot carry a branch target")
        self._validate_register_banks()

    def _validate_register_banks(self) -> None:
        opcode = self.opcode
        if self.dest is not None:
            expected = _expected_dest_bank(opcode)
            if self.dest.bank is not expected:
                raise EncodingError(
                    f"{opcode.name}: dest {self.dest} should be in bank "
                    f"{expected.name}"
                )
        if opcode is Opcode.LD or opcode is Opcode.ST:
            # Address register is always a GPR; stored value may be GPR/FPR.
            if self.src1 is not None and self.src1.bank is not RegisterBank.GPR:
                raise EncodingError(
                    f"{opcode.name}: address register {self.src1} must be a "
                    "GPR"
                )

    # ------------------------------------------------------------ encoding
    def field_values(self) -> dict[str, int]:
        """The per-field values for this op's Table 2 format.

        This is the view the tailored-ISA analysis consumes: every
        architectural field with its baseline value, reserved fields zero.
        """
        opcode = self.opcode
        values: dict[str, int] = {
            "t": int(self.tail),
            "s": int(self.speculative),
            "opt": opcode.optype.value,
            "opcode": opcode.code,
            "pred": self.predicate.index,
        }
        for name, get in _OPERAND_FIELDS[opcode.format_name]:
            values[name] = get(self) if get else 0
        return values

    def encode(self) -> int:
        """Encode to the baseline 40-bit word.

        Packs the fields from the opcode's plan.  A field out of range
        falls back to ``Format.encode`` of :meth:`field_values`, which
        raises the same error the plain path would.
        """
        word, operands = _ENCODE_PLANS[self.opcode]
        tail = int(self.tail)
        speculative = int(self.speculative)
        index = self.predicate.index
        if (
            0 <= tail <= 1
            and 0 <= speculative <= 1
            and 0 <= index <= _PRED_MAX
        ):
            word |= tail << T_SHIFT | speculative << S_SHIFT | index
            for get, shift, max_value in operands:
                value = get(self)
                if not 0 <= value <= max_value:
                    break
                word |= value << shift
            else:
                return word
        return self.format.encode(self.field_values())

    def encode_bytes(self) -> bytes:
        """Encode to the baseline 5-byte big-endian representation."""
        return self.encode().to_bytes(OP_BITS // 8, "big")

    @classmethod
    def decode(cls, word: int) -> "Operation":
        """Decode a 40-bit word back into an :class:`Operation`.

        Non-architectural information (the debug ``note``) is lost, and
        reserved fields must be zero — the encoders never set them.
        """
        if word < 0 or word >> OP_BITS:
            raise DecodingError(f"word {word:#x} is not a 40-bit pattern")
        # The T/S/OPT/OPCODE prefix is format independent: 9 leading bits.
        prefix = word >> (OP_BITS - 9)
        optype = (prefix >> 5) & 0x3
        code = prefix & 0x1F
        try:
            opcode = lookup(optype, code)
        except KeyError as exc:
            raise DecodingError(str(exc)) from None
        fields = FORMATS[opcode.format_name].decode(word)
        return cls._from_fields(opcode, fields)

    @classmethod
    def _from_fields(
        cls, opcode: Opcode, fields: dict[str, int]
    ) -> "Operation":
        arity = src_arity(opcode)
        dest = src1 = src2 = None
        imm = None
        target = None
        if "dest" in fields and opcode not in NO_DEST:
            dest = Register(_expected_dest_bank(opcode), fields["dest"])
        if "src1" in fields and arity >= 1:
            bank = (
                RegisterBank.GPR
                if opcode.is_memory
                else _expected_src_bank(opcode)
            )
            src1 = Register(bank, fields["src1"])
        if "src2" in fields and arity >= 2:
            bank = (
                RegisterBank.GPR
                if opcode is Opcode.ST
                else _expected_src_bank(opcode)
            )
            src2 = Register(bank, fields["src2"])
        if "imm" in fields:
            raw = fields["imm"]
            imm = raw - (1 << 20) if raw & (1 << 19) else raw
        if "target" in fields and opcode in (Opcode.BR, Opcode.CALL):
            target = fields["target"]
        kwargs: dict[str, object] = {
            "opcode": opcode,
            "dest": dest,
            "src1": src1,
            "src2": src2,
            "imm": imm,
            "predicate": pred(fields["pred"]),
            "tail": bool(fields["t"]),
            "speculative": bool(fields["s"]),
            "target_block": target,
        }
        if "bhwx" in fields:
            kwargs["bhwx"] = fields["bhwx"]
        if "lat" in fields:
            kwargs["lat"] = fields["lat"]
        if "counter" in fields:
            kwargs["counter"] = fields["counter"]
        return cls(**kwargs)  # type: ignore[arg-type]

    # ------------------------------------------------------------- helpers
    def with_tail(self, tail: bool) -> "Operation":
        """Copy of this op with the tail bit set/cleared.

        The copy skips ``__post_init__``: it differs from a validated op
        only in ``tail``, which no rule checks.
        """
        if tail == self.tail:
            return self
        copy = object.__new__(type(self))
        # Field by field, in declaration order: filling ``__dict__``
        # instead would give each copy its own dict, 128 bytes more.
        for name in _FIELD_NAMES:
            setattr(copy, name, getattr(self, name))
        copy.tail = tail
        return copy

    def __str__(self) -> str:
        parts = [self.opcode.name.lower()]
        if self.dest is not None:
            parts.append(str(self.dest))
        if self.src1 is not None:
            parts.append(str(self.src1))
        if self.src2 is not None:
            parts.append(str(self.src2))
        if self.imm is not None:
            parts.append(f"#{self.imm}")
        if self.target_block is not None:
            parts.append(f"@B{self.target_block}")
        text = f"{parts[0]} " + ", ".join(parts[1:]) if len(parts) > 1 \
            else parts[0]
        if self.predicate != TRUE_PREDICATE:
            text += f" ?{self.predicate}"
        if self.tail:
            text += " ;;"
        return text


#: :class:`Operation`'s fields in declaration order (see ``with_tail``).
_FIELD_NAMES = tuple(f.name for f in fields(Operation))


__all__ = [
    "BHWX_BYTE",
    "BHWX_DOUBLE",
    "BHWX_HALF",
    "BHWX_WORD",
    "DEFAULT_LOAD_LATENCY",
    "IMM_MAX",
    "IMM_MIN",
    "Operation",
]
