"""Field-usage analysis for tailored-ISA synthesis.

Reads a program's baseline op words recording, per Table 2 format, the
value range every architectural field actually takes ("If the program
uses less than eight floating-point operations, the FP OpCode field only
needs three bits.  Similarly, after register allocation, if no more than
four registers ... it needs only two bits").  Every field is a fixed bit
slice of the 40-bit word, so the ranges come from the distinct words
grouped by their 7-bit (opt, opcode) prefix, one shift and mask per
field and group.  The resulting :class:`TailoredSpec` fixes:

* a 1-bit tail flag and a fixed-width opcode selector at the front of
  every op (the fixed-position decode guarantee of Section 2.3),
* per-format narrowed field widths — reserved fields and all-zero fields
  vanish entirely.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from repro.compression.schemes import BlockWords, block_words
from repro.errors import EncodingError
from repro.isa.fields import Format
from repro.isa.formats import (
    FORMATS,
    OPCODE_PREFIX_MASK,
    OPCODE_PREFIX_SHIFT,
    S_SHIFT,
)
from repro.isa.image import ProgramImage
from repro.isa.opcodes import FormatName, Opcode, lookup

#: Fields that move into the fixed tailored header.
HEADER_FIELDS = ("t", "opt", "opcode")

#: The one signed field in the baseline ISA (20-bit load immediate).
SIGNED_FIELDS = ("imm",)


def _signed_width(lo: int, hi: int) -> int:
    """Bits of two's complement needed to hold every value in [lo, hi]."""
    if lo == 0 and hi == 0:
        return 0
    width = 1
    while not (-(1 << (width - 1)) <= lo and hi < (1 << (width - 1))):
        width += 1
        if width > 64:
            raise EncodingError(f"range [{lo}, {hi}] too wide")
    return width


@dataclass
class FieldUsage:
    """Observed value range of one field in one format."""

    name: str
    baseline_width: int
    signed: bool = False
    min_value: int = 0
    max_value: int = 0
    seen: bool = False

    def observe(self, value: int) -> None:
        if not self.seen:
            self.min_value = self.max_value = value
            self.seen = True
        else:
            self.min_value = min(self.min_value, value)
            self.max_value = max(self.max_value, value)

    @property
    def tailored_width(self) -> int:
        """Bits needed for the observed range (0 when always zero)."""
        if not self.seen or (self.min_value == 0 and self.max_value == 0):
            return 0
        if self.signed:
            return _signed_width(self.min_value, self.max_value)
        if self.min_value < 0:
            raise EncodingError(
                f"unsigned field {self.name!r} saw negative value"
            )
        return self.max_value.bit_length()


@dataclass
class TailoredFormat:
    """The narrowed body layout of one baseline format."""

    name: FormatName
    fields: list[FieldUsage] = field(default_factory=list)

    @property
    def body_width(self) -> int:
        return sum(f.tailored_width for f in self.fields)


@dataclass
class TailoredSpec:
    """A complete tailored encoding for one program."""

    program: str
    opcode_selector: dict[Opcode, int]
    selector_width: int
    formats: dict[FormatName, TailoredFormat]
    speculative_used: bool

    @property
    def header_width(self) -> int:
        """Tail bit + speculative bit (if used) + opcode selector."""
        return 1 + (1 if self.speculative_used else 0) + self.selector_width

    def op_width(self, opcode: Opcode) -> int:
        """Total tailored width of an op with ``opcode``."""
        return self.header_width + self.formats[opcode.format_name].body_width

    def opcode_for_selector(self, selector: int) -> Opcode:
        for opcode, sel in self.opcode_selector.items():
            if sel == selector:
                return opcode
        raise EncodingError(f"selector {selector} maps to no opcode")

    @cached_property
    def decode_table(self) -> list:
        """Per selector (``None`` where no opcode has it): the baseline
        word holding only the opcode's (opt, opcode) prefix, the op's
        body width, and ``(body_shift, mask, word_shift, fill)`` per
        body field of non-zero tailored width.  A field is
        ``body >> body_shift & mask`` in the tailored body and lands at
        ``word_shift`` in the baseline word; ``fill`` is the baseline
        field's bits above the tailored width (0 for unsigned fields),
        set when the field's sign bit is.

        Built on first use; not pickled (see :meth:`__getstate__`).
        """
        table: list = [None] * (1 << self.selector_width)
        for opcode, selector in self.opcode_selector.items():
            fmt = FORMATS[opcode.format_name]
            used = [
                fu
                for fu in self.formats[opcode.format_name].fields
                if fu.tailored_width
            ]
            body_shift = sum(fu.tailored_width for fu in used)
            fields = []
            for fu in used:
                width = fu.tailored_width
                body_shift -= width
                mask = (1 << width) - 1
                fill = fmt.field(fu.name).max_value ^ mask if fu.signed else 0
                fields.append(
                    (body_shift, mask, fmt.shift_of(fu.name), fill)
                )
            prefix = fmt.encode(
                {"opt": opcode.optype.value, "opcode": opcode.code}
            )
            table[selector] = (
                prefix,
                self.formats[opcode.format_name].body_width,
                tuple(fields),
            )
        return table

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state.pop("decode_table", None)
        return state

    def describe(self) -> str:
        """Human-readable layout summary (README/examples)."""
        lines = [
            f"tailored ISA for {self.program!r}: "
            f"{len(self.opcode_selector)} opcodes, "
            f"{self.selector_width}-bit selector, header "
            f"{self.header_width} bits"
        ]
        for name, tf in sorted(self.formats.items(), key=lambda kv: kv[0].value):
            parts = ", ".join(
                f"{f.name}:{f.tailored_width}"
                for f in tf.fields
                if f.tailored_width
            )
            lines.append(
                f"  {name.value:9s} body {tf.body_width:2d} bits"
                + (f"  ({parts})" if parts else "  (no body fields)")
            )
        return "\n".join(lines)


def prefix_opcode(prefix: int) -> Opcode:
    """The opcode a 7-bit (opt, opcode) prefix names."""
    return lookup(prefix >> 5, prefix & 0x1F)


def analyze_words(words: BlockWords, program: str) -> TailoredSpec:
    """Build the tailored encoding spec from a program's op words.

    The selector numbers the opcodes used in (opt, opcode) order, which
    is the order of their prefixes.
    """
    groups: dict[int, list[int]] = {}
    for word in set().union(*words):
        prefix = word >> OPCODE_PREFIX_SHIFT & OPCODE_PREFIX_MASK
        groups.setdefault(prefix, []).append(word)
    if not groups:
        raise EncodingError("cannot tailor an empty program")
    selector: dict[Opcode, int] = {}
    formats: dict[FormatName, TailoredFormat] = {}
    speculative_used = False
    for prefix in sorted(groups):
        opcode = prefix_opcode(prefix)
        selector[opcode] = len(selector)
        name = opcode.format_name
        fmt = FORMATS[name]
        if name not in formats:
            formats[name] = _empty_format(name, fmt)
        group = groups[prefix]
        speculative_used = speculative_used or any(
            word >> S_SHIFT & 1 for word in group
        )
        for fu in formats[name].fields:
            shift = fmt.shift_of(fu.name)
            mask = fmt.field(fu.name).max_value
            values = [word >> shift & mask for word in group]
            if fu.signed:
                top = 1 << (fu.baseline_width - 1)
                values = [(value ^ top) - top for value in values]
            fu.observe(min(values))
            fu.observe(max(values))
    return TailoredSpec(
        program=program,
        opcode_selector=selector,
        selector_width=max(1, (len(selector) - 1).bit_length()),
        formats=formats,
        speculative_used=speculative_used,
    )


def analyze_image(image: ProgramImage) -> TailoredSpec:
    """Build the tailored encoding spec from a program's static code."""
    return analyze_words(block_words(image), image.name)


def _empty_format(name: FormatName, fmt: Format) -> TailoredFormat:
    fields: list[FieldUsage] = []
    for f in fmt:
        if f.name in HEADER_FIELDS or f.name == "s" or f.reserved:
            continue
        fields.append(
            FieldUsage(
                name=f.name,
                baseline_width=f.width,
                signed=f.name in SIGNED_FIELDS,
            )
        )
    return TailoredFormat(name=name, fields=fields)
