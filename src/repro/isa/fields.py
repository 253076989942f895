"""Instruction-format machinery: named bit fields packed into fixed words.

A :class:`Format` is an ordered sequence of :class:`Field` objects whose
widths sum to the operation size (40 bits for baseline TEPIC).  Fields are
laid out MSB-first, matching how Table 2 draws the formats (bit 0 is the
leftmost ``T`` bit, bit 39 the last predicate bit).  Each format computes
its ``(name, shift, max_value)`` layout once, so encoding ORs every field
value into the word at its shift instead of streaming fields through a
bit writer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Mapping

from repro.errors import DecodingError, EncodingError


@dataclass(frozen=True)
class Field:
    """One named bit field inside an instruction format."""

    name: str
    width: int
    reserved: bool = False

    def __post_init__(self) -> None:
        if self.width <= 0:
            raise ValueError(f"field {self.name!r} has width {self.width}")

    @property
    def max_value(self) -> int:
        return (1 << self.width) - 1


class Format:
    """A fixed-width instruction format: an ordered tuple of fields."""

    def __init__(
        self, name: str, fields: tuple[Field, ...], total_bits: int
    ) -> None:
        width = sum(f.width for f in fields)
        if width != total_bits:
            raise ValueError(
                f"format {name!r} fields sum to {width} bits, "
                f"expected {total_bits}"
            )
        names = [f.name for f in fields]
        if len(set(names)) != len(names):
            raise ValueError(f"format {name!r} has duplicate field names")
        self.name = name
        self.fields = fields
        self.total_bits = total_bits
        self._by_name = {f.name: f for f in fields}
        self._names = frozenset(names)
        offsets: dict[str, int] = {}
        layout = []
        pos = 0
        for f in fields:
            offsets[f.name] = pos
            pos += f.width
            layout.append((f.name, total_bits - pos, f.max_value))
        self._offsets = offsets
        #: ``(name, shift, max_value)`` per field, MSB first.
        self.layout = tuple(layout)

    def __repr__(self) -> str:
        return f"Format({self.name!r}, {self.total_bits} bits)"

    def __iter__(self) -> Iterator[Field]:
        return iter(self.fields)

    def __contains__(self, field_name: str) -> bool:
        return field_name in self._by_name

    @property
    def field_names(self) -> tuple[str, ...]:
        return tuple(f.name for f in self.fields)

    def field(self, name: str) -> Field:
        try:
            return self._by_name[name]
        except KeyError:
            raise KeyError(
                f"format {self.name!r} has no field {name!r}"
            ) from None

    def offset_of(self, name: str) -> int:
        """Bit offset of a field from the front (MSB side) of the word."""
        return self._offsets[name]

    def shift_of(self, name: str) -> int:
        """Right shift that brings a field down to bit 0 of the word."""
        return self.total_bits - self._offsets[name] - self.field(name).width

    def encode(self, values: Mapping[str, int]) -> int:
        """Pack field ``values`` into the format's word.

        Fields absent from ``values`` (including reserved fields) encode as
        zero.  Unknown keys are an error so that callers cannot silently
        drop information.
        """
        if not self._names.issuperset(values):
            unknown = set(values) - self._names
            raise EncodingError(
                f"format {self.name!r}: unknown fields {sorted(unknown)}"
            )
        word = 0
        get = values.get
        for name, shift, max_value in self.layout:
            value = get(name, 0)
            if not 0 <= value <= max_value:
                raise EncodingError(
                    f"format {self.name!r}: value {value} does not fit "
                    f"field {name!r} ({max_value.bit_length()} bits)"
                )
            word |= value << shift
        return word

    def decode(self, word: int) -> dict[str, int]:
        """Unpack a word into a ``{field_name: value}`` mapping."""
        if word < 0 or word >> self.total_bits:
            raise DecodingError(
                f"word {word:#x} does not fit {self.total_bits} bits"
            )
        out: dict[str, int] = {}
        remaining = self.total_bits
        for f in self.fields:
            remaining -= f.width
            out[f.name] = (word >> remaining) & f.max_value
        return out
