"""Bit-granular serialization used by the encoders and compressors.

The TEPIC image formats in this project are not byte aligned: operations are
40 bits in the baseline ISA, arbitrary widths in the tailored ISA, and
variable-length Huffman codes in the compressed encodings.  Encoders pack
each variable-width block (tailored ops, Huffman codes, dictionary tokens)
with :func:`pack_block`; decoders read it back with ``BitReader``.
Fixed-format 40-bit words are not packed at all:
:meth:`repro.isa.fields.Format.encode` ORs each field into the word at the
shift its format's precomputed layout gives it.

Bits are written most-significant-first within the stream, matching the way
instruction formats are drawn in the paper's Table 2 (bit 0 is the leftmost
``T`` bit).

A block is short (a few hundred bits to a few KB), so :func:`pack_block`
shifts its ``(value, width)`` pairs into one Python int and renders it
with a single ``to_bytes``.  The original chunk-list writer is retained
as :class:`ReferenceBitWriter`, the oracle the property and
differential tests prove :func:`pack_block` byte-identical to.
"""

from __future__ import annotations

from typing import Iterable


class ReferenceBitWriter:
    """The original chunk-list writer (retained as the reference path).

    ``to_int`` left-shifts a growing big integer once per chunk, which is
    O(n²) in total stream bits.  Kept so the tests always have a
    known-good writer to compare :func:`pack_block` against.
    """

    __slots__ = ("_chunks", "_bit_length")

    def __init__(self) -> None:
        self._chunks: list[tuple[int, int]] = []
        self._bit_length = 0

    def __len__(self) -> int:
        """Number of bits written so far."""
        return self._bit_length

    @property
    def bit_length(self) -> int:
        return self._bit_length

    def write(self, value: int, width: int) -> None:
        """Append ``width`` bits holding ``value`` (big-endian bit order)."""
        if width < 0:
            raise ValueError(f"negative width {width}")
        if value < 0:
            raise ValueError(f"negative value {value}; encode sign explicitly")
        if width == 0:
            if value:
                raise ValueError("nonzero value with zero width")
            return
        if value >> width:
            raise ValueError(f"value {value} does not fit in {width} bits")
        self._chunks.append((value, width))
        self._bit_length += width

    def write_bits(self, bits: str) -> None:
        """Append a string of '0'/'1' characters."""
        for ch in bits:
            if ch == "0":
                self.write(0, 1)
            elif ch == "1":
                self.write(1, 1)
            else:
                raise ValueError(f"invalid bit character {ch!r}")

    def align_to_byte(self) -> int:
        """Pad with zero bits to the next byte boundary; return pad count."""
        pad = (-self._bit_length) % 8
        if pad:
            self.write(0, pad)
        return pad

    def to_int(self) -> int:
        """Return the stream as a single integer (MSB = first bit written)."""
        acc = 0
        for value, width in self._chunks:
            acc = (acc << width) | value
        return acc

    def to_bytes(self) -> bytes:
        """Return the stream as bytes, zero-padded at the end to a byte."""
        total = self._bit_length
        acc = self.to_int()
        pad = (-total) % 8
        acc <<= pad
        return acc.to_bytes((total + pad) // 8, "big") if total else b""

    def to_bitstring(self) -> str:
        """Return the stream as a '0'/'1' string (debugging, tests)."""
        out = []
        for value, width in self._chunks:
            out.append(format(value, f"0{width}b") if width else "")
        return "".join(out)


def pack_block(pairs: Iterable[tuple[int, int]]) -> tuple[bytes, int]:
    """Pack MSB-first ``(value, width)`` pairs into one byte-aligned block.

    Returns ``(payload, bit_length)``: the bits zero-padded to a byte
    boundary, and the count before padding.  Each value must fit its
    width (the encoders' code tables and field layouts guarantee it);
    the compressors' round-trip checks catch any that would not.
    """
    acc = 0
    nbits = 0
    for value, width in pairs:
        acc = (acc << width) | value
        nbits += width
    pad = -nbits & 7
    return (acc << pad).to_bytes((nbits + pad) >> 3, "big"), nbits


class BitReader:
    """Reads an MSB-first bit stream produced by :func:`pack_block`."""

    __slots__ = ("_data", "_pos", "_bit_length")

    def __init__(self, data: bytes, bit_length: int | None = None) -> None:
        self._data = data
        self._pos = 0
        max_bits = len(data) * 8
        if bit_length is None:
            bit_length = max_bits
        if bit_length > max_bits:
            raise ValueError(
                f"bit_length {bit_length} exceeds data size {max_bits}"
            )
        self._bit_length = bit_length

    @property
    def position(self) -> int:
        """Current bit offset from the start of the stream."""
        return self._pos

    @property
    def bit_length(self) -> int:
        return self._bit_length

    @property
    def remaining(self) -> int:
        return self._bit_length - self._pos

    def seek(self, bit_offset: int) -> None:
        if not 0 <= bit_offset <= self._bit_length:
            raise ValueError(f"seek target {bit_offset} out of range")
        self._pos = bit_offset

    def read(self, width: int) -> int:
        """Read ``width`` bits and return them as an unsigned integer."""
        if width < 0:
            raise ValueError(f"negative width {width}")
        if width == 0:
            return 0
        pos = self._pos
        end = pos + width
        if end > self._bit_length:
            raise EOFError(
                f"read of {width} bits at offset {pos} passes end "
                f"({self._bit_length} bits)"
            )
        # One slice + one int covers the whole span; the tail shift drops
        # the bits past ``end`` inside the last byte.
        first = pos >> 3
        last = (end - 1) >> 3
        chunk = int.from_bytes(self._data[first : last + 1], "big")
        self._pos = end
        return (chunk >> (((last + 1) << 3) - end)) & ((1 << width) - 1)

    def read_bit(self) -> int:
        return self.read(1)

    def align_to_byte(self) -> int:
        """Skip to the next byte boundary; return number of bits skipped."""
        skip = (-self._pos) % 8
        if skip:
            self.read(skip)
        return skip
