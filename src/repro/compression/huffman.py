"""Canonical Huffman coding.

The coder is deterministic: ties in the tree construction are broken by
symbol order, and code words are assigned canonically (sorted by length,
then symbol), which is also what makes hardware table decoding cheap.
Symbols are integers (bytes, bit-field values, or whole 40-bit ops).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Iterable, Mapping

from repro.errors import CompressionError
from repro.utils.bitstream import BitReader, BitWriter


def code_lengths_from_frequencies(
    frequencies: Mapping[int, int]
) -> dict[int, int]:
    """Optimal (unbounded) Huffman code lengths for ``frequencies``.

    A single-symbol alphabet gets length 1 — hardware still needs one bit
    to know when a symbol was consumed.
    """
    items = sorted(frequencies.items())
    if not items:
        raise CompressionError("cannot build a Huffman code for no symbols")
    for symbol, count in items:
        if count <= 0:
            raise CompressionError(
                f"symbol {symbol} has non-positive frequency {count}"
            )
    if len(items) == 1:
        return {items[0][0]: 1}
    # Heap of (weight, tiebreak, [symbols...]); merging two nodes adds one
    # bit to the depth of every symbol underneath.
    lengths = {symbol: 0 for symbol, _ in items}
    heap: list[tuple[int, int, list[int]]] = [
        (count, i, [symbol]) for i, (symbol, count) in enumerate(items)
    ]
    heapq.heapify(heap)
    next_tiebreak = len(items)
    while len(heap) > 1:
        w1, _, syms1 = heapq.heappop(heap)
        w2, _, syms2 = heapq.heappop(heap)
        for s in syms1:
            lengths[s] += 1
        for s in syms2:
            lengths[s] += 1
        syms1.extend(syms2)
        heapq.heappush(heap, (w1 + w2, next_tiebreak, syms1))
        next_tiebreak += 1
    return lengths


def canonical_codes(lengths: Mapping[int, int]) -> dict[int, tuple[int, int]]:
    """Assign canonical code words: ``{symbol: (code, length)}``.

    Symbols are sorted by (length, symbol); codes count upward, shifting
    left at each length increase.  The Kraft inequality is verified so an
    invalid length assignment cannot silently produce an ambiguous code.
    """
    if not lengths:
        raise CompressionError("no code lengths given")
    for symbol, length in lengths.items():
        if length <= 0:
            raise CompressionError(
                f"symbol {symbol} has non-positive code length {length}"
            )
    # Exact integer Kraft check: sum(2^-l) <= 1 iff, scaled by 2^L_max,
    # sum(2^(L_max - l)) <= 2^L_max.  Long bounded codes (L_max up to 64
    # and beyond) would pass or fail a floating-point version on rounding
    # alone — 2^-60 is far below one ulp at 1.0.
    max_length = max(lengths.values())
    kraft = sum(1 << (max_length - length) for length in lengths.values())
    if kraft > (1 << max_length):
        raise CompressionError(
            "code lengths violate the Kraft inequality "
            f"(sum {kraft}/2^{max_length})"
        )
    ordered = sorted(lengths.items(), key=lambda kv: (kv[1], kv[0]))
    codes: dict[int, tuple[int, int]] = {}
    code = 0
    previous_length = ordered[0][1]
    for symbol, length in ordered:
        code <<= length - previous_length
        codes[symbol] = (code, length)
        code += 1
        previous_length = length
    return codes


@dataclass(frozen=True)
class HuffmanCode:
    """An immutable canonical Huffman code over integer symbols."""

    codes: dict[int, tuple[int, int]]

    @classmethod
    def from_frequencies(
        cls,
        frequencies: Mapping[int, int],
        max_length: int | None = None,
    ) -> "HuffmanCode":
        """Build a code; bound code lengths to ``max_length`` if given.

        The bounded variant is the paper's answer to "Huffman will produce
        very long output codes that are incompatible with IFetch hardware"
        (Section 2.2); it uses the package–merge algorithm.
        """
        if max_length is None:
            lengths = code_lengths_from_frequencies(frequencies)
        else:
            from repro.compression.bounded import (
                length_limited_code_lengths,
            )

            lengths = length_limited_code_lengths(frequencies, max_length)
        return cls(canonical_codes(lengths))

    # ----------------------------------------------------------- queries
    @property
    def symbols(self) -> list[int]:
        return sorted(self.codes)

    @property
    def num_entries(self) -> int:
        """k in the paper's decoder model: dictionary entries."""
        return len(self.codes)

    @property
    def max_code_length(self) -> int:
        """n in the paper's decoder model: longest Huffman code (bits)."""
        return max(length for _, length in self.codes.values())

    def entry_width(self, symbol_bits: int) -> int:
        """m in the paper's decoder model: longest dictionary entry."""
        return symbol_bits

    def code_length(self, symbol: int) -> int:
        return self.codes[symbol][1]

    def expected_length(self, frequencies: Mapping[int, int]) -> float:
        """Average output bits per symbol under ``frequencies``."""
        total = sum(frequencies.values())
        if total == 0:
            raise CompressionError("empty frequency table")
        return (
            sum(
                count * self.codes[symbol][1]
                for symbol, count in frequencies.items()
            )
            / total
        )

    # ------------------------------------------------------ encode/decode
    def encode_symbol(self, symbol: int, writer: BitWriter) -> None:
        try:
            code, length = self.codes[symbol]
        except KeyError:
            raise CompressionError(
                f"symbol {symbol} not in the Huffman dictionary"
            ) from None
        writer.write(code, length)

    def encoded_length(self, symbols: Iterable[int]) -> int:
        return sum(self.codes[s][1] for s in symbols)

    def make_decoder(self) -> "HuffmanDecoder":
        """A decoder for this code, memoized on the code.

        Decoders are requested once per block decode, so caching them on
        the (immutable) code keeps the canonical-table build cost out of
        the per-block path.
        """
        decoder = self.__dict__.get("_decoder")
        if decoder is None:
            decoder = HuffmanDecoder(self)
            object.__setattr__(self, "_decoder", decoder)
        return decoder


class HuffmanDecoder:
    """Table decoder for a canonical code (software stand-in for the PLA).

    :meth:`decode_symbol` mirrors the canonical-Huffman hardware trick:
    one ``read`` of ``max_code_length`` bits, then a walk over a
    first-code/offset-per-length table — integer compares only, no
    per-length dict probes, no repeated reads.
    :meth:`decode_symbol_reference` is the original per-length
    dictionary walk, retained as the oracle the differential tests
    compare against.
    """

    __slots__ = ("_steps", "_max_length", "_by_length", "_lengths")

    def __init__(self, code: HuffmanCode) -> None:
        self._by_length: dict[int, dict[int, int]] = {}
        for symbol, (word, length) in code.codes.items():
            self._by_length.setdefault(length, {})[word] = symbol
        self._lengths = sorted(self._by_length)
        # Canonical tables: codes of one length are consecutive integers,
        # so each length needs only (first_code, limit, symbols-in-order).
        max_length = self._lengths[-1]
        self._max_length = max_length
        self._steps: list[tuple[int, int, int, int, list[int]]] = []
        for length in self._lengths:
            table = self._by_length[length]
            first = min(table)
            symbols = [table[word] for word in sorted(table)]
            self._steps.append(
                (
                    length,
                    max_length - length,  # window shift down to `length` bits
                    first,
                    first + len(symbols),  # one past the last code
                    symbols,
                )
            )

    def decode_symbol(self, reader: BitReader) -> int:
        """Consume one code word from ``reader`` and return its symbol."""
        pos = reader.position
        avail = reader.remaining
        max_length = self._max_length
        take = max_length if avail >= max_length else avail
        window = reader.read(take) << (max_length - take)
        for length, shift, first, limit, symbols in self._steps:
            prefix = window >> shift
            if prefix < limit:
                if prefix < first:
                    break  # a gap below this length's codes: invalid
                if length > avail:
                    raise EOFError(
                        f"read of {length} bits at offset {pos} passes "
                        f"end ({reader.bit_length} bits)"
                    )
                reader.seek(pos + length)
                return symbols[prefix - first]
        raise CompressionError(
            f"bit pattern {window:b} ({take} bits) matches no code word"
        )

    def decode_symbol_reference(self, reader: BitReader) -> int:
        """The original per-length dict walk (the retained reference)."""
        word = 0
        consumed = 0
        for length in self._lengths:
            word = (word << (length - consumed)) | reader.read(
                length - consumed
            )
            consumed = length
            table = self._by_length.get(length)
            if table is not None and word in table:
                return table[word]
        raise CompressionError(
            f"bit pattern {word:b} ({consumed} bits) matches no code word"
        )
