"""Sequence-dictionary compression (the paper's "beyond Huffman" item).

Section 7 lists "different compression schemes beyond Huffman" as future
work, and Section 6 discusses Liao et al.'s External-Pointer-Model
dictionary compressor.  This scheme is that family adapted to the
block-atomic fetch model:

* a static dictionary of frequent *op sequences* (2–4 whole 40-bit ops)
  is chosen greedily by estimated bit savings,
* each block is encoded as a token stream — a 1-bit flag selecting
  either a dictionary reference (index into the sequence table) or a
  40-bit literal op — scanned greedily longest-match-first,
* blocks stay independently decodable and byte aligned, so the ATB/fetch
  machinery is unchanged; the "decoder" is a dictionary lookup (SRAM),
  not a Huffman tree.

Compression is weaker than whole-op Huffman (no sub-bit precision for
popular single ops) but the decode path is a single indexed read —
the trade-off Liao's call-dictionary made.
"""

from __future__ import annotations

from collections import Counter
from typing import Sequence

from repro.compression.schemes import (
    BlockWords,
    CompressedImage,
    CompressionScheme,
)
from repro.errors import CompressionError
from repro.isa.formats import OP_BITS
from repro.isa.image import ProgramImage
from repro.utils.bitstream import BitReader, pack_block

#: Sequence lengths considered for dictionary entries.
MIN_SEQ = 2
MAX_SEQ = 4

#: Dictionary capacity (index width = 8 bits).
DEFAULT_ENTRIES = 256


class DictionaryImage(CompressedImage):
    """Compressed image carrying the sequence dictionary."""

    def __init__(
        self, dictionary: list[tuple[int, ...]], *args, **kwargs
    ) -> None:
        super().__init__(*args, **kwargs)
        self.dictionary = dictionary

    @property
    def index_bits(self) -> int:
        return max(1, (max(1, len(self.dictionary)) - 1).bit_length())

    @property
    def table_bytes(self) -> int:
        """Dictionary ROM: every stored sequence plus a length field."""
        bits = sum(
            len(seq) * OP_BITS + 2 for seq in self.dictionary
        )
        return (bits + 7) // 8


class DictionaryScheme(CompressionScheme):
    """Greedy sequence-dictionary compressor over whole ops."""

    name = "dict"

    def __init__(self, max_entries: int = DEFAULT_ENTRIES) -> None:
        super().__init__(max_code_length=None)
        if max_entries < 1:
            raise CompressionError("dictionary needs at least one entry")
        self.max_entries = max_entries

    # ----------------------------------------------------------- build
    @staticmethod
    def _candidate_counts(all_words: BlockWords) -> Counter:
        counts: Counter = Counter()
        for words in all_words:
            for length in range(MIN_SEQ, MAX_SEQ + 1):
                for i in range(len(words) - length + 1):
                    counts[words[i : i + length]] += 1
        return counts

    def _select_dictionary(
        self, counts: Counter, index_bits: int
    ) -> list[tuple[int, ...]]:
        def savings(item: tuple[tuple[int, ...], int]) -> int:
            seq, count = item
            per_use = len(seq) * (OP_BITS + 1) - (1 + index_bits)
            storage = len(seq) * OP_BITS + 2
            return count * per_use - storage

        ranked = sorted(counts.items(), key=savings, reverse=True)
        picked = [
            seq for seq, _ in ranked[: self.max_entries]
            if savings((seq, counts[seq])) > 0
        ]
        return picked

    def _compress(
        self, image: ProgramImage, all_words: BlockWords
    ) -> DictionaryImage:
        index_bits = max(1, (self.max_entries - 1).bit_length())
        dictionary = self._select_dictionary(
            self._candidate_counts(all_words), index_bits
        )
        by_sequence = {seq: i for i, seq in enumerate(dictionary)}
        index_bits = max(1, (max(1, len(dictionary)) - 1).bit_length())
        # Each token is one pair: a 1-bit flag, then an index or a literal.
        reference = 1 << index_bits
        payloads = []
        bit_lengths = []
        for words in all_words:
            tokens = []
            i = 0
            while i < len(words):
                match = None
                for length in range(
                    min(MAX_SEQ, len(words) - i), MIN_SEQ - 1, -1
                ):
                    candidate = words[i : i + length]
                    if candidate in by_sequence:
                        match = candidate
                        break
                if match is not None:
                    tokens.append(
                        (reference | by_sequence[match], 1 + index_bits)
                    )
                    i += len(match)
                else:
                    tokens.append((words[i], 1 + OP_BITS))
                    i += 1
            payload, bits = pack_block(tokens)
            payloads.append(payload)
            bit_lengths.append(bits)
        return DictionaryImage(
            dictionary, self, image, payloads, bit_lengths, streams=()
        )

    # ---------------------------------------------------------- decode
    def decode_block(
        self, compressed: CompressedImage, block_id: int
    ) -> list[int]:
        if not isinstance(compressed, DictionaryImage):
            raise CompressionError(
                "dictionary decode requires a DictionaryImage"
            )
        reader = BitReader(compressed.block_bytes(block_id))
        expected = compressed.image.block(block_id).op_count
        index_bits = compressed.index_bits
        words: list[int] = []
        while len(words) < expected:
            if reader.read(1):
                index = reader.read(index_bits)
                try:
                    words.extend(compressed.dictionary[index])
                except IndexError:
                    raise CompressionError(
                        f"dictionary index {index} out of range"
                    ) from None
            else:
                words.append(reader.read(OP_BITS))
        if len(words) != expected:
            raise CompressionError(
                f"block {block_id}: token stream decoded {len(words)} "
                f"ops, expected {expected}"
            )
        return words
