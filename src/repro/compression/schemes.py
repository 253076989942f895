"""Compression schemes: drivers that re-encode a program image.

Every scheme consumes a :class:`~repro.isa.image.ProgramImage`, builds its
per-program Huffman dictionaries from the *static* code (the favourable
embedded-systems circumstance the paper points out: the whole image is
available to the compression algorithm), and produces a
:class:`CompressedImage` whose blocks are byte aligned so the first op of a
block is addressable by normal memories (Section 3.3).

Every scheme can also *decompress* what it compressed; tests verify the
round trip bit-exactly, standing in for the hardware decoder's
correctness.

The schemes read the image's baseline 40-bit op words (:data:`BlockWords`),
not its ops.  A study encodes them once and hands the same immutable
tuple to every scheme through :meth:`CompressionScheme.with_words`; a
caller that attaches none gets :func:`block_words` of the image, encoded
for that call.  Ops are mutable, so nothing caches words on an op, a
block or an image.

Every encoder packs a block as one integer
(:func:`~repro.utils.bitstream.pack_block`) from ``(code, length)`` pairs.
The byte, stream, full-op and tailored codes give each distinct word one
pair (its symbols' code words concatenated, or its tailored fields), so a
block is one table lookup per op (:func:`pack_words`).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Optional, Sequence

from repro.compression.alphabets import StreamConfig
from repro.compression.huffman import (
    HuffmanCode,
    HuffmanDecoder,
    pack_symbols,
)
from repro.errors import CompressionError
from repro.isa.formats import OP_BITS
from repro.isa.image import OP_BYTES, ProgramImage

#: Hardware-imposed ceiling on Huffman code length (Section 2.2: codes
#: "incompatible with IFetch hardware" are avoided by bounding).
DEFAULT_MAX_CODE_LENGTH = 16


#: Every block's baseline 40-bit op words, in block then op order.
BlockWords = tuple[tuple[int, ...], ...]


def block_words(image: ProgramImage) -> BlockWords:
    """Every block's baseline 40-bit op words, encoded once, in order."""
    return tuple(
        tuple([op.encode() for mop in block.mops for op in mop.ops])
        for block in image
    )


def baseline_bytes(words: Sequence[int]) -> bytes:
    """A block's baseline encoding: each 40-bit word, big endian."""
    return b"".join([word.to_bytes(OP_BYTES, "big") for word in words])


@dataclass(frozen=True)
class StreamTable:
    """One compression stream: its code and decoder-model parameters."""

    code: HuffmanCode
    symbol_bits: int  # m: widest dictionary entry for this stream

    @property
    def n(self) -> int:
        return self.code.max_code_length

    @property
    def k(self) -> int:
        return self.code.num_entries

    @property
    def m(self) -> int:
        return self.symbol_bits

    @property
    def table_bits(self) -> int:
        """Static dictionary storage: k entries of m bits."""
        return self.k * self.m


class CompressedImage:
    """A program image re-encoded under one scheme.

    Holds the per-block payload bytes and sizes; the fetch simulators and
    the power model consume these, and :meth:`decode_block` verifies them.

    A pickled compressed image (an artifact-store entry) holds only what
    the compress stage computed.  The :class:`ProgramImage` it encodes is
    the compile stage's output, so it is left out and :meth:`bind` puts it
    back; ``ProgramStudy.compressed`` binds the study's own image.
    """

    def __init__(
        self,
        scheme: "CompressionScheme",
        image: ProgramImage,
        block_payloads: Sequence[bytes],
        block_bit_lengths: Sequence[int],
        streams: Sequence[StreamTable],
    ) -> None:
        if len(block_payloads) != len(image):
            raise CompressionError("payload count != block count")
        self.scheme = scheme
        self._image: Optional[ProgramImage] = image
        self.block_payloads = list(block_payloads)
        self.block_bit_lengths = list(block_bit_lengths)
        self.streams = list(streams)
        offsets = []
        cursor = 0
        for payload in self.block_payloads:
            offsets.append(cursor)
            cursor += len(payload)
        self.block_offsets = offsets
        self.total_code_bytes = cursor

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state["_image"] = None
        return state

    @property
    def image(self) -> ProgramImage:
        """The program image these payloads encode."""
        if self._image is None:
            raise CompressionError(
                f"{self.scheme_name!r} compressed image is not bound to its "
                "program image; read it through ProgramStudy.compressed "
                "or call bind()"
            )
        return self._image

    def bind(self, image: ProgramImage) -> "CompressedImage":
        """Attach the program image an unpickled copy was compressed from."""
        if len(image) != len(self.block_payloads):
            raise CompressionError(
                f"cannot bind a {len(self.block_payloads)}-block "
                f"compressed image to a {len(image)}-block program"
            )
        self._image = image
        return self

    @property
    def scheme_name(self) -> str:
        return self.scheme.name

    @property
    def scheme_tag_bits(self) -> int:
        """ATT bits per entry spent naming the block's decoder.

        Single-scheme images need none; per-block adaptive images (see
        :mod:`repro.compression.adaptive`) override this, and
        :func:`repro.fetch.atb.att_entry_bits` charges it.
        """
        return 0

    def block_scheme_tags(self) -> Optional[Sequence[str]]:
        """Per-block fetch-scheme tags, or ``None`` for uniform images.

        When present, entry ``i`` names the penalty family
        (``"tailored"`` or ``"compressed"``) block ``i`` decodes and is
        accounted under; the reference fetch engine and the sweep
        columns both honor it.
        """
        return None

    def block_bytes(self, block_id: int) -> bytes:
        return self.block_payloads[block_id]

    def block_size(self, block_id: int) -> int:
        """Byte size of a block in this encoding (byte aligned)."""
        return len(self.block_payloads[block_id])

    def block_offset(self, block_id: int) -> int:
        """Byte address of a block within the compressed code segment."""
        return self.block_offsets[block_id]

    @property
    def table_bytes(self) -> int:
        """Static dictionary storage shipped in ROM, in bytes."""
        total_bits = sum(s.table_bits for s in self.streams)
        return (total_bits + 7) // 8

    def ratio_percent(self) -> float:
        """Code-segment size as % of the baseline (the Figure 5 metric)."""
        return 100.0 * self.total_code_bytes / self.image.baseline_code_bytes

    def decode_block(self, block_id: int) -> list[int]:
        """Decompress one block back to its 40-bit op words."""
        return self.scheme.decode_block(self, block_id)

    def verify(self) -> None:
        """Round-trip every block; raises on any mismatch.

        The expected words are encoded afresh from the ops, never taken
        from the words the payloads were built from: this is the
        independent check.
        """
        for block in self.image:
            expected = [op.encode() for op in block.ops]
            actual = self.decode_block(block.block_id)
            if actual != expected:
                raise CompressionError(
                    f"scheme {self.scheme_name!r} mis-decodes block "
                    f"{block.block_id} ({block.label})"
                )


class CompressionScheme:
    """Base class: compress a program image block by block.

    Subclasses implement :meth:`_compress`, which receives the image's
    op words (:data:`BlockWords`) alongside the image.
    """

    #: Short identifier used in reports (e.g. ``full``, ``byte``).
    name: str = "abstract"

    def __init__(
        self, max_code_length: Optional[int] = DEFAULT_MAX_CODE_LENGTH
    ) -> None:
        self.max_code_length = max_code_length

    def with_words(self, words: BlockWords) -> "CompressionScheme":
        """Attach the image's op words for the next :meth:`compress`.

        ``ProgramStudy`` encodes its image once and attaches the same
        words to every scheme.  ``compress`` consumes them, so the scheme
        a compressed image keeps (and the store pickles) holds none.
        """
        self._words = words
        return self

    def compress(self, image: ProgramImage) -> CompressedImage:
        """Re-encode ``image`` from the attached words, else its own."""
        words = self.__dict__.pop("_words", None)
        if words is None:
            words = self._own_words(image)
        elif len(words) != len(image):
            raise CompressionError(
                f"{len(words)} blocks of op words for a "
                f"{len(image)}-block image"
            )
        return self._compress(image, words)

    def _own_words(self, image: ProgramImage) -> Sequence:
        """The words :meth:`_compress` needs when none were attached."""
        return block_words(image)

    def _compress(
        self, image: ProgramImage, words: Sequence
    ) -> CompressedImage:
        raise NotImplementedError

    def decode_block(
        self, compressed: CompressedImage, block_id: int
    ) -> list[int]:
        raise NotImplementedError

    # ------------------------------------------------------------ helpers
    def _build_code(self, frequencies: Counter) -> HuffmanCode:
        return HuffmanCode.from_frequencies(
            frequencies, max_length=self.max_code_length
        )


class BaselineScheme(CompressionScheme):
    """The identity encoding: baseline 40-bit TEPIC (the paper's "Base")."""

    name = "base"

    def __init__(self) -> None:
        super().__init__(max_code_length=None)

    def _compress(
        self, image: ProgramImage, words: BlockWords
    ) -> CompressedImage:
        payloads = [baseline_bytes(block) for block in words]
        bits = [len(block) * OP_BITS for block in words]
        return CompressedImage(self, image, payloads, bits, streams=())

    def decode_block(
        self, compressed: CompressedImage, block_id: int
    ) -> list[int]:
        payload = compressed.block_bytes(block_id)
        return [
            int.from_bytes(payload[i : i + OP_BYTES], "big")
            for i in range(0, len(payload), OP_BYTES)
        ]


class ByteHuffmanScheme(CompressionScheme):
    """Wolfe-style byte-alphabet Huffman: smallest decoder, ~72% size.

    Byte-oriented decompressors keep their code words short — the
    "limited input width and dictionary size" the paper credits for the
    small decoder — so this scheme bounds code lengths to 10 bits by
    default (Wolfe's designs used comparably short bounded codes).
    """

    name = "byte"

    #: Default code-length bound for the byte alphabet.
    BYTE_MAX_CODE_LENGTH = 10

    def __init__(
        self, max_code_length: Optional[int] = BYTE_MAX_CODE_LENGTH
    ) -> None:
        super().__init__(max_code_length)

    def _compress(
        self, image: ProgramImage, words: BlockWords
    ) -> CompressedImage:
        code = self._build_code(
            Counter(b"".join([baseline_bytes(block) for block in words]))
        )
        tables = [code.codes] * OP_BYTES
        word_codes = _word_codes(
            {word: word.to_bytes(OP_BYTES, "big") for block in words
             for word in block},
            tables,
        )
        payloads, bit_lengths = pack_words(words, word_codes)
        streams = (StreamTable(code, symbol_bits=8),)
        return CompressedImage(self, image, payloads, bit_lengths, streams)

    def decode_block(
        self, compressed: CompressedImage, block_id: int
    ) -> list[int]:
        from repro.utils.bitstream import BitReader

        decoder = compressed.streams[0].code.make_decoder()
        reader = BitReader(compressed.block_bytes(block_id))
        n_bytes = (
            compressed.image.block(block_id).op_count * OP_BYTES
        )
        raw = bytes(decoder.decode_symbol(reader) for _ in range(n_bytes))
        return [
            int.from_bytes(raw[i : i + OP_BYTES], "big")
            for i in range(0, len(raw), OP_BYTES)
        ]


class StreamHuffmanScheme(CompressionScheme):
    """Fixed-boundary stream Huffman (paper Figure 3).

    Each op contributes one symbol to each stream; streams have independent
    per-program dictionaries.  Symbols are written op-sequentially (all of
    op i's streams before op i+1) so a block decompresses front to back.
    """

    def __init__(
        self,
        config: StreamConfig,
        max_code_length: Optional[int] = DEFAULT_MAX_CODE_LENGTH,
    ) -> None:
        super().__init__(max_code_length)
        self.config = config
        self.name = config.name

    def _compress(
        self, image: ProgramImage, words: BlockWords
    ) -> CompressedImage:
        # Every op contributes one symbol per stream, so a word's code is
        # its streams' code words concatenated: each distinct word is
        # split and looked up once.
        counts = Counter(word for block in words for word in block)
        split = self.config.split
        rows = {word: split(word) for word in counts}
        histograms = [Counter() for _ in range(self.config.num_streams)]
        for word, row in rows.items():
            count = counts[word]
            for histogram, symbol in zip(histograms, row):
                histogram[symbol] += count
        codes = [self._build_code(h) for h in histograms]
        word_codes = _word_codes(rows, [code.codes for code in codes])
        payloads, bit_lengths = pack_words(words, word_codes)
        streams = tuple(
            StreamTable(code, symbol_bits=width)
            for code, width in zip(codes, self.config.widths)
        )
        return CompressedImage(self, image, payloads, bit_lengths, streams)

    def decode_block(
        self, compressed: CompressedImage, block_id: int
    ) -> list[int]:
        from repro.utils.bitstream import BitReader

        decoders = [s.code.make_decoder() for s in compressed.streams]
        reader = BitReader(compressed.block_bytes(block_id))
        words = []
        for _ in range(compressed.image.block(block_id).op_count):
            symbols = tuple(d.decode_symbol(reader) for d in decoders)
            words.append(self.config.join(symbols))
        return words


class FullOpHuffmanScheme(CompressionScheme):
    """Whole-op alphabet: one symbol per 40-bit operation.

    The paper's best compressor (~30% of original): "the size of the
    popular ADD instruction often went down from 40 to 6 bits, and none of
    the codes exceed the original op size" — the latter holds for any
    Huffman code whose alphabet has at most 2^40 entries, and tests check
    it directly.
    """

    name = "full"

    def __init__(
        self, max_code_length: Optional[int] = DEFAULT_MAX_CODE_LENGTH
    ) -> None:
        super().__init__(max_code_length)

    def _compress(
        self, image: ProgramImage, words: BlockWords
    ) -> CompressedImage:
        histogram: Counter = Counter()
        for block in words:
            histogram.update(block)
        code = self._build_code(histogram)
        payloads, bit_lengths = pack_words(words, code.codes)
        streams = (StreamTable(code, symbol_bits=OP_BITS),)
        return CompressedImage(self, image, payloads, bit_lengths, streams)

    def decode_block(
        self, compressed: CompressedImage, block_id: int
    ) -> list[int]:
        from repro.utils.bitstream import BitReader

        decoder: HuffmanDecoder = compressed.streams[0].code.make_decoder()
        reader = BitReader(compressed.block_bytes(block_id))
        return [
            decoder.decode_symbol(reader)
            for _ in range(compressed.image.block(block_id).op_count)
        ]


def _word_codes(
    rows: dict[int, Sequence[int]],
    tables: Sequence[dict[int, tuple[int, int]]],
) -> dict[int, tuple[int, int]]:
    """Each word's ``(code, length)``: its row's code words concatenated.

    ``rows[word][i]`` is the word's symbol under ``tables[i]``.
    """
    word_codes = {}
    for word, row in rows.items():
        code = length = 0
        for table, symbol in zip(tables, row):
            bits, width = table[symbol]
            code = (code << width) | bits
            length += width
        word_codes[word] = (code, length)
    return word_codes


def pack_words(
    words: BlockWords, word_codes: dict[int, tuple[int, int]]
) -> tuple[list[bytes], list[int]]:
    """Pack every block as one ``word_codes`` pair per op."""
    payloads: list[bytes] = []
    bit_lengths: list[int] = []
    for block in words:
        payload, bits = pack_symbols(word_codes, block)
        payloads.append(payload)
        bit_lengths.append(bits)
    return payloads, bit_lengths
