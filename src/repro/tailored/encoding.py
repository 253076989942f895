"""Tailored-ISA image re-encoding.

:class:`TailoredScheme` implements the same interface as the Huffman
compressors so the experiment layer treats every encoding uniformly, but
it performs *no entropy coding*: each op is its fixed tailored width
(header + narrowed format body).  Decoding therefore needs no dictionary
— only the PLA programmed from the spec (see
:mod:`repro.tailored.verilog`), which is the paper's argument for the
scheme's low hardware cost.

The encoding reads the baseline op words, like every other scheme.  Each
tailored field is a bit slice of the baseline word, so
:func:`word_codes` gives each distinct word one ``(bits, width)`` pair,
resolving each opcode's selector and body layout once, and a block
packs with :func:`~repro.compression.schemes.pack_words` like the
byte, stream and full-op codes.
"""

from __future__ import annotations

from typing import Iterable

from repro.compression.schemes import (
    BlockWords,
    CompressedImage,
    CompressionScheme,
    pack_words,
)
from repro.errors import CompressionError, EncodingError
from repro.isa.formats import (
    FORMATS,
    OPCODE_PREFIX_MASK,
    OPCODE_PREFIX_SHIFT,
    S_SHIFT,
    T_SHIFT,
)
from repro.isa.image import ProgramImage
from repro.tailored.analysis import (
    TailoredSpec,
    analyze_words,
    prefix_opcode,
)
from repro.utils.bitstream import BitReader


def word_codes(
    spec: TailoredSpec, words: Iterable[int]
) -> dict[int, tuple[int, int]]:
    """Each distinct word's ``(bits, width)`` in ``spec``'s ISA.

    The header is the tail bit, the speculative bit when the spec keeps
    one, and the opcode's selector.  Each opcode's selector and body
    layout — ``(shift, width)`` per field of non-zero tailored width —
    are resolved once, not once per word.
    """
    speculative_used = spec.speculative_used
    selector_width = spec.selector_width
    plans: dict[int, tuple] = {}
    codes: dict[int, tuple[int, int]] = {}
    for word in words:
        prefix = word >> OPCODE_PREFIX_SHIFT & OPCODE_PREFIX_MASK
        plan = plans.get(prefix)
        if plan is None:
            opcode = prefix_opcode(prefix)
            fmt = FORMATS[opcode.format_name]
            body = tuple(
                (fmt.shift_of(fu.name), fu.tailored_width)
                for fu in spec.formats[opcode.format_name].fields
                if fu.tailored_width
            )
            plan = plans[prefix] = (
                spec.opcode_selector[opcode], body, spec.op_width(opcode)
            )
        selector, body, width = plan
        bits = word >> T_SHIFT
        if speculative_used:
            bits = bits << 1 | word >> S_SHIFT & 1
        bits = bits << selector_width | selector
        for shift, field_width in body:
            bits = bits << field_width | (
                word >> shift & ((1 << field_width) - 1)
            )
        codes[word] = (bits, width)
    return codes


class TailoredImage(CompressedImage):
    """A compressed image that also carries its tailored spec."""

    def __init__(self, spec: TailoredSpec, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.spec = spec


class TailoredScheme(CompressionScheme):
    """Re-encode a program in its custom-tailored ISA."""

    name = "tailored"

    def __init__(self) -> None:
        super().__init__(max_code_length=None)

    # ------------------------------------------------------------ encode
    def _compress(
        self, image: ProgramImage, words: BlockWords
    ) -> TailoredImage:
        spec = analyze_words(words, image.name)
        payloads, bit_lengths = pack_words(
            words, word_codes(spec, set().union(*words))
        )
        return TailoredImage(
            spec, self, image, payloads, bit_lengths, streams=()
        )

    # ------------------------------------------------------------ decode
    def decode_block(
        self, compressed: CompressedImage, block_id: int
    ) -> list[int]:
        if not isinstance(compressed, TailoredImage):
            raise CompressionError(
                "tailored decode requires a TailoredImage"
            )
        return decode_ops(
            compressed.spec,
            BitReader(compressed.block_bytes(block_id)),
            compressed.image.block(block_id).op_count,
        )


def decode_ops(spec: TailoredSpec, reader: BitReader, count: int) -> list[int]:
    """The baseline words of ``count`` tailored ops read from ``reader``.

    Each op is two reads, its header and its body, unpacked into the
    baseline word through ``spec``'s :attr:`~TailoredSpec.decode_table`.
    """
    table = spec.decode_table
    selector_width = spec.selector_width
    selector_mask = (1 << selector_width) - 1
    speculative_used = spec.speculative_used
    header_width = spec.header_width
    words = []
    for _ in range(count):
        header = reader.read(header_width)
        entry = table[header & selector_mask]
        if entry is None:
            raise EncodingError(
                f"selector {header & selector_mask} maps to no opcode"
            )
        prefix, body_width, fields = entry
        flags = header >> selector_width
        if speculative_used:
            word = prefix | flags >> 1 << T_SHIFT | (flags & 1) << S_SHIFT
        else:
            word = prefix | flags << T_SHIFT
        body = reader.read(body_width)
        for body_shift, mask, shift, fill in fields:
            value = body >> body_shift & mask
            if fill and value > mask >> 1:
                value |= fill
            word |= value << shift
        words.append(word)
    return words


def tailor_image(image: ProgramImage) -> TailoredImage:
    """Convenience: compress ``image`` under its tailored ISA."""
    return TailoredScheme().compress(image)


def tailored_ratio(image: ProgramImage) -> float:
    """Code-segment size as % of baseline under the tailored ISA."""
    return tailor_image(image).ratio_percent()
