"""Tailored-ISA image re-encoding.

:class:`TailoredScheme` implements the same interface as the Huffman
compressors so the experiment layer treats every encoding uniformly, but
it performs *no entropy coding*: each op is its fixed tailored width
(header + narrowed format body).  Decoding therefore needs no dictionary
— only the PLA programmed from the spec (see
:mod:`repro.tailored.verilog`), which is the paper's argument for the
scheme's low hardware cost.

Encoding resolves each format's tailored body layout once per spec
(:func:`op_encoder`) rather than re-deriving every field's width per op,
and turns each op into one ``(bits, width)`` pair, so a block packs with
:func:`~repro.utils.bitstream.pack_block` like every other encoding.
The encoding reads each op's fields, not its baseline word, so the
scheme ignores the study's op words.
"""

from __future__ import annotations

from typing import Callable, Sequence

from repro.compression.schemes import CompressedImage, CompressionScheme
from repro.errors import CompressionError
from repro.isa.formats import FORMATS
from repro.isa.image import ProgramImage
from repro.isa.operation import Operation
from repro.tailored.analysis import TailoredSpec, analyze_image
from repro.utils.bitstream import BitReader, pack_block


def op_encoder(spec: TailoredSpec) -> Callable[[Operation], tuple[int, int]]:
    """An encoder giving one op's ``(bits, width)`` in ``spec``'s ISA.

    Each format's body layout — ``(name, width, signed)`` per field of
    non-zero tailored width — is resolved once here, not once per op.
    """
    layouts = {}
    for name, tf in spec.formats.items():
        layout = []
        for fu in tf.fields:
            width = fu.tailored_width
            if width:
                layout.append((fu.name, width, fu.signed))
        layouts[name] = tuple(layout)
    selector = spec.opcode_selector
    selector_width = spec.selector_width
    speculative_used = spec.speculative_used

    def encode_op(op: Operation) -> tuple[int, int]:
        bits = int(op.tail)
        width = 1
        if speculative_used:
            bits = (bits << 1) | op.speculative
            width = 2
        bits = (bits << selector_width) | selector[op.opcode]
        width += selector_width
        values = op.field_values()
        for name, field_width, signed in layouts[op.opcode.format_name]:
            if signed:
                raw = (op.imm or 0) & ((1 << field_width) - 1)
            else:
                raw = values[name]
            bits = (bits << field_width) | raw
            width += field_width
        return bits, width

    return encode_op


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
    def _own_words(self, image: ProgramImage) -> None:
        # The encoding reads fields, so a caller with no words costs none.
        return None

    def _compress(
        self, image: ProgramImage, words: Sequence
    ) -> TailoredImage:
        spec = analyze_image(image)
        encode_op = op_encoder(spec)
        payloads = []
        bit_lengths = []
        for block in image:
            payload, bits = pack_block(map(encode_op, block.ops))
            payloads.append(payload)
            bit_lengths.append(bits)
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
        spec = compressed.spec
        reader = BitReader(compressed.block_bytes(block_id))
        block = compressed.image.block(block_id)
        return [
            self._decode_op(spec, reader) for _ in range(block.op_count)
        ]

    def _decode_op(self, spec: TailoredSpec, reader: BitReader) -> int:
        tail = reader.read(1)
        spec_bit = reader.read(1) if spec.speculative_used else 0
        selector = reader.read(spec.selector_width)
        opcode = spec.opcode_for_selector(selector)
        fmt = FORMATS[opcode.format_name]
        values: dict[str, int] = {
            "t": tail,
            "s": spec_bit,
            "opt": opcode.optype.value,
            "opcode": opcode.code,
        }
        tf = spec.formats[opcode.format_name]
        for fu in tf.fields:
            width = fu.tailored_width
            if width == 0:
                values[fu.name] = 0
                continue
            raw = reader.read(width)
            if fu.signed and raw & (1 << (width - 1)):
                raw -= 1 << width
            if fu.signed:
                values[fu.name] = raw & 0xFFFFF  # back to 20-bit field
            else:
                values[fu.name] = raw
        return fmt.encode(values)


def tailor_image(image: ProgramImage) -> TailoredImage:
    """Convenience: compress ``image`` under its tailored ISA."""
    return TailoredScheme().compress(image)


def tailored_ratio(image: ProgramImage) -> float:
    """Code-segment size as % of baseline under the tailored ISA."""
    return tailor_image(image).ratio_percent()
