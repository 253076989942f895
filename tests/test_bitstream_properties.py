"""Hypothesis properties for the kernelized bit packing and decoding.

Random variable-width write sequences must render identically through
the encoders' one-integer ``pack_block`` and the chunk-list
``ReferenceBitWriter`` it replaced, and read back exactly; random
frequency tables must decode identically through the canonical-table
decoder and the per-length reference walk.  These complement the fixed
workloads in ``tests/test_kernel_differential.py`` with generated ones.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.compression.huffman import (
    HuffmanCode,
    HuffmanDecoder,
    pack_symbols,
)
from repro.errors import CompressionError
from repro.utils.bitstream import BitReader, ReferenceBitWriter, pack_block

#: (value, width) pairs with value guaranteed to fit the width.
chunks = st.lists(
    st.integers(min_value=1, max_value=48).flatmap(
        lambda width: st.tuples(
            st.integers(min_value=0, max_value=(1 << width) - 1),
            st.just(width),
        )
    ),
    max_size=120,
)


@given(chunks)
def test_pack_block_matches_bit_writer(pairs):
    writer = ReferenceBitWriter()
    for value, width in pairs:
        writer.write(value, width)
    bits = writer.bit_length
    writer.align_to_byte()
    assert pack_block(pairs) == (writer.to_bytes(), bits)


@given(chunks)
def test_reader_round_trips_fast_writer(pairs):
    reader = BitReader(*pack_block(pairs))
    assert [reader.read(width) for _, width in pairs] == [
        value for value, _ in pairs
    ]
    assert reader.remaining == 0


@given(chunks, st.integers(min_value=0, max_value=7))
def test_alignment_matches_reference(pairs, extra_bits):
    reference = ReferenceBitWriter()
    for value, width in pairs:
        reference.write(value, width)
    if extra_bits:
        reference.write(0, extra_bits)
    pad = reference.align_to_byte()
    payload, bits = pack_block(pairs + [(0, extra_bits)])
    assert reference.bit_length == bits + pad == 8 * len(payload)
    assert reference.to_bytes() == payload


frequency_tables = st.dictionaries(
    keys=st.integers(min_value=0, max_value=400),
    values=st.integers(min_value=1, max_value=10_000),
    min_size=2,
    max_size=48,
)


@given(frequency_tables, st.data())
@settings(deadline=None)
def test_canonical_decoder_matches_reference(frequencies, data):
    code = HuffmanCode.from_frequencies(frequencies, max_length=16)
    symbols = data.draw(
        st.lists(st.sampled_from(sorted(frequencies)), max_size=64)
    )
    payload, bits = pack_symbols(code.codes, symbols)

    decoder = HuffmanDecoder(code)
    kernel_reader = BitReader(payload, bits)
    reference_reader = BitReader(payload, bits)
    assert [
        decoder.decode_symbol(kernel_reader) for _ in symbols
    ] == symbols
    assert [
        decoder.decode_symbol_reference(reference_reader) for _ in symbols
    ] == symbols
    assert kernel_reader.position == reference_reader.position == bits


@given(frequency_tables, st.data())
def test_pack_symbols_matches_encode_symbol(frequencies, data):
    code = HuffmanCode.from_frequencies(frequencies, max_length=16)
    symbols = data.draw(
        st.lists(st.sampled_from(sorted(frequencies)), max_size=64)
    )
    writer = ReferenceBitWriter()
    for symbol in symbols:
        writer.write(*code.codes[symbol])
    bits = writer.bit_length
    writer.align_to_byte()
    assert pack_symbols(code.codes, symbols) == (writer.to_bytes(), bits)
    unknown = max(frequencies) + 1
    with pytest.raises(CompressionError, match=f"symbol {unknown} "):
        pack_symbols(code.codes, symbols + [unknown])
