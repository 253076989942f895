"""Hypothesis properties for the kernelized bit packing and decoding.

Random variable-width write sequences must render identically through
``BitWriter`` and ``ReferenceBitWriter`` and read back exactly; random
frequency tables must decode identically through the canonical-table
decoder and the per-length reference walk.  These complement the fixed
workloads in ``tests/test_kernel_differential.py`` with generated ones.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.compression.huffman import HuffmanCode, HuffmanDecoder
from repro.utils.bitstream import BitReader, BitWriter, ReferenceBitWriter

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
def test_writers_render_identical_streams(pairs):
    fast, reference = BitWriter(), ReferenceBitWriter()
    for value, width in pairs:
        fast.write(value, width)
        reference.write(value, width)
    assert fast.bit_length == reference.bit_length
    assert fast.to_int() == reference.to_int()
    assert fast.to_bytes() == reference.to_bytes()
    assert fast.to_bitstring() == reference.to_bitstring()


@given(chunks)
def test_reader_round_trips_fast_writer(pairs):
    writer = BitWriter()
    for value, width in pairs:
        writer.write(value, width)
    reader = BitReader.from_writer(writer)
    assert [reader.read(width) for _, width in pairs] == [
        value for value, _ in pairs
    ]
    assert reader.remaining == 0


@given(chunks, st.integers(min_value=0, max_value=7))
def test_alignment_matches_reference(pairs, extra_bits):
    fast, reference = BitWriter(), ReferenceBitWriter()
    for writer in (fast, reference):
        for value, width in pairs:
            writer.write(value, width)
        if extra_bits:
            writer.write(0, extra_bits)
        writer.align_to_byte()
    assert fast.bit_length == reference.bit_length
    assert fast.bit_length % 8 == 0
    assert fast.to_bytes() == reference.to_bytes()


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
    writer = BitWriter()
    for symbol in symbols:
        code.encode_symbol(symbol, writer)
    payload, bits = writer.to_bytes(), writer.bit_length

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
