"""Unit and property tests for the bit-granular serialization layer."""

import pytest
from hypothesis import given, strategies as st

from repro.utils.bitstream import BitReader, ReferenceBitWriter


class TestBitWriter:
    def test_empty_writer(self):
        w = ReferenceBitWriter()
        assert len(w) == 0
        assert w.to_bytes() == b""
        assert w.to_int() == 0

    def test_single_bits(self):
        w = ReferenceBitWriter()
        w.write(1, 1)
        w.write(0, 1)
        w.write(1, 1)
        assert w.to_bitstring() == "101"
        assert w.to_bytes() == bytes([0b10100000])

    def test_msb_first_order(self):
        w = ReferenceBitWriter()
        w.write(0b1101, 4)
        w.write(0b0010, 4)
        assert w.to_bytes() == bytes([0b11010010])

    def test_value_too_wide_rejected(self):
        w = ReferenceBitWriter()
        with pytest.raises(ValueError):
            w.write(4, 2)

    def test_negative_value_rejected(self):
        w = ReferenceBitWriter()
        with pytest.raises(ValueError):
            w.write(-1, 4)

    def test_zero_width_nonzero_value_rejected(self):
        w = ReferenceBitWriter()
        with pytest.raises(ValueError):
            w.write(1, 0)

    def test_zero_width_zero_value_ok(self):
        w = ReferenceBitWriter()
        w.write(0, 0)
        assert len(w) == 0

    def test_align_to_byte(self):
        w = ReferenceBitWriter()
        w.write(1, 3)
        pad = w.align_to_byte()
        assert pad == 5
        assert len(w) == 8
        assert w.align_to_byte() == 0

    def test_write_bits_string(self):
        w = ReferenceBitWriter()
        w.write_bits("1100")
        assert w.to_bitstring() == "1100"

    def test_write_bits_invalid_char(self):
        w = ReferenceBitWriter()
        with pytest.raises(ValueError):
            w.write_bits("10x")


class TestBitReader:
    def test_round_trip_simple(self):
        w = ReferenceBitWriter()
        w.write(0b101, 3)
        w.write(0xABC, 12)
        r = BitReader(w.to_bytes(), w.bit_length)
        assert r.read(3) == 0b101
        assert r.read(12) == 0xABC
        assert r.remaining == 0

    def test_read_past_end_raises(self):
        r = BitReader(b"\xff", bit_length=4)
        r.read(4)
        with pytest.raises(EOFError):
            r.read(1)

    def test_bit_length_bound_checked(self):
        with pytest.raises(ValueError):
            BitReader(b"\x00", bit_length=9)

    def test_seek(self):
        w = ReferenceBitWriter()
        w.write(0b11110000, 8)
        r = BitReader(w.to_bytes(), w.bit_length)
        r.read(8)
        r.seek(4)
        assert r.read(4) == 0b0000
        with pytest.raises(ValueError):
            r.seek(99)

    def test_align_to_byte(self):
        r = BitReader(bytes([0b10100000, 0b11000000]))
        r.read(3)
        skipped = r.align_to_byte()
        assert skipped == 5
        assert r.read(2) == 0b11

    def test_read_zero_width(self):
        r = BitReader(b"\xff")
        assert r.read(0) == 0
        assert r.position == 0

    def test_cross_byte_read(self):
        w = ReferenceBitWriter()
        w.write(0x1FFFF, 17)
        r = BitReader(w.to_bytes(), w.bit_length)
        assert r.read(17) == 0x1FFFF


@given(
    st.lists(
        st.integers(min_value=1, max_value=48).flatmap(
            lambda width: st.tuples(
                st.integers(min_value=0, max_value=(1 << width) - 1),
                st.just(width),
            )
        ),
        max_size=60,
    )
)
def test_roundtrip_property(chunks):
    """Any sequence of (value, width) writes reads back identically."""
    w = ReferenceBitWriter()
    for value, width in chunks:
        w.write(value, width)
    r = BitReader(w.to_bytes(), w.bit_length)
    for value, width in chunks:
        assert r.read(width) == value
    assert r.remaining == 0


@given(st.binary(max_size=64))
def test_byte_roundtrip_property(data):
    """Writing bytes through 8-bit chunks reproduces them exactly."""
    w = ReferenceBitWriter()
    for byte in data:
        w.write(byte, 8)
    assert w.to_bytes() == data
    r = BitReader(w.to_bytes(), w.bit_length)
    assert bytes(r.read(8) for _ in data) == data
