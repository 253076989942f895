"""Tests for canonical Huffman coding and the length-limited variant."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.compression.bounded import length_limited_code_lengths
from repro.compression.huffman import (
    HuffmanCode,
    canonical_codes,
    code_lengths_from_frequencies,
    pack_symbols,
)
from repro.errors import CompressionError
from repro.utils.bitstream import BitReader

freq_tables = st.dictionaries(
    keys=st.integers(min_value=0, max_value=10_000),
    values=st.integers(min_value=1, max_value=1_000_000),
    min_size=1,
    max_size=64,
)


class TestCodeLengths:
    def test_single_symbol_gets_one_bit(self):
        assert code_lengths_from_frequencies({7: 100}) == {7: 1}

    def test_two_symbols(self):
        assert code_lengths_from_frequencies({0: 1, 1: 9}) == {0: 1, 1: 1}

    def test_classic_example(self):
        # Frequencies 1,1,2,4 -> lengths 3,3,2,1.
        lengths = code_lengths_from_frequencies({0: 1, 1: 1, 2: 2, 3: 4})
        assert lengths == {0: 3, 1: 3, 2: 2, 3: 1}

    def test_empty_rejected(self):
        with pytest.raises(CompressionError):
            code_lengths_from_frequencies({})

    def test_nonpositive_frequency_rejected(self):
        with pytest.raises(CompressionError):
            code_lengths_from_frequencies({0: 0})


class TestCanonicalCodes:
    def test_codes_ordered_by_length_then_symbol(self):
        codes = canonical_codes({0: 2, 1: 1, 2: 2})
        assert codes[1] == (0, 1)
        assert codes[0] == (0b10, 2)
        assert codes[2] == (0b11, 2)

    def test_kraft_violation_rejected(self):
        with pytest.raises(CompressionError):
            canonical_codes({0: 1, 1: 1, 2: 1})


def _is_prefix_free(codes):
    words = sorted(
        (format(code, f"0{length}b") for code, length in codes.values())
    )
    for a, b in zip(words, words[1:]):
        if b.startswith(a):
            return False
    return True


@given(freq_tables)
def test_huffman_is_prefix_free(freqs):
    code = HuffmanCode.from_frequencies(freqs)
    assert _is_prefix_free(code.codes)


@given(freq_tables)
def test_huffman_within_one_bit_of_entropy(freqs):
    """Average code length within [H, H+1) — Huffman's optimality bound."""
    code = HuffmanCode.from_frequencies(freqs)
    total = sum(freqs.values())
    entropy = -sum(
        (c / total) * math.log2(c / total) for c in freqs.values()
    )
    average = code.expected_length(freqs)
    assert average < entropy + 1 + 1e-9
    if len(freqs) > 1:
        assert average >= entropy - 1e-9


@given(freq_tables, st.lists(st.integers(0, 63), max_size=50))
def test_huffman_stream_roundtrip(freqs, picks):
    """Encoding a symbol stream and decoding it returns the stream."""
    code = HuffmanCode.from_frequencies(freqs)
    symbols = sorted(freqs)
    stream = [symbols[p % len(symbols)] for p in picks]
    decoder = code.make_decoder()
    reader = BitReader(*pack_symbols(code.codes, stream))
    assert [decoder.decode_symbol(reader) for _ in stream] == stream


class TestHuffmanCode:
    def test_unknown_symbol_rejected(self):
        code = HuffmanCode.from_frequencies({1: 1, 2: 1})
        with pytest.raises(CompressionError):
            pack_symbols(code.codes, [99])

    def test_decoder_model_parameters(self):
        code = HuffmanCode.from_frequencies({0: 1, 1: 1, 2: 2, 3: 4})
        assert code.num_entries == 4
        assert code.max_code_length == 3
        assert code.entry_width(40) == 40

    def test_encoded_length(self):
        code = HuffmanCode.from_frequencies({0: 1, 1: 3})
        assert code.encoded_length([0, 1, 1]) == 3

    def test_expected_length_empty_rejected(self):
        code = HuffmanCode.from_frequencies({0: 1, 1: 3})
        with pytest.raises(CompressionError):
            code.expected_length({})


class TestBoundedHuffman:
    def test_respects_limit(self):
        # Fibonacci-like weights force long unbounded codes.
        freqs = {i: max(1, 2**i) for i in range(20)}
        unbounded = code_lengths_from_frequencies(freqs)
        assert max(unbounded.values()) > 8
        bounded = length_limited_code_lengths(freqs, 8)
        assert max(bounded.values()) <= 8

    def test_matches_unbounded_when_limit_loose(self):
        freqs = {0: 1, 1: 1, 2: 2, 3: 4}
        loose = length_limited_code_lengths(freqs, 16)
        assert loose == code_lengths_from_frequencies(freqs)

    def test_single_symbol(self):
        assert length_limited_code_lengths({5: 3}, 4) == {5: 1}

    def test_too_many_symbols_for_limit(self):
        with pytest.raises(CompressionError):
            length_limited_code_lengths({i: 1 for i in range(5)}, 2)

    def test_exact_capacity(self):
        lengths = length_limited_code_lengths({i: 1 for i in range(4)}, 2)
        assert all(v == 2 for v in lengths.values())

    def test_invalid_limit(self):
        with pytest.raises(CompressionError):
            length_limited_code_lengths({0: 1}, 0)


@given(freq_tables, st.integers(min_value=7, max_value=16))
def test_bounded_lengths_satisfy_kraft_and_limit(freqs, limit):
    lengths = length_limited_code_lengths(freqs, limit)
    assert set(lengths) == set(freqs)
    assert all(1 <= length <= limit for length in lengths.values())
    assert sum(2.0**-length for length in lengths.values()) <= 1 + 1e-9


@given(freq_tables)
def test_bounded_is_optimal_when_unconstrained(freqs):
    """With a loose limit, package-merge cost equals Huffman cost."""
    unbounded = code_lengths_from_frequencies(freqs)
    limit = max(unbounded.values())
    bounded = length_limited_code_lengths(freqs, limit)
    cost_a = sum(freqs[s] * unbounded[s] for s in freqs)
    cost_b = sum(freqs[s] * bounded[s] for s in freqs)
    assert cost_a == cost_b


@given(freq_tables, st.integers(min_value=7, max_value=14))
def test_bounded_code_feeds_canonical_coder(freqs, limit):
    code = HuffmanCode.from_frequencies(freqs, max_length=limit)
    assert code.max_code_length <= limit
    assert _is_prefix_free(code.codes)


class TestExactKraftCheck:
    def test_float_rounding_violation_is_caught(self):
        # sum(2**-l) = 1 + 2**-60, which rounds to exactly 1.0 in a
        # double — only the integer form of the check can reject it.
        lengths = {0: 1, 1: 2, 2: 3, 3: 3, 4: 60}
        assert sum(2.0**-length for length in lengths.values()) <= 1.0
        with pytest.raises(CompressionError, match="Kraft"):
            canonical_codes(lengths)

    def test_exactly_complete_code_accepted(self):
        codes = canonical_codes({0: 1, 1: 2, 2: 2})
        assert _is_prefix_free(codes)

    def test_deep_complete_code_accepted(self):
        # A 60-deep chain: {1, 2, ..., 59, 60, 60} is exactly complete.
        lengths = {i: i for i in range(1, 61)}
        lengths[61] = 60
        codes = canonical_codes(lengths)
        assert _is_prefix_free(codes)

    def test_nonpositive_length_rejected(self):
        with pytest.raises(CompressionError, match="non-positive"):
            canonical_codes({0: 1, 1: 0})
        with pytest.raises(CompressionError, match="non-positive"):
            canonical_codes({0: -3})
