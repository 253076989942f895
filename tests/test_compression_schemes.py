"""Tests for the alphabet families and whole-image compression schemes."""

import pytest
from hypothesis import given, strategies as st

from repro.compression.alphabets import (
    SIX_STREAM_CONFIGS,
    StreamConfig,
    config_by_name,
)
from repro.compression.decoder_cost import (
    DecoderCost,
    huffman_decoder_transistors,
    scheme_decoder_cost,
)
from repro.compression.schemes import (
    BaselineScheme,
    ByteHuffmanScheme,
    FullOpHuffmanScheme,
    StreamHuffmanScheme,
)
from repro.isa.formats import OP_BITS


class TestStreamConfig:
    def test_widths_sum_to_40(self):
        for config in SIX_STREAM_CONFIGS:
            assert sum(config.widths) == OP_BITS

    def test_invalid_boundary_rejected(self):
        with pytest.raises(ValueError):
            StreamConfig("bad", (0,))
        with pytest.raises(ValueError):
            StreamConfig("bad", (40,))
        with pytest.raises(ValueError):
            StreamConfig("bad", (9, 9))

    def test_split_isolates_prefix(self):
        config = config_by_name("streams_9_19_34")
        word = 0b111111111 << (OP_BITS - 9)
        symbols = config.split(word)
        assert symbols[0] == 0b111111111
        assert symbols[1] == symbols[2] == symbols[3] == 0

    def test_config_by_name_unknown(self):
        with pytest.raises(KeyError):
            config_by_name("nope")

    def test_join_arity_checked(self):
        config = SIX_STREAM_CONFIGS[0]
        with pytest.raises(ValueError):
            config.join((0,))


@given(
    st.sampled_from(SIX_STREAM_CONFIGS),
    st.integers(min_value=0, max_value=(1 << OP_BITS) - 1),
)
def test_split_join_roundtrip_property(config, word):
    assert config.join(config.split(word)) == word


@pytest.fixture(scope="module")
def image(tiny_program):
    return tiny_program[0].image


def _all_schemes():
    return [
        BaselineScheme(),
        ByteHuffmanScheme(),
        FullOpHuffmanScheme(),
        StreamHuffmanScheme(SIX_STREAM_CONFIGS[0]),
        StreamHuffmanScheme(SIX_STREAM_CONFIGS[4]),
    ]


class TestSchemes:
    @pytest.mark.parametrize(
        "scheme", _all_schemes(), ids=lambda s: s.name
    )
    def test_roundtrip_verifies(self, image, scheme):
        compressed = scheme.compress(image)
        compressed.verify()  # raises on any mismatch

    @pytest.mark.parametrize(
        "scheme", _all_schemes()[1:], ids=lambda s: s.name
    )
    def test_compression_actually_shrinks(self, image, scheme):
        compressed = scheme.compress(image)
        assert compressed.total_code_bytes < image.baseline_code_bytes
        assert 0 < compressed.ratio_percent() < 100

    def test_baseline_is_identity(self, image):
        compressed = BaselineScheme().compress(image)
        assert compressed.total_code_bytes == image.baseline_code_bytes
        assert compressed.ratio_percent() == pytest.approx(100.0)
        assert compressed.block_bytes(0) == image.block(0).encode_baseline()

    def test_blocks_byte_aligned_and_offsets_contiguous(self, image):
        compressed = FullOpHuffmanScheme().compress(image)
        cursor = 0
        for block in image:
            assert compressed.block_offset(block.block_id) == cursor
            cursor += compressed.block_size(block.block_id)
        assert cursor == compressed.total_code_bytes

    def test_full_op_never_expands_an_op(self, image):
        """Paper: "none of the codes exceed the original op size"."""
        compressed = FullOpHuffmanScheme().compress(image)
        code = compressed.streams[0].code
        assert all(
            length <= OP_BITS for _, length in code.codes.values()
        )

    def test_full_beats_byte_beats_nothing(self, image):
        """The paper's ordering on any real program: full < byte < 100%."""
        byte = ByteHuffmanScheme().compress(image)
        full = FullOpHuffmanScheme().compress(image)
        assert full.total_code_bytes < byte.total_code_bytes

    def test_table_bytes_accounts_dictionaries(self, image):
        full = FullOpHuffmanScheme().compress(image)
        assert full.table_bytes == (full.streams[0].k * OP_BITS + 7) // 8
        base = BaselineScheme().compress(image)
        assert base.table_bytes == 0

    def test_stream_tables_per_stream(self, image):
        config = SIX_STREAM_CONFIGS[0]
        compressed = StreamHuffmanScheme(config).compress(image)
        assert len(compressed.streams) == config.num_streams
        for stream, width in zip(compressed.streams, config.widths):
            assert stream.m == width

    def test_bit_lengths_consistent_with_payload(self, image):
        compressed = ByteHuffmanScheme().compress(image)
        for block in image:
            bits = compressed.block_bit_lengths[block.block_id]
            size = compressed.block_size(block.block_id)
            assert size == (bits + 7) // 8


class TestDecoderCost:
    def test_formula_literal(self):
        # T = 2m(2^n - 1) + 4m(2^n - 2^(n-1) - 1) + 2n
        assert huffman_decoder_transistors(1, 1) == (
            2 * 1 * 1 + 4 * 1 * 0 + 2 * 1
        )
        n, m = 5, 8
        expected = (
            2 * m * (2**n - 1) + 4 * m * (2**n - 2 ** (n - 1) - 1) + 2 * n
        )
        assert huffman_decoder_transistors(n, m) == expected

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            huffman_decoder_transistors(0, 8)
        with pytest.raises(ValueError):
            huffman_decoder_transistors(4, 0)

    def test_monotone_in_n_and_m(self):
        base = huffman_decoder_transistors(6, 8)
        assert huffman_decoder_transistors(7, 8) > base
        assert huffman_decoder_transistors(6, 9) > base

    def test_scheme_cost_sums_streams(self, image):
        config = SIX_STREAM_CONFIGS[0]
        compressed = StreamHuffmanScheme(config).compress(image)
        cost = scheme_decoder_cost(compressed)
        assert cost.transistors == sum(
            huffman_decoder_transistors(s.n, s.m)
            for s in compressed.streams
        )
        assert cost.table_entries == sum(
            s.k for s in compressed.streams
        )

    def test_baseline_has_no_decoder(self, image):
        cost = scheme_decoder_cost(BaselineScheme().compress(image))
        assert cost.transistors == 0
        assert cost.longest_code == 0

    def test_full_decoder_larger_than_byte(self, image):
        """Figure 10's headline: the best compressor has the biggest
        decoder."""
        byte = scheme_decoder_cost(ByteHuffmanScheme().compress(image))
        full = scheme_decoder_cost(FullOpHuffmanScheme().compress(image))
        assert full.transistors > byte.transistors

    def test_decoder_cost_dataclass(self):
        cost = DecoderCost("x", ((4, 10, 8), (3, 5, 8)))
        assert cost.longest_code == 4
        assert cost.table_entries == 15
