"""Tests for tailored-ISA analysis, re-encoding and decoder emission."""

import pytest

from repro.compiler.builder import ModuleBuilder
from repro.compiler.pipeline import compile_module
from repro.compression.decoder_cost import scheme_decoder_cost
from repro.errors import CompressionError
from repro.isa.opcodes import FormatName, Opcode
from repro.tailored import (
    TailoredScheme,
    analyze_image,
    decoder_verilog,
)
from repro.tailored.analysis import FieldUsage, _signed_width
from repro.tailored.encoding import tailor_image, tailored_ratio
from repro.tailored.verilog import estimated_decoder_transistors


@pytest.fixture(scope="module")
def image(tiny_program):
    return tiny_program[0].image


@pytest.fixture(scope="module")
def spec(image):
    return analyze_image(image)


class TestFieldUsage:
    def test_unseen_field_is_zero_width(self):
        assert FieldUsage("x", 5).tailored_width == 0

    def test_all_zero_field_vanishes(self):
        fu = FieldUsage("x", 5)
        fu.observe(0)
        assert fu.tailored_width == 0

    def test_width_from_max_value(self):
        fu = FieldUsage("x", 5)
        fu.observe(5)
        fu.observe(2)
        assert fu.tailored_width == 3

    def test_signed_width(self):
        assert _signed_width(0, 0) == 0
        assert _signed_width(-1, 0) == 1
        assert _signed_width(-2, 1) == 2
        assert _signed_width(0, 127) == 8
        assert _signed_width(-128, 127) == 8

    def test_signed_field_widths(self):
        fu = FieldUsage("imm", 20, signed=True)
        fu.observe(-5)
        fu.observe(100)
        assert fu.tailored_width == 8  # [-128, 127] covers [-5, 100]


class TestSpec:
    def test_selector_covers_all_used_opcodes(self, image, spec):
        used = {op.opcode for op in image.all_operations()}
        assert set(spec.opcode_selector) == used
        selectors = list(spec.opcode_selector.values())
        assert sorted(selectors) == list(range(len(used)))
        assert (len(used) - 1).bit_length() == spec.selector_width

    def test_op_width_never_exceeds_baseline(self, image, spec):
        for opcode in spec.opcode_selector:
            assert spec.op_width(opcode) <= 40

    def test_header_fixed_for_all_ops(self, spec):
        # Tail + (optional speculative) + selector.
        expected = 1 + (1 if spec.speculative_used else 0) + \
            spec.selector_width
        assert spec.header_width == expected

    def test_selector_lookup_roundtrip(self, spec):
        for opcode, sel in spec.opcode_selector.items():
            assert spec.opcode_for_selector(sel) is opcode

    def test_describe_mentions_each_format(self, spec):
        text = spec.describe()
        for name in {o.format_name for o in spec.opcode_selector}:
            assert name.value in text


class TestTailoredScheme:
    def test_roundtrip_verifies(self, image):
        tailor_image(image).verify()

    def test_ratio_below_100(self, image):
        assert tailored_ratio(image) < 100.0

    def test_no_huffman_streams(self, image):
        compressed = tailor_image(image)
        assert compressed.streams == []
        assert scheme_decoder_cost(compressed).transistors == 0
        assert compressed.table_bytes == 0

    def test_decode_requires_tailored_image(self, image):
        from repro.compression.schemes import BaselineScheme

        base = BaselineScheme().compress(image)
        with pytest.raises(CompressionError):
            TailoredScheme().decode_block(base, 0)

    def test_sizes_consistent(self, image):
        compressed = tailor_image(image)
        spec = compressed.spec
        for block in image:
            bits = sum(spec.op_width(op.opcode) for op in block.ops)
            assert compressed.block_bit_lengths[block.block_id] == bits
            assert compressed.block_size(block.block_id) == (bits + 7) // 8


class TestTailoredOnSuite:
    """Tailored ratios land near the paper's ~64% on real programs."""

    def test_benchmark_ratio_in_paper_band(self, compress_study):
        ratio = compress_study.compressed("tailored").ratio_percent()
        assert 50.0 < ratio < 80.0

    def test_full_compresses_better_than_tailored(self, compress_study):
        """Figure 5: tailored trades compression for decoder simplicity."""
        full = compress_study.compressed("full").ratio_percent()
        tailored = compress_study.compressed("tailored").ratio_percent()
        assert full < tailored


class TestVerilog:
    def test_module_structure(self, spec):
        text = decoder_verilog(spec)
        assert text.count("module ") == 1
        assert "endmodule" in text
        assert "case (sel)" in text
        # One case arm per opcode plus a default.
        assert text.count("'d") >= len(spec.opcode_selector)
        for opcode in spec.opcode_selector:
            assert f"// {opcode.name} " in text

    def test_speculative_wire_only_when_used(self, image, spec):
        text = decoder_verilog(spec)
        if spec.speculative_used:
            assert "wire spec" in text
        else:
            assert "wire spec" not in text

    def test_estimated_transistors_scale_with_opcodes(self, spec):
        estimate = estimated_decoder_transistors(spec)
        assert estimate == 2 * 40 * len(spec.opcode_selector) + \
            2 * spec.selector_width


def test_tailored_handles_float_programs():
    """FP formats (sd/tsslu fields) tailor and round-trip too."""
    mb = ModuleBuilder("fp")
    mb.global_array("result", words=2)
    b = mb.function("main", num_args=0)
    x = b.freg()
    c = b.iconst(3)
    b.i2f(x, c)
    y = b.freg()
    b.fmpy(y, x, x)
    z = b.ireg()
    b.f2i(z, y)
    addr = b.ireg()
    b.la(addr, "result")
    b.store(addr, z)
    b.halt()
    b.done()
    prog = compile_module(mb.build())
    compressed = tailor_image(prog.image)
    compressed.verify()
    assert any(
        o.format_name is FormatName.FP for o in
        compressed.spec.opcode_selector
    )
