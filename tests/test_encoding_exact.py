"""Exactness oracles for the op-encoding fast paths.

``Format.encode`` ORs each field into the word from a precomputed layout,
``Operation.field_values`` walks a per-format operand table,
``Operation.encode`` packs from a per-opcode plan, the tailored ISA is
built and encoded from the baseline words, ``StreamConfig.split``
applies precomputed cuts and package–merge merges in C.  Each is
compared here against the straightforward implementation it replaced,
copied verbatim below as an oracle.
"""

from __future__ import annotations

import pickle
from typing import Callable, Mapping
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.compression import bounded
from repro.compression.adaptive import (
    COLD_TAG,
    HOT_TAG,
    HybridImage,
    _context_codes,
    _pack_in_context,
    heat_profile,
)
from repro.compression.alphabets import SIX_STREAM_CONFIGS
from repro.compression.registry import scheme_factory
from repro.compression.schemes import StreamTable, block_words
from repro.core.study import study_for
from repro.errors import CompressionError, EncodingError
from repro.isa.fields import Format
from repro.isa.formats import FORMATS, OP_BITS
from repro.isa.image import ProgramImage
from repro.isa.opcodes import FormatName, Opcode
from repro.isa.operation import (
    IMM_MAX,
    IMM_MIN,
    NO_DEST,
    Operation,
    _expected_dest_bank,
    src_arity,
)
from repro.isa.registers import Register, RegisterBank
from repro.programs.suite import BENCHMARK_NAMES, compile_benchmark
from repro.tailored.analysis import (
    TailoredFormat,
    TailoredSpec,
    _empty_format,
    analyze_image,
)
from repro.tailored.encoding import TailoredImage, TailoredScheme
from repro.utils.bitstream import ReferenceBitWriter, pack_block


# ---------------------------------------------------------------- oracles
def oracle_format_encode(self: Format, values: Mapping[str, int]) -> int:
    unknown = set(values) - set(self._by_name)
    if unknown:
        raise EncodingError(
            f"format {self.name!r}: unknown fields {sorted(unknown)}"
        )
    writer = ReferenceBitWriter()
    for f in self.fields:
        value = values.get(f.name, 0)
        if not 0 <= value <= f.max_value:
            raise EncodingError(
                f"format {self.name!r}: value {value} does not fit "
                f"field {f.name!r} ({f.width} bits)"
            )
        writer.write(value, f.width)
    return writer.to_int()


def oracle_field_values(self) -> dict[str, int]:
    opcode = self.opcode
    values: dict[str, int] = {
        "t": int(self.tail),
        "s": int(self.speculative),
        "opt": opcode.optype.value,
        "opcode": opcode.code,
        "pred": self.predicate.index,
    }
    fmt = self.format
    if "src1" in fmt:
        values["src1"] = self.src1.index if self.src1 else 0
    if "src2" in fmt:
        values["src2"] = self.src2.index if self.src2 else 0
    if "dest" in fmt:
        values["dest"] = self.dest.index if self.dest else 0
    if "bhwx" in fmt:
        values["bhwx"] = self.bhwx
    if "imm" in fmt:
        values["imm"] = (self.imm or 0) & 0xFFFFF
    if "lat" in fmt:
        values["lat"] = self.lat
    if "counter" in fmt:
        values["counter"] = self.counter
    if "target" in fmt:
        values["target"] = self.target_block or 0
    if "sd" in fmt:
        values["sd"] = 0  # single precision throughout this study
    # Remaining architectural fields this study leaves at zero
    # (cache-specifier hints, link bits, FP sub-fields).
    for f in fmt:
        if not f.reserved and f.name not in values:
            values[f.name] = 0
    return values


def oracle_encode(self) -> int:
    """Encode to the baseline 40-bit word."""
    return self.format.encode(self.field_values())


def _imm_signed_value(op: Operation) -> int:
    return op.imm or 0


def oracle_analyze_image(image: ProgramImage) -> TailoredSpec:
    """Build the tailored encoding spec from a program's static code."""
    opcodes_used = sorted(
        {op.opcode for op in image.all_operations()},
        key=lambda o: (o.optype.value, o.code),
    )
    if not opcodes_used:
        raise EncodingError("cannot tailor an empty program")
    selector = {opcode: i for i, opcode in enumerate(opcodes_used)}
    selector_width = max(1, (len(opcodes_used) - 1).bit_length())
    formats: dict[FormatName, TailoredFormat] = {}
    for opcode in opcodes_used:
        name = opcode.format_name
        if name not in formats:
            formats[name] = _empty_format(name, FORMATS[name])
    speculative_used = False
    for op in image.all_operations():
        speculative_used |= op.speculative
        tf = formats[op.opcode.format_name]
        values = op.field_values()
        for fu in tf.fields:
            if fu.signed:
                fu.observe(_imm_signed_value(op))
            else:
                fu.observe(values[fu.name])
    return TailoredSpec(
        program=image.name,
        opcode_selector=selector,
        selector_width=selector_width,
        formats=formats,
        speculative_used=speculative_used,
    )


def oracle_op_encoder(
    spec: TailoredSpec,
) -> Callable[[Operation], tuple[int, int]]:
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


def oracle_tailored_compress(self, image, words) -> TailoredImage:
    spec = oracle_analyze_image(image)
    encode_op = oracle_op_encoder(spec)
    payloads = []
    bit_lengths = []
    for block in image:
        payload, bits = pack_block(map(encode_op, block.ops))
        payloads.append(payload)
        bit_lengths.append(bits)
    return TailoredImage(
        spec, self, image, payloads, bit_lengths, streams=()
    )


def oracle_hybrid_compress(self, image, words) -> HybridImage:
    hot = self._hot_blocks(image)
    tags = [
        HOT_TAG if block_id in hot else COLD_TAG
        for block_id in range(len(image))
    ]
    # Cold dictionaries are per-context and built from cold blocks
    # only: the hot set is out of the alphabet, so the sharper cold
    # model buys back what the hot blocks give up in size.
    codes = _context_codes(
        (words[bid] for bid, tag in enumerate(tags) if tag == COLD_TAG),
        self._build_code,
    )
    tables = {ctx: code.codes for ctx, code in codes.items()}
    spec = oracle_analyze_image(image)
    encode_hot = oracle_op_encoder(spec)
    payloads = []
    bit_lengths = []
    for block in image:
        if tags[block.block_id] == HOT_TAG:
            payload, bits = pack_block(map(encode_hot, block.ops))
        else:
            payload, bits = _pack_in_context(
                tables, words[block.block_id]
            )
        payloads.append(payload)
        bit_lengths.append(bits)
    context_ids = tuple(sorted(codes))
    streams = tuple(
        StreamTable(codes[ctx], symbol_bits=OP_BITS)
        for ctx in context_ids
    )
    return HybridImage(
        spec, tags, self._profile, self.hotness, context_ids,
        self, image, payloads, bit_lengths, streams,
    )


def oracle_split(self, word: int) -> tuple[int, ...]:
    symbols = []
    remaining = OP_BITS
    for width in self.widths:
        remaining -= width
        symbols.append((word >> remaining) & ((1 << width) - 1))
    return tuple(symbols)


def oracle_merge_sorted(a, b):
    out = []
    i = j = 0
    while i < len(a) and j < len(b):
        if a[i][0] <= b[j][0]:
            out.append(a[i])
            i += 1
        else:
            out.append(b[j])
            j += 1
    out.extend(a[i:])
    out.extend(b[j:])
    return out


def _outcome(fn, *args):
    """The value ``fn`` returns, or the type and message it raises."""
    try:
        return ("ok", fn(*args))
    except EncodingError as exc:
        return (type(exc), str(exc))


# ---------------------------------------------------------- Format.encode
@st.composite
def format_values(draw, fmt: Format):
    """Value dicts for ``fmt``: in- and out-of-range, some unknown keys."""
    values = {}
    for f in fmt.fields:
        if draw(st.booleans()):
            values[f.name] = draw(
                st.one_of(
                    st.integers(0, f.max_value),
                    st.integers(-3, f.max_value + 3),
                )
            )
    if draw(st.integers(0, 7)) == 0:
        values[draw(st.sampled_from(["bogus", "imm2", "zz"]))] = draw(
            st.integers(0, 3)
        )
    return values


@pytest.mark.parametrize("format_name", sorted(FORMATS, key=lambda n: n.value))
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_format_encode_matches_writer_oracle(format_name, data):
    fmt = FORMATS[format_name]
    values = data.draw(format_values(fmt))
    assert _outcome(fmt.encode, values) == _outcome(
        oracle_format_encode, fmt, values
    )


def test_format_encode_decode_inverse():
    for fmt in FORMATS.values():
        values = {f.name: f.max_value for f in fmt.fields}
        assert fmt.decode(fmt.encode(values)) == values


# -------------------------------------------------- Operation.field_values
@pytest.fixture(scope="module")
def suite_ops():
    return [
        op
        for name in BENCHMARK_NAMES
        for op in compile_benchmark(name).image.all_operations()
    ]


def test_field_values_match_oracle_in_key_order(suite_ops):
    assert len(suite_ops) > 1000
    for op in suite_ops:
        assert list(op.field_values().items()) == list(
            oracle_field_values(op).items()
        ), str(op)


def test_encode_matches_writer_oracle(suite_ops):
    for op in suite_ops:
        assert op.encode() == oracle_format_encode(
            op.format, oracle_field_values(op)
        ), str(op)


# ------------------------------------------------------- Operation.encode
def _registers(banks):
    return st.builds(
        Register, st.sampled_from(banks), st.integers(0, 31)
    )


@st.composite
def operations(draw, opcode: Opcode):
    """Ops of ``opcode``: speculative ones, the immediate's extremes and
    out-of-range ``lat`` and ``counter`` values all occur."""
    fmt = FORMATS[opcode.format_name]
    kwargs = {
        "opcode": opcode,
        "predicate": draw(_registers([RegisterBank.PRED])),
        "tail": draw(st.booleans()),
        "speculative": draw(st.booleans()),
        "bhwx": draw(st.integers(0, 3)),
        "lat": draw(st.integers(-2, 34)),
        "counter": draw(st.integers(-2, 34)),
    }
    if opcode not in NO_DEST and draw(st.integers(0, 5)):
        kwargs["dest"] = draw(_registers([_expected_dest_bank(opcode)]))
    sources = [RegisterBank.GPR, RegisterBank.FPR]
    if src_arity(opcode) >= 1 and draw(st.integers(0, 5)):
        kwargs["src1"] = draw(
            _registers([RegisterBank.GPR] if opcode.is_memory else sources)
        )
    if src_arity(opcode) >= 2 and draw(st.integers(0, 5)):
        kwargs["src2"] = draw(_registers(sources))
    if "imm" in fmt:
        kwargs["imm"] = draw(
            st.one_of(
                st.sampled_from([IMM_MIN, IMM_MAX, -1, 0]),
                st.integers(IMM_MIN, IMM_MAX),
            )
        )
    if opcode in (Opcode.BR, Opcode.CALL) or (
        opcode.is_branch and draw(st.booleans())
    ):
        kwargs["target_block"] = draw(st.integers(0, (1 << 16) - 1))
    return Operation(**kwargs)


@pytest.mark.parametrize("opcode", list(Opcode), ids=lambda o: o.name)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_encode_matches_field_values_oracle(opcode, data):
    op = data.draw(operations(opcode))
    assert _outcome(Operation.encode, op) == _outcome(oracle_encode, op)


def _load(**fields) -> Operation:
    return Operation(
        Opcode.LD,
        dest=Register(RegisterBank.GPR, 1),
        src1=Register(RegisterBank.GPR, 2),
        **fields,
    )


def test_out_of_range_fields_raise_the_format_error():
    assert _outcome(Operation.encode, _load(lat=32)) == (
        EncodingError,
        "format 'load': value 32 does not fit field 'lat' (5 bits)",
    )
    branch = Operation(Opcode.BR, target_block=3, counter=40)
    assert _outcome(Operation.encode, branch) == (
        EncodingError,
        "format 'branch': value 40 does not fit field 'counter' (5 bits)",
    )
    for name, value in (("lat", -1), ("tail", 2), ("speculative", -1)):
        op = _load()
        setattr(op, name, value)
        assert _outcome(Operation.encode, op)[0] is EncodingError, name
        assert _outcome(Operation.encode, op) == _outcome(oracle_encode, op)


# ----------------------------------------------------- tailored from words
@pytest.fixture(scope="module")
def suite_studies():
    return {name: study_for(name, 1) for name in BENCHMARK_NAMES}


def _dumps(value) -> bytes:
    return pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)


@pytest.mark.parametrize("name", BENCHMARK_NAMES)
def test_spec_from_words_matches_per_op_oracle(suite_studies, name):
    image = suite_studies[name].compiled.image
    spec = analyze_image(image)
    expected = oracle_analyze_image(image)
    assert spec == expected
    assert list(spec.opcode_selector) == list(expected.opcode_selector)
    assert list(spec.formats) == list(expected.formats)
    assert _dumps(spec) == _dumps(expected)


def _scheme(key, study):
    if key == "tailored":
        return TailoredScheme()
    image = study.compiled.image
    if key.endswith(":static"):
        from repro.analysis.freq import static_heat_profile

        profile = static_heat_profile(image)
    else:
        profile = heat_profile(study.run.block_trace, len(image))
    return scheme_factory(key).with_profile(profile)


IMAGE_ORACLES = {
    "tailored": oracle_tailored_compress,
    "hybrid": oracle_hybrid_compress,
    "hybrid:static": oracle_hybrid_compress,
}


@pytest.mark.parametrize("key", IMAGE_ORACLES)
@pytest.mark.parametrize("name", BENCHMARK_NAMES)
def test_word_driven_images_match_per_op_oracle(suite_studies, name, key):
    study = suite_studies[name]
    image = study.compiled.image
    expected = _dumps(
        IMAGE_ORACLES[key](_scheme(key, study), image, block_words(image))
    )
    assert _dumps(_scheme(key, study).compress(image)) == expected
    shared = _scheme(key, study).with_words(study.op_words)
    assert _dumps(shared.compress(image)) == expected


# ------------------------------------------------------ StreamConfig.split
@pytest.mark.parametrize("config", SIX_STREAM_CONFIGS, ids=lambda c: c.name)
@settings(max_examples=200, deadline=None)
@given(word=st.integers(0, (1 << OP_BITS) - 1))
def test_split_matches_oracle_and_joins_back(config, word):
    assert config.split(word) == oracle_split(config, word)
    assert config.join(config.split(word)) == word


def test_join_keeps_its_arity_check():
    config = SIX_STREAM_CONFIGS[0]
    with pytest.raises(ValueError, match="expected 4 symbols, got 3"):
        config.join((0, 0, 0))


# ------------------------------------------------------------ package–merge
@settings(max_examples=300, deadline=None)
@given(
    frequencies=st.dictionaries(
        st.integers(0, 300), st.integers(1, 6), min_size=1, max_size=40
    ),
    max_length=st.integers(1, 16),
)
def test_code_lengths_match_old_merge(frequencies, max_length):
    def lengths():
        try:
            return bounded.length_limited_code_lengths(
                frequencies, max_length
            )
        except CompressionError as exc:
            return str(exc)

    actual = lengths()
    with mock.patch.object(bounded, "_merge_sorted", oracle_merge_sorted):
        expected = lengths()
    assert actual == expected


@settings(max_examples=200, deadline=None)
@given(
    a=st.lists(st.integers(0, 5), max_size=12),
    b=st.lists(st.integers(0, 5), max_size=12),
)
def test_merge_sorted_is_stable_like_the_old_merge(a, b):
    items_a = [(w, [i]) for i, w in enumerate(sorted(a))]
    items_b = [(w, [100 + i]) for i, w in enumerate(sorted(b))]
    assert bounded._merge_sorted(items_a, items_b) == oracle_merge_sorted(
        items_a, items_b
    )
