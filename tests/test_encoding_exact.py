"""Exactness oracles for the op-encoding fast paths.

``Format.encode`` ORs each field into the word from a precomputed layout,
``Operation.field_values`` walks a per-format operand table,
``StreamConfig.split`` applies precomputed cuts and package–merge merges
in C.  Each is compared here against the straightforward implementation
it replaced, copied verbatim below as an oracle.
"""

from __future__ import annotations

from typing import Mapping
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.compression import bounded
from repro.compression.alphabets import SIX_STREAM_CONFIGS
from repro.errors import CompressionError, EncodingError
from repro.isa.fields import Format
from repro.isa.formats import FORMATS, OP_BITS
from repro.programs.suite import BENCHMARK_NAMES, compile_benchmark
from repro.utils.bitstream import ReferenceBitWriter


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
