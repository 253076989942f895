"""Tests for the TEPIC ISA layer: formats (Table 2), operations, MOPs."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import DecodingError, EncodingError
from repro.isa import (
    FORMATS,
    MultiOp,
    OP_BITS,
    Opcode,
    Operation,
    OpType,
)
from repro.isa.formats import (
    BRANCH_FORMAT,
    COMMON_PREFIX,
    FP_FORMAT,
    INT_ALU_FORMAT,
    INT_CMPP_FORMAT,
    LOAD_FORMAT,
    LOAD_IMM_FORMAT,
    STORE_FORMAT,
)
from repro.isa.multiop import ISSUE_WIDTH, MEMORY_UNITS
from repro.isa.opcodes import FormatName, lookup
from repro.isa.operation import IMM_MAX, IMM_MIN, NO_DEST, src_arity
from repro.isa.registers import (
    Register,
    RegisterBank,
    TRUE_PREDICATE,
    fpr,
    gpr,
    pred,
)


class TestRegisters:
    def test_str_and_parse_round_trip(self):
        for reg in (gpr(5), fpr(0), pred(31)):
            assert Register.parse(str(reg)) == reg

    def test_out_of_range_index(self):
        with pytest.raises(ValueError):
            gpr(32)

    def test_parse_unknown_bank(self):
        with pytest.raises(ValueError):
            Register.parse("x3")

    def test_true_predicate_is_p0(self):
        assert TRUE_PREDICATE == pred(0)


class TestFormatsTable2:
    """The paper's Table 2, field by field."""

    def test_all_formats_are_40_bits(self):
        for fmt in FORMATS.values():
            assert fmt.total_bits == OP_BITS

    @pytest.mark.parametrize(
        "fmt,widths",
        [
            (INT_ALU_FORMAT, [1, 1, 2, 5, 5, 5, 2, 8, 5, 1, 5]),
            (INT_CMPP_FORMAT, [1, 1, 2, 5, 5, 5, 2, 3, 5, 5, 1, 5]),
            (LOAD_IMM_FORMAT, [1, 1, 2, 5, 20, 5, 1, 5]),
            (FP_FORMAT, [1, 1, 2, 5, 5, 5, 1, 6, 3, 5, 1, 5]),
            (LOAD_FORMAT, [1, 1, 2, 5, 5, 2, 2, 1, 2, 3, 5, 5, 1, 5]),
            (STORE_FORMAT, [1, 1, 2, 5, 5, 5, 2, 2, 11, 1, 5]),
            (BRANCH_FORMAT, [1, 1, 2, 5, 5, 5, 16, 5]),
        ],
    )
    def test_field_widths_match_paper(self, fmt, widths):
        assert [f.width for f in fmt.fields] == widths

    def test_common_prefix_shared_by_all_formats(self):
        for fmt in FORMATS.values():
            assert fmt.field_names[:4] == COMMON_PREFIX
            assert fmt.offset_of("opcode") == 4

    def test_encode_decode_fields(self):
        values = {"t": 1, "opt": 0, "opcode": 3, "src1": 7, "dest": 9}
        word = INT_ALU_FORMAT.encode(values)
        decoded = INT_ALU_FORMAT.decode(word)
        for key, val in values.items():
            assert decoded[key] == val
        assert decoded["res"] == 0

    def test_encode_rejects_unknown_field(self):
        with pytest.raises(EncodingError):
            INT_ALU_FORMAT.encode({"bogus": 1})

    def test_encode_rejects_oversized_value(self):
        with pytest.raises(EncodingError):
            INT_ALU_FORMAT.encode({"src1": 32})

    def test_decode_rejects_oversized_word(self):
        with pytest.raises(DecodingError):
            INT_ALU_FORMAT.decode(1 << OP_BITS)


class TestOpcodes:
    def test_every_pair_unique(self):
        pairs = {(op.optype, op.code) for op in Opcode}
        assert len(pairs) == len(list(Opcode))

    def test_lookup_round_trip(self):
        for op in Opcode:
            assert lookup(op.optype.value, op.code) is op

    def test_lookup_unknown_raises(self):
        with pytest.raises(KeyError):
            lookup(1, 31)

    def test_classification(self):
        assert Opcode.BR.is_branch
        assert Opcode.LD.is_load and Opcode.LD.is_memory
        assert Opcode.ST.is_store
        assert Opcode.CMPP_LT.is_compare
        assert Opcode.FADD.is_float
        assert not Opcode.ADD.is_memory


def _sample_operations():
    return [
        Operation(Opcode.ADD, dest=gpr(3), src1=gpr(1), src2=gpr(2)),
        Operation(Opcode.SUB, dest=gpr(0), src1=gpr(31), src2=gpr(30),
                  predicate=pred(5)),
        Operation(Opcode.LDI, dest=gpr(9), imm=IMM_MIN),
        Operation(Opcode.LDI, dest=gpr(9), imm=IMM_MAX),
        Operation(Opcode.CMPP_LT, dest=pred(7), src1=gpr(4), src2=gpr(5)),
        Operation(Opcode.MOV, dest=gpr(1), src1=gpr(2)),
        Operation(Opcode.FADD, dest=fpr(1), src1=fpr(2), src2=fpr(3)),
        Operation(Opcode.I2F, dest=fpr(0), src1=gpr(17)),
        Operation(Opcode.F2I, dest=gpr(8), src1=fpr(9)),
        Operation(Opcode.LD, dest=gpr(6), src1=gpr(7), bhwx=3),
        Operation(Opcode.ST, src1=gpr(7), src2=gpr(6), bhwx=0),
        Operation(Opcode.BR, target_block=0, predicate=pred(1)),
        Operation(Opcode.BR, target_block=65535),
        Operation(Opcode.CALL, target_block=42),
        Operation(Opcode.RET),
        Operation(Opcode.HALT, tail=True),
    ]


class TestOperation:
    @pytest.mark.parametrize("op", _sample_operations(),
                             ids=lambda o: o.opcode.name)
    def test_encode_decode_round_trip(self, op):
        word = op.encode()
        assert 0 <= word < (1 << OP_BITS)
        assert Operation.decode(word) == op

    def test_encode_bytes_is_five_bytes(self):
        op = Operation(Opcode.ADD, dest=gpr(1), src1=gpr(2), src2=gpr(3))
        assert len(op.encode_bytes()) == 5

    def test_ldi_requires_immediate(self):
        with pytest.raises(EncodingError):
            Operation(Opcode.LDI, dest=gpr(1))

    def test_immediate_range_checked(self):
        with pytest.raises(EncodingError):
            Operation(Opcode.LDI, dest=gpr(1), imm=IMM_MAX + 1)

    def test_non_ldi_rejects_immediate(self):
        with pytest.raises(EncodingError):
            Operation(Opcode.ADD, dest=gpr(1), src1=gpr(2), src2=gpr(3),
                      imm=4)

    def test_branch_requires_target(self):
        with pytest.raises(EncodingError):
            Operation(Opcode.BR)

    def test_target_must_fit_16_bits(self):
        with pytest.raises(EncodingError):
            Operation(Opcode.BR, target_block=1 << 16)

    def test_predicate_bank_enforced(self):
        with pytest.raises(EncodingError):
            Operation(Opcode.ADD, dest=gpr(1), src1=gpr(2), src2=gpr(3),
                      predicate=gpr(0))

    def test_dest_bank_enforced(self):
        with pytest.raises(EncodingError):
            Operation(Opcode.FADD, dest=gpr(1), src1=fpr(2), src2=fpr(3))

    def test_with_tail(self):
        op = Operation(Opcode.RET)
        tailed = op.with_tail(True)
        assert tailed.tail and not op.tail
        assert tailed.with_tail(True) is tailed

    def test_with_tail_copies_every_other_field(self):
        op = Operation(Opcode.LD, dest=gpr(4), src1=gpr(5), lat=7,
                       speculative=True, note="x[i]")
        tailed = op.with_tail(True)
        assert type(tailed) is Operation and tailed is not op
        assert vars(tailed) == dict(vars(op), tail=True)
        assert tailed.with_tail(False) == op
        assert not op.tail

    def test_reads_writes(self):
        op = Operation(Opcode.ADD, dest=gpr(3), src1=gpr(1), src2=gpr(2))
        assert op.reads == (gpr(1), gpr(2))
        assert op.writes == (gpr(3),)

    def test_field_values_cover_all_architectural_fields(self):
        for op in _sample_operations():
            values = op.field_values()
            for f in op.format:
                if not f.reserved:
                    assert f.name in values

    def test_decode_unknown_opcode_raises(self):
        # OPT=FLOAT, OPCODE=31 is unassigned.
        word = (OpType.FLOAT.value << 36) | (31 << 31)
        with pytest.raises(DecodingError):
            Operation.decode(word)

    def test_arity_table(self):
        assert src_arity(Opcode.ADD) == 2
        assert src_arity(Opcode.MOV) == 1
        assert src_arity(Opcode.RET) == 0
        assert Opcode.ST in NO_DEST


@given(
    opcode=st.sampled_from([Opcode.ADD, Opcode.SUB, Opcode.XOR,
                            Opcode.SHL, Opcode.MIN]),
    d=st.integers(0, 31),
    a=st.integers(0, 31),
    b=st.integers(0, 31),
    p=st.integers(0, 31),
    tail=st.booleans(),
)
def test_alu_roundtrip_property(opcode, d, a, b, p, tail):
    op = Operation(opcode, dest=gpr(d), src1=gpr(a), src2=gpr(b),
                   predicate=pred(p), tail=tail)
    assert Operation.decode(op.encode()) == op


@given(imm=st.integers(IMM_MIN, IMM_MAX), d=st.integers(0, 31))
def test_ldi_roundtrip_property(imm, d):
    op = Operation(Opcode.LDI, dest=gpr(d), imm=imm)
    assert Operation.decode(op.encode()) == op


class TestMultiOp:
    def test_tail_bits_set_on_last_only(self):
        ops = [
            Operation(Opcode.ADD, dest=gpr(i), src1=gpr(0), src2=gpr(1))
            for i in range(3)
        ]
        mop = MultiOp.of(ops)
        assert [o.tail for o in mop.ops] == [False, False, True]

    def test_single_op_mop_has_tail(self):
        mop = MultiOp.of([Operation(Opcode.RET)])
        assert mop.ops[0].tail

    def test_empty_mop_rejected(self):
        with pytest.raises(EncodingError):
            MultiOp.of([])

    def test_issue_width_enforced(self):
        ops = [
            Operation(Opcode.ADD, dest=gpr(i), src1=gpr(0), src2=gpr(1))
            for i in range(ISSUE_WIDTH + 1)
        ]
        with pytest.raises(EncodingError):
            MultiOp.of(ops)

    def test_memory_unit_limit_enforced(self):
        ops = [
            Operation(Opcode.LD, dest=gpr(i), src1=gpr(0))
            for i in range(MEMORY_UNITS + 1)
        ]
        with pytest.raises(EncodingError):
            MultiOp.of(ops)

    def test_bit_length(self):
        ops = [Operation(Opcode.RET), Operation(Opcode.HALT)]
        assert MultiOp.of(ops).bit_length == 2 * OP_BITS

    def test_encode_words_tail_visible(self):
        mop = MultiOp.of([
            Operation(Opcode.ADD, dest=gpr(1), src1=gpr(2), src2=gpr(3)),
            Operation(Opcode.RET),
        ])
        words = mop.encode_words()
        assert words[0] >> (OP_BITS - 1) == 0
        assert words[1] >> (OP_BITS - 1) == 1
