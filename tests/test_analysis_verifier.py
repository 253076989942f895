"""The static verifier: every rule proven both ways.

Each rule gets at least one negative test (a clean artifact yields no
diagnostics from that rule) and one positive test (a deliberately
corrupted or synthetic artifact makes exactly that rule fire).
Corruption always happens on deep copies — the fixtures are
session-scoped and shared.
"""

from __future__ import annotations

import copy
import json

import pytest

from repro.analysis.diagnostics import (
    AnalysisReport,
    Diagnostic,
    Severity,
    sorted_diagnostics,
)
from repro.analysis.verifier import (
    RULES,
    analyze_encoding,
    analyze_image,
    analyze_program,
    analyze_suite,
    corrupt_branch_target,
    enforce_image,
    rule as register_rule,
)
from repro.errors import AnalysisError
from repro.isa.image import BasicBlockImage, ProgramImage
from repro.isa.multiop import MultiOp
from repro.isa.opcodes import Opcode
from repro.isa.operation import Operation
from repro.isa.registers import gpr, pred


def _mop(*ops):
    return MultiOp.of(list(ops))


def _block(bid, mops, *, fallthrough=None, function="main", label=None):
    return BasicBlockImage(
        block_id=bid,
        label=label or f"{function}/b{bid}",
        mops=tuple(mops),
        fallthrough=fallthrough,
        function=function,
    )


def _halt():
    return _mop(Operation(Opcode.HALT))


def _named(report, rule_name):
    return [d for d in report.diagnostics if d.rule == rule_name]


@pytest.fixture(scope="module")
def tiny_image(tiny_program):
    prog, _, _ = tiny_program
    return prog.image


@pytest.fixture(scope="module")
def call_image(call_program):
    prog, _ = call_program
    return prog.image


# -------------------------------------------------------- derived graphs
def test_analyze_program_builds_one_graph(graph_builds):
    """The machine rules, every encoding run, each ``cache-bounds``
    bound and the ``hybrid:static`` heat all read the study's graph."""
    from repro.core.study import clear_caches

    clear_caches()
    try:
        report = analyze_program("compress", 2)
    finally:
        clear_caches()
    assert graph_builds == ["compress"]
    assert report.checked["cache-bounds"] > 0


@pytest.mark.parametrize("corrupt", [False, True], ids=["clean", "bad"])
def test_shared_graphs_report_what_each_rule_reports_alone(
    compress_study, corrupt
):
    image = compress_study.compiled.image
    if corrupt:
        image = corrupt_branch_target(image)
    together = analyze_image(image)
    diagnostics, checked = [], {}
    for rule_obj in RULES.values():
        if rule_obj.kind == "machine":
            alone = analyze_image(image, names=[rule_obj.name])
            diagnostics += alone.diagnostics
            checked.update(alone.checked)
    assert together.diagnostics == sorted_diagnostics(diagnostics)
    assert together.checked == checked
    assert bool(together.diagnostics) == corrupt


# ---------------------------------------------------------- clean images
def test_clean_images_produce_no_diagnostics(tiny_image, call_image):
    for image in (tiny_image, call_image):
        report = analyze_image(image)
        assert report.diagnostics == []
        assert report.total_checked > 0
        # every machine rule examined at least one subject somewhere
    combined = analyze_image(call_image)
    for name, r in RULES.items():
        if r.kind == "machine" and name != "op-roundtrip":
            assert combined.checked.get(name, 0) > 0, name


# -------------------------------------------------------- block-structure
def test_block_structure_clean(tiny_image):
    assert _named(analyze_image(tiny_image), "block-structure") == []


def test_block_structure_missing_fallthrough():
    image = ProgramImage(
        "synth",
        [
            _block(
                0,
                [_mop(Operation(Opcode.BR, target_block=1,
                                predicate=pred(1)))],
                fallthrough=None,  # conditional BR must fall through
            ),
            _block(1, [_halt()]),
        ],
    )
    diags = _named(analyze_image(image), "block-structure")
    assert any("no fallthrough" in d.message for d in diags)
    assert all(d.severity is Severity.ERROR for d in diags)


def test_block_structure_stale_fallthrough_is_lint():
    image = ProgramImage(
        "synth",
        [
            _block(
                0,
                [_mop(Operation(Opcode.BR, target_block=1))],
                fallthrough=1,  # unconditional BR never falls through
            ),
            _block(1, [_halt()]),
        ],
    )
    diags = _named(analyze_image(image), "block-structure")
    assert len(diags) == 1
    assert diags[0].severity is Severity.WARNING
    assert "unreachable past terminator" in diags[0].message


def test_block_structure_fallthrough_must_be_next_block():
    image = ProgramImage(
        "synth",
        [
            _block(0, [_mop(Operation(Opcode.LDI, dest=gpr(1), imm=1))],
                   fallthrough=2),
            _block(1, [_halt()]),
            _block(2, [_halt()]),
        ],
    )
    diags = _named(analyze_image(image), "block-structure")
    assert any("not the textually-next" in d.message for d in diags)


def test_block_structure_catches_mismatched_ids(tiny_image):
    image = copy.deepcopy(tiny_image)
    image.blocks[1].block_id = 40  # bit rot after construction
    diags = _named(analyze_image(image), "block-structure")
    assert any("does not match layout index" in d.message for d in diags)


def test_block_structure_control_before_final_group():
    image = ProgramImage(
        "synth",
        [
            _block(
                0,
                [
                    _mop(Operation(Opcode.BR, target_block=1)),
                    _mop(Operation(Opcode.LDI, dest=gpr(1), imm=1)),
                ],
                fallthrough=1,
            ),
            _block(1, [_halt()]),
        ],
    )
    diags = _named(analyze_image(image), "block-structure")
    assert any("before the final" in d.message for d in diags)


# ---------------------------------------------------------- branch-target
def test_branch_target_clean(call_image):
    assert _named(analyze_image(call_image), "branch-target") == []


def test_branch_target_out_of_range(tiny_image):
    corrupted = corrupt_branch_target(tiny_image)
    report = analyze_image(corrupted)
    diags = _named(report, "branch-target")
    assert len(diags) == 1
    assert diags[0].severity is Severity.ERROR
    assert "not a block id" in diags[0].message
    assert not report.ok()


def test_branch_target_escaping_its_function(call_image):
    image = copy.deepcopy(call_image)
    functions = {b.function for b in image}
    assert len(functions) >= 2
    br = next(
        (b, op)
        for b in image
        for op in b.ops
        if op.opcode is Opcode.BR
    )
    block, op = br
    other = next(
        b.block_id for b in image if b.function != block.function
    )
    op.target_block = other
    diags = _named(analyze_image(image), "branch-target")
    assert any("escapes" in d.message for d in diags)


def test_call_target_must_be_a_function_entry(call_image):
    from repro.analysis.graph import ImageGraph

    image = copy.deepcopy(call_image)
    entries = set(ImageGraph(image).entries.values())
    call_op = next(
        op for b in image for op in b.ops if op.opcode is Opcode.CALL
    )
    non_entry = next(
        b.block_id for b in image if b.block_id not in entries
    )
    call_op.target_block = non_entry
    diags = _named(analyze_image(image), "branch-target")
    assert any("not a function entry" in d.message for d in diags)


# ----------------------------------------------------- multiop-discipline
def test_multiop_discipline_clean(tiny_image):
    assert _named(analyze_image(tiny_image), "multiop-discipline") == []


def test_multiop_discipline_catches_flipped_tail_bit(tiny_image):
    image = copy.deepcopy(tiny_image)
    image.blocks[0].mops[0].ops[-1].tail = False
    diags = _named(analyze_image(image), "multiop-discipline")
    assert any("tail=" in d.message for d in diags)
    assert all(d.severity is Severity.ERROR for d in diags)


# ------------------------------------------------------------ vliw-hazard
def test_vliw_hazard_clean_on_scheduled_code(tiny_image):
    # The scheduler never packs same-cycle dependent ops, so compiled
    # images are hazard-free by construction.
    assert _named(analyze_image(tiny_image), "vliw-hazard") == []


def test_vliw_hazard_raw_is_warning():
    image = ProgramImage(
        "synth",
        [
            _block(
                0,
                [
                    _mop(
                        Operation(Opcode.LDI, dest=gpr(1), imm=1),
                        Operation(Opcode.ADD, dest=gpr(2),
                                  src1=gpr(1), src2=gpr(31)),
                    ),
                    _halt(),
                ],
            )
        ],
    )
    diags = _named(analyze_image(image), "vliw-hazard")
    assert len(diags) == 1
    assert diags[0].severity is Severity.WARNING
    assert "reads r1" in diags[0].message


def test_vliw_hazard_multi_control_is_error():
    image = ProgramImage(
        "synth",
        [
            _block(
                0,
                [
                    _mop(
                        Operation(Opcode.BR, target_block=1),
                        Operation(Opcode.BR, target_block=2,
                                  predicate=pred(1)),
                    )
                ],
                fallthrough=1,
            ),
            _block(1, [_halt()]),
            _block(2, [_halt()]),
        ],
    )
    diags = _named(analyze_image(image), "vliw-hazard")
    assert any(d.severity is Severity.ERROR for d in diags)
    assert any("transfer control" in d.message for d in diags)


# ----------------------------------------------------- reg-def-before-use
def test_def_before_use_clean(tiny_image, call_image):
    for image in (tiny_image, call_image):
        assert _named(analyze_image(image), "reg-def-before-use") == []


def test_def_before_use_flags_uninitialized_reads():
    image = ProgramImage(
        "synth",
        [
            _block(
                0,
                [
                    _mop(Operation(Opcode.ADD, dest=gpr(1),
                                   src1=gpr(5), src2=gpr(6))),
                    _halt(),
                ],
            )
        ],
    )
    diags = _named(analyze_image(image), "reg-def-before-use")
    assert len(diags) == 2  # r5 and r6
    assert all(d.severity is Severity.WARNING for d in diags)


def test_def_before_use_accepts_seeded_stack_pointer():
    image = ProgramImage(
        "synth",
        [
            _block(
                0,
                [
                    _mop(Operation(Opcode.ADD, dest=gpr(1),
                                   src1=gpr(31), src2=gpr(31))),
                    _halt(),
                ],
            )
        ],
    )
    assert _named(analyze_image(image), "reg-def-before-use") == []


def test_def_before_use_requires_assignment_on_every_path():
    # Diamond: only one arm assigns r5; the join reads it.
    cond = _mop(
        Operation(Opcode.CMPP_LT, dest=pred(1), src1=gpr(31),
                  src2=gpr(31)),
    )
    image = ProgramImage(
        "synth",
        [
            _block(0, [cond, _mop(Operation(Opcode.BR, target_block=2,
                                            predicate=pred(1)))],
                   fallthrough=1),
            _block(1, [_mop(Operation(Opcode.LDI, dest=gpr(5), imm=1)),
                       _mop(Operation(Opcode.BR, target_block=3))]),
            _block(2, [_mop(Operation(Opcode.LDI, dest=gpr(6), imm=2))],
                   fallthrough=3),
            _block(3, [_mop(Operation(Opcode.ADD, dest=gpr(7),
                                      src1=gpr(5), src2=gpr(5))),
                       _halt()]),
        ],
    )
    diags = _named(analyze_image(image), "reg-def-before-use")
    assert {d.block_id for d in diags} == {3}
    assert all("r5" in d.message for d in diags)


# --------------------------------------------------------- predicate-guard
def test_predicate_guard_clean(tiny_image):
    assert _named(analyze_image(tiny_image), "predicate-guard") == []


def test_predicate_guard_flags_undefined_guards():
    image = ProgramImage(
        "synth",
        [
            _block(
                0,
                [
                    _mop(Operation(Opcode.LDI, dest=gpr(1), imm=1,
                                   predicate=pred(2))),
                    _halt(),
                ],
            )
        ],
    )
    diags = _named(analyze_image(image), "predicate-guard")
    assert len(diags) == 1
    assert "p2" in diags[0].message


def test_predicate_guard_sees_compares_earlier_in_the_block():
    image = ProgramImage(
        "synth",
        [
            _block(
                0,
                [
                    _mop(Operation(Opcode.CMPP_LT, dest=pred(2),
                                   src1=gpr(31), src2=gpr(31))),
                    _mop(Operation(Opcode.LDI, dest=gpr(1), imm=1,
                                   predicate=pred(2))),
                    _halt(),
                ],
            )
        ],
    )
    assert _named(analyze_image(image), "predicate-guard") == []


# -------------------------------------------------------- unreachable-block
def test_unreachable_block_clean(tiny_image):
    assert _named(analyze_image(tiny_image), "unreachable-block") == []


def test_unreachable_block_is_linted():
    image = ProgramImage(
        "synth",
        [
            _block(0, [_mop(Operation(Opcode.BR, target_block=2))]),
            _block(1, [_halt()]),  # nothing reaches this
            _block(2, [_halt()]),
        ],
    )
    diags = _named(analyze_image(image), "unreachable-block")
    assert len(diags) == 1
    assert diags[0].block_id == 1
    assert diags[0].severity is Severity.WARNING


# ------------------------------------------------------------ op-roundtrip
def test_op_roundtrip_clean(tiny_image):
    assert _named(analyze_image(tiny_image), "op-roundtrip") == []


def test_op_roundtrip_catches_unencodable_fields(tiny_image):
    image = copy.deepcopy(tiny_image)
    ldi = next(
        op for b in image for op in b.ops if op.opcode is Opcode.LDI
    )
    ldi.imm = 1 << 30  # overflows the 20-bit field; encode masks it
    diags = _named(analyze_image(image), "op-roundtrip")
    assert len(diags) == 1
    assert diags[0].severity is Severity.ERROR


# -------------------------------------------------------- scheme-roundtrip
def _byte_compressed(image):
    from repro.compression.schemes import ByteHuffmanScheme

    return ByteHuffmanScheme().compress(copy.deepcopy(image))


def test_scheme_roundtrip_clean(tiny_image):
    report = analyze_encoding(_byte_compressed(tiny_image))
    assert _named(report, "scheme-roundtrip") == []


def test_scheme_roundtrip_catches_corrupted_payloads(tiny_image):
    compressed = _byte_compressed(tiny_image)
    original = compressed.block_payloads[0]
    compressed.block_payloads[0] = bytes(len(original))
    report = analyze_encoding(compressed)
    diags = _named(report, "scheme-roundtrip")
    assert diags and all(
        d.severity is Severity.ERROR for d in diags
    )


# ------------------------------------------------------- codebook-coverage
def test_codebook_coverage_clean(tiny_image):
    report = analyze_encoding(_byte_compressed(tiny_image))
    assert _named(report, "codebook-coverage") == []


def test_codebook_coverage_catches_missing_symbols(tiny_image):
    from repro.compression.schemes import FullOpHuffmanScheme

    compressed = FullOpHuffmanScheme().compress(
        copy.deepcopy(tiny_image)
    )
    emitted = compressed.image.blocks[0].ops[0].encode()
    del compressed.streams[0].code.codes[emitted]
    report = analyze_encoding(
        compressed, names=["codebook-coverage"]
    )
    diags = _named(report, "codebook-coverage")
    assert any("absent from its dictionary" in d.message for d in diags)


# -------------------------------------------------------- tailored-widths
def test_tailored_widths_clean(tiny_image):
    from repro.tailored.encoding import tailor_image

    report = analyze_encoding(
        tailor_image(copy.deepcopy(tiny_image)),
        names=["tailored-widths"],
    )
    assert _named(report, "tailored-widths") == []


def test_tailored_widths_catch_out_of_range_values(tiny_image):
    from repro.tailored.encoding import tailor_image

    compressed = tailor_image(copy.deepcopy(tiny_image))
    ldi = next(
        op
        for b in compressed.image
        for op in b.ops
        if op.opcode is Opcode.LDI
    )
    ldi.imm = (1 << 19) - 1  # far outside the observed (tailored) range
    report = analyze_encoding(compressed, names=["tailored-widths"])
    diags = _named(report, "tailored-widths")
    assert any("does not fit its tailored" in d.message for d in diags)


def test_tailored_widths_catch_unmapped_opcodes(tiny_image):
    from repro.tailored.encoding import tailor_image

    compressed = tailor_image(copy.deepcopy(tiny_image))
    spec = compressed.spec
    unused = next(
        opc for opc in Opcode if opc not in spec.opcode_selector
    )
    victim = compressed.image.blocks[0].mops[0].ops[0]
    victim.opcode = unused
    report = analyze_encoding(compressed, names=["tailored-widths"])
    diags = _named(report, "tailored-widths")
    assert any("no selector" in d.message for d in diags)


# ----------------------------------------------------------- att-coverage
def _scaled_geometry():
    from repro.fetch.config import COMPRESSED_CACHE_SCALED

    return COMPRESSED_CACHE_SCALED


def test_att_coverage_clean(tiny_image):
    report = analyze_encoding(
        _byte_compressed(tiny_image), geometry=_scaled_geometry()
    )
    assert _named(report, "att-coverage") == []
    assert report.checked["att-coverage"] == len(tiny_image)


def test_att_coverage_skipped_without_a_geometry(tiny_image):
    report = analyze_encoding(_byte_compressed(tiny_image))
    assert report.checked.get("att-coverage", 0) == 0


def test_att_coverage_catches_broken_offset_chains(tiny_image):
    compressed = _byte_compressed(tiny_image)
    compressed.block_offsets[1] += 1
    report = analyze_encoding(
        compressed, geometry=_scaled_geometry(),
        names=["att-coverage"],
    )
    diags = _named(report, "att-coverage")
    assert any("breaks the chain" in d.message for d in diags)


# ----------------------------------------------------- reports and registry
def test_report_json_roundtrips(tiny_image):
    report = analyze_image(corrupt_branch_target(tiny_image))
    payload = json.loads(json.dumps(report.to_json()))
    assert AnalysisReport.from_json(payload) == report
    assert payload["errors"] == 1


def test_diagnostic_json_roundtrips():
    diag = Diagnostic(
        rule="branch-target",
        severity=Severity.ERROR,
        program="compress",
        message="boom",
        scheme="byte",
        block="main/loop",
        block_id=3,
        op_index=7,
        hint="fix it",
    )
    assert Diagnostic.from_json(diag.to_json()) == diag
    assert "main/loop" in diag.render()


def test_severity_ordering_and_parse():
    assert Severity.ERROR.at_least(Severity.WARNING)
    assert not Severity.INFO.at_least(Severity.WARNING)
    assert Severity.parse("warning") is Severity.WARNING
    with pytest.raises(AnalysisError):
        Severity.parse("fatal")


def test_report_merge_accumulates(tiny_image):
    a = analyze_image(tiny_image, program="one")
    b = analyze_image(corrupt_branch_target(tiny_image), program="two")
    total = a.total_checked + b.total_checked
    a.merge(b)
    assert a.programs == ["one", "two"]
    assert a.total_checked == total
    assert not a.ok()


def test_diagnostics_sort_most_severe_first(tiny_image):
    image = copy.deepcopy(corrupt_branch_target(tiny_image))
    # Add a warning-tier problem alongside the injected error.
    image.blocks[0].mops[0].ops[0].predicate = pred(9)
    report = analyze_image(image)
    assert report.diagnostics[0].severity is Severity.ERROR


def test_rule_registry_rejects_duplicates_and_bad_kinds():
    with pytest.raises(AnalysisError):
        register_rule(
            "branch-target", kind="machine", description="dup"
        )(lambda ctx: None)
    with pytest.raises(AnalysisError):
        register_rule("x", kind="nonsense", description="bad")(
            lambda ctx: None
        )


def test_crashing_rule_becomes_a_diagnostic(tiny_image):
    @register_rule(
        "crash-probe", kind="machine", description="always raises"
    )
    def _crash(ctx):
        raise RuntimeError("kaboom")

    try:
        report = analyze_image(tiny_image, names=["crash-probe"])
    finally:
        RULES.pop("crash-probe")
    diags = _named(report, "rule-crash")
    assert len(diags) == 1
    assert "kaboom" in diags[0].message
    assert not report.ok()


def test_analyze_suite_rejects_unknown_benchmarks():
    with pytest.raises(AnalysisError):
        analyze_suite(["not-a-benchmark"])


# ------------------------------------------------------------------ gate
def test_enforce_image_raises_only_on_errors(tiny_image):
    enforce_image(tiny_image)  # clean: no exception
    with pytest.raises(AnalysisError) as excinfo:
        enforce_image(corrupt_branch_target(tiny_image))
    assert "branch-target" in str(excinfo.value)


def test_gate_environment_parsing():
    from repro.runtime.config import environment_problems, gate_enabled

    assert not gate_enabled({})
    assert not gate_enabled({"REPRO_ANALYZE": ""})
    assert gate_enabled({"REPRO_ANALYZE": "1"})
    assert gate_enabled({"REPRO_ANALYZE": "Yes"})
    assert not gate_enabled({"REPRO_ANALYZE": "0"})
    assert not gate_enabled({"REPRO_ANALYZE": "maybe"})
    assert environment_problems({}) == []
    assert environment_problems({"REPRO_ANALYZE": "on"}) == []
    (problem,) = environment_problems({"REPRO_ANALYZE": "maybe"})
    assert "REPRO_ANALYZE" in problem


def test_study_gate_verifies_after_compile(monkeypatch, graph_builds):
    from repro.core.study import ProgramStudy

    monkeypatch.setenv("REPRO_ANALYZE", "1")
    study = ProgramStudy("compress", scale=2)
    assert study.compiled.image.total_ops > 0  # gate passes silently
    # The gate verified on the study's graph, which the heat reads too.
    assert study.static_heat
    assert graph_builds == ["compress"]
