"""Tests for the repro.check invariant/fault-injection subsystem."""

import pytest

from repro.check.registry import (
    INJECT_TAGS,
    REGISTRY,
    SCOPES,
    CheckContext,
    Recorder,
    invariant,
    select,
)
from repro.check.runner import run_checks
from repro.errors import CheckError


class TestRegistry:
    def test_every_scope_is_populated(self):
        populated = {inv.scope for inv in REGISTRY.values()}
        assert populated == set(SCOPES)

    def test_quick_selection_is_a_strict_subset(self):
        quick = select(quick=True)
        full = select(quick=False)
        assert set(quick) < set(full)
        assert "store-bitflip-exhaustive" in set(full) - set(quick)

    def test_scope_filter(self):
        store_only = select(quick=False, scopes=["store"])
        assert store_only
        assert all(i.scope == "store" for i in store_only.values())

    def test_unknown_invariant_name_rejected(self):
        with pytest.raises(CheckError, match="no-such-check"):
            select(names=["no-such-check"])

    def test_duplicate_registration_rejected(self):
        first = next(iter(REGISTRY))
        with pytest.raises(CheckError, match="duplicate"):
            invariant(first, scope="store", description="dup")(
                lambda ctx, rec: None
            )

    def test_unknown_scope_rejected(self):
        with pytest.raises(CheckError, match="scope"):
            invariant("x", scope="quantum", description="d")(
                lambda ctx, rec: None
            )


class TestRecorder:
    def test_expect_counts_and_records(self):
        rec = Recorder("inv")
        assert rec.expect(True, "a", "fine")
        assert not rec.expect(False, "b", "broken")
        assert rec.checked == 2
        assert len(rec.violations) == 1
        assert rec.violations[0].invariant == "inv"
        assert "broken" in rec.violations[0].render()

    def test_expect_equal_formats_both_sides(self):
        rec = Recorder("inv")
        rec.expect_equal(3, 4, "s", "count")
        assert "expected 4" in rec.violations[0].message
        assert "got 3" in rec.violations[0].message


class TestContext:
    def test_rng_is_deterministic_per_seed_and_tag(self):
        a = CheckContext(benchmarks=("compress",), seed=7)
        b = CheckContext(benchmarks=("compress",), seed=7)
        assert [a.rng("t").random() for _ in range(3)] == [
            b.rng("t").random() for _ in range(3)
        ]

    def test_rng_differs_across_tags_and_seeds(self):
        ctx = CheckContext(benchmarks=("compress",), seed=7)
        other = CheckContext(benchmarks=("compress",), seed=8)
        assert ctx.rng("t").random() != ctx.rng("u").random()
        assert ctx.rng("t").random() != other.rng("t").random()

    def test_tamper_tags_are_the_documented_ones(self):
        ctx = CheckContext(
            benchmarks=("compress",), inject=frozenset(INJECT_TAGS)
        )
        assert ctx.tampered("roundtrip")
        assert ctx.tampered("conservation")
        assert not ctx.tampered("something-else")


class TestRunner:
    def test_quick_run_passes_on_a_real_benchmark(self):
        report = run_checks(["compress"], quick=True, scale=2, seed=1999)
        assert report.ok, report.render()
        assert report.total_checked > 0
        assert {o.name for o in report.outcomes} == set(
            select(quick=True)
        )
        assert all(o.error is None for o in report.outcomes)

    def test_unknown_benchmark_rejected(self):
        with pytest.raises(CheckError, match="unknown benchmark"):
            run_checks(["not-a-benchmark"])

    def test_store_faults_need_no_studies(self):
        report = run_checks(
            ["compress"], quick=True, scopes=["store"], seed=3
        )
        assert report.ok, report.render()
        assert all(o.scope == "store" for o in report.outcomes)

    def test_full_only_bitflip_sweep(self):
        report = run_checks(
            ["compress"],
            quick=False,
            names=["store-bitflip-exhaustive"],
        )
        assert report.ok, report.render()

    def test_inject_roundtrip_fails_exactly_that_invariant(self):
        report = run_checks(
            ["compress"],
            quick=True,
            scale=2,
            inject=("roundtrip",),
            names=["huffman-roundtrip", "kraft-equality"],
        )
        assert not report.ok
        assert [o.name for o in report.failing] == ["huffman-roundtrip"]
        assert "huffman-roundtrip" in report.render()

    def test_inject_conservation_fails_exactly_that_invariant(self):
        report = run_checks(
            ["compress"],
            quick=True,
            scale=2,
            inject=("conservation",),
            names=["fetch-conservation", "att-sizing"],
        )
        assert [o.name for o in report.failing] == ["fetch-conservation"]

    def test_crashing_check_is_reported_not_raised(self):
        name = "crash-for-test"

        @invariant(name, scope="structure", description="always crashes")
        def _crash(ctx, rec):
            raise ValueError("boom")

        try:
            report = run_checks(["compress"], names=[name])
        finally:
            del REGISTRY[name]
        assert not report.ok
        outcome = report.outcomes[0]
        assert outcome.error is not None
        assert "boom" in outcome.error
        assert name in report.render()

    def test_json_shape(self):
        report = run_checks(
            ["compress"], quick=True, seed=5, scopes=["structure"]
        )
        payload = report.to_json()
        assert payload["ok"] is True
        assert payload["mode"] == "quick"
        assert payload["seed"] == 5
        assert payload["benchmarks"] == ["compress"]
        for entry in payload["invariants"]:
            assert entry["checked"] > 0
            assert entry["violations"] == []

    def test_same_seed_same_outcome_counts(self):
        kwargs = dict(quick=True, scopes=["structure"], seed=11)
        first = run_checks(["compress"], **kwargs)
        second = run_checks(["compress"], **kwargs)
        assert [(o.name, o.checked) for o in first.outcomes] == [
            (o.name, o.checked) for o in second.outcomes
        ]
