"""Tests for the experiment layer: studies, caching, figure row shapes."""

import pytest

from repro.core.experiments import (
    EXPERIMENTS,
    fig5_compression_rows,
    fig7_att_rows,
    fig10_decoder_rows,
    fig13_cache_rows,
    fig14_busflip_rows,
)
from repro.core.study import ProgramStudy, SCHEME_ORDER, study_for
from repro.errors import ConfigurationError, EmulationError

#: One small benchmark keeps the figure tests quick.
BENCH = ["compress"]
SCALE = 3


class TestProgramStudy:
    def test_artifacts_cached(self, compress_study):
        assert compress_study.compiled is compress_study.compiled
        assert compress_study.run is compress_study.run
        assert compress_study.compressed("full") is \
            compress_study.compressed("full")

    def test_checksum_verifies(self, compress_study):
        assert compress_study.verify_checksum()

    def test_unknown_scheme_rejected(self, compress_study):
        with pytest.raises(ConfigurationError):
            compress_study.compressed("nope")

    def test_unknown_fetch_scheme_rejected(self, compress_study):
        with pytest.raises(ConfigurationError):
            compress_study.fetch_metrics("nope")

    def test_stream_search_returns_two_configs(self, compress_study):
        by_decoder, by_size = compress_study.best_stream_keys()
        results = compress_study.stream_results()
        assert by_decoder in results and by_size in results
        # stream_1 (best size) is no larger than the decoder-optimal one.
        assert results[by_size].total_code_bytes <= \
            results[by_decoder].total_code_bytes

    def test_study_for_memoizes(self):
        assert study_for("compress", 3) is study_for("compress", 3)
        with pytest.raises(ConfigurationError):
            study_for("nope")

    @pytest.mark.parametrize("scale", [0, -1])
    def test_study_for_rejects_non_positive_scale(self, scale):
        with pytest.raises(
            ConfigurationError, match=f"positive integer, got {scale}"
        ):
            study_for("compress", scale)

    def test_fetch_uses_full_scheme_for_compressed(self, compress_study):
        metrics = compress_study.fetch_metrics("compressed")
        assert metrics.code_bytes == \
            compress_study.compressed("full").total_code_bytes

    def test_scheme_order_constant(self):
        assert "full" in SCHEME_ORDER and "tailored" in SCHEME_ORDER


def test_only_a_budget_overrun_becomes_a_configuration_error(monkeypatch):
    from repro import runtime
    from repro.core import study as study_module

    def broken(image, globals_data):
        raise EmulationError("integer division by zero")

    monkeypatch.setattr(study_module, "emulate", broken)
    saved = runtime.runtime_config()
    runtime.configure(enabled=False)
    try:
        with pytest.raises(EmulationError, match="division by zero"):
            ProgramStudy("compress", 2).run
    finally:
        runtime.set_runtime_config(saved)


class TestFigureRows:
    def test_fig5_shape(self):
        headers, rows = fig5_compression_rows(BENCH, SCALE)
        assert rows[-1][0] == "average"
        row = rows[0]
        byte_pct = row[headers.index("byte%")]
        full_pct = row[headers.index("full%")]
        tailored_pct = row[headers.index("tailored%")]
        # The paper's headline ordering on every benchmark.
        assert full_pct < tailored_pct < 100.0
        assert full_pct < byte_pct < 100.0

    def test_fig7_shape(self):
        headers, rows = fig7_att_rows(BENCH, SCALE)
        row = rows[0]
        assert row[headers.index("att_bytes")] > 0
        assert 0 < row[headers.index("att_overhead%")] < 100
        assert row[headers.index("atb_hit%")] > 50.0

    def test_fig10_shape(self):
        headers, rows = fig10_decoder_rows(BENCH, SCALE)
        row = rows[0]
        byte_cost = row[headers.index("byte")]
        full_cost = row[headers.index("full")]
        # Figure 10: best compression -> largest decoder.
        assert full_cost > byte_cost > 0

    def test_fig13_shape(self):
        headers, rows = fig13_cache_rows(BENCH, SCALE)
        row = rows[0]
        ideal = row[headers.index("ideal")]
        for scheme in ("base", "compressed", "tailored"):
            value = row[headers.index(scheme)]
            assert 0 < value <= ideal

    def test_fig14_shape(self):
        headers, rows = fig14_busflip_rows(BENCH, SCALE)
        row = rows[0]
        assert row[headers.index("base_flips")] >= 0
        compressed = row[headers.index("compressed%of_base")]
        tailored = row[headers.index("tailored%of_base")]
        # Savings track the degree of compression (Figure 14).
        assert compressed <= tailored <= 110.0

    def test_registry_complete(self):
        assert set(EXPERIMENTS) == {
            "fig5", "fig7", "fig10", "fig13", "fig14", "adaptive",
            "static",
        }
        for experiment in EXPERIMENTS.values():
            assert experiment.bench.startswith("benchmarks/")
            assert callable(experiment.runner)
