"""Tests for the fetch access-energy model."""

import pytest

from repro.fetch.config import FetchConfig
from repro.fetch.engine import FetchMetrics
from repro.power.cache_energy import (
    BUS_FLIP_ENERGY,
    FetchEnergy,
    L0_BYTES,
    ROM_LINE_ENERGY,
    fetch_energy,
    sram_access_energy,
)


class TestSramModel:
    def test_unit_normalization(self):
        assert sram_access_energy(1024) == pytest.approx(1.0)

    def test_sqrt_scaling(self):
        assert sram_access_energy(4096) == pytest.approx(2.0)

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            sram_access_energy(0)

    def test_l0_cheaper_than_any_l1(self):
        for scheme in ("base", "tailored", "compressed"):
            config = FetchConfig.for_scheme(scheme, scaled=True)
            assert sram_access_energy(L0_BYTES) < sram_access_energy(
                config.cache.capacity_bytes
            )


def _metrics(
    scheme, blocks, buffer_hits, hits, misses, lines, flips,
    buffer_misses=0,
):
    m = FetchMetrics(scheme=scheme)
    m.blocks_fetched = blocks
    m.buffer_hits = buffer_hits
    m.buffer_misses = buffer_misses
    m.cache_hits = hits
    m.cache_misses = misses
    m.lines_fetched = lines
    m.bus_bit_flips = flips
    return m


class TestFetchEnergy:
    def test_base_has_no_l0_component(self):
        config = FetchConfig.for_scheme("base", scaled=True)
        energy = fetch_energy(
            _metrics("base", 100, 0, 90, 10, 20, 500), config
        )
        assert energy.l0_energy == 0.0
        assert energy.rom_energy == 20 * ROM_LINE_ENERGY
        assert energy.bus_energy == pytest.approx(500 * BUS_FLIP_ENERGY)

    def test_compressed_probes_l0_every_block(self):
        config = FetchConfig.for_scheme("compressed", scaled=True)
        energy = fetch_energy(
            _metrics("compressed", 100, 60, 35, 5, 8, 100, 40), config
        )
        assert energy.l0_energy == pytest.approx(
            100 * sram_access_energy(L0_BYTES)
        )
        # Only non-buffer-hit blocks reach the L1 array.
        assert energy.l1_energy == pytest.approx(
            40 * sram_access_energy(config.cache.capacity_bytes)
        )

    def test_hybrid_probes_l0_for_cold_blocks_only(self):
        # 50 of 100 fetches are cold-tagged and probe the L0 (30 hit);
        # the 20 L0 misses and the 50 hot fetches go to the L1.
        config = FetchConfig.for_scheme("hybrid", scaled=True)
        energy = fetch_energy(
            _metrics("hybrid", 100, 30, 64, 6, 9, 100, 20), config
        )
        assert energy.l0_energy == pytest.approx(
            50 * sram_access_energy(L0_BYTES)
        )
        assert energy.l1_energy == pytest.approx(
            70 * sram_access_energy(config.cache.capacity_bytes)
        )

    def test_l0_probes_match_a_hybrid_simulation(self, compress_study):
        metrics = compress_study.fetch_metrics("hybrid")
        assert metrics.buffer_hits + metrics.buffer_misses > 0
        energy = fetch_energy(
            metrics, FetchConfig.for_scheme("hybrid", scaled=True)
        )
        assert energy.l0_energy == pytest.approx(
            (metrics.buffer_hits + metrics.buffer_misses)
            * sram_access_energy(L0_BYTES)
        )

    def test_total_is_sum(self):
        energy = FetchEnergy("x", 1.0, 2.0, 3.0, 4.0)
        assert energy.total == pytest.approx(10.0)

    def test_filter_effect_on_real_run(self, compress_study):
        base_cfg = FetchConfig.for_scheme("base", scaled=True)
        comp_cfg = FetchConfig.for_scheme("compressed", scaled=True)
        base = fetch_energy(
            compress_study.fetch_metrics("base"), base_cfg
        )
        comp = fetch_energy(
            compress_study.fetch_metrics("compressed"), comp_cfg
        )
        assert comp.total < base.total
