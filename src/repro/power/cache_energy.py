"""Fetch-path access-energy model (the paper's filter-cache claim).

Section 4: "some researchers [Kin et al., the Filter Cache] indicate
that similar organization might contribute significantly to low-power
design, since the buffer cache filters out power-consuming accesses to
the larger L1 cache."  This module quantifies that: a simple
capacity-scaled energy-per-access model (array energy grows roughly with
the square root of capacity for same-geometry SRAMs) applied to the
event counts a fetch simulation already collects.

Relative units (one 1KB-SRAM access = 1.0); only *ratios between
schemes* are meaningful, as in the paper's Figure 14 methodology.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.fetch.config import FetchConfig
from repro.fetch.engine import FetchMetrics

#: Energy of one access to a 1KB SRAM array (the unit).
UNIT_SRAM_BYTES = 1024

#: The L0 buffer is 160 bytes (32 ops × 40 bits).
L0_BYTES = 160

#: Reading one line from the code ROM, relative to the unit SRAM access.
ROM_LINE_ENERGY = 8.0

#: Energy per bit flip on the external bus (dominates off-die power).
BUS_FLIP_ENERGY = 0.05


def sram_access_energy(capacity_bytes: int) -> float:
    """Energy of one access to an SRAM of ``capacity_bytes``."""
    if capacity_bytes <= 0:
        raise ValueError(f"capacity {capacity_bytes} must be positive")
    return math.sqrt(capacity_bytes / UNIT_SRAM_BYTES)


@dataclass(frozen=True)
class FetchEnergy:
    """Energy breakdown of one fetch simulation (relative units)."""

    scheme: str
    l0_energy: float
    l1_energy: float
    rom_energy: float
    bus_energy: float

    @property
    def total(self) -> float:
        return (
            self.l0_energy + self.l1_energy + self.rom_energy
            + self.bus_energy
        )

    @property
    def per_block(self) -> float:
        return self.total


def fetch_energy(
    metrics: FetchMetrics, config: FetchConfig
) -> FetchEnergy:
    """Evaluate the access-energy model over a simulation's counters.

    * every fetch the L0 sees is one L0 probe (its hits plus misses:
      every block under Compressed, the cold-tagged blocks under a
      hybrid organization, none under Base or Tailored),
    * blocks not satisfied by the L0 access the L1 once per fetch,
    * every missing line costs a ROM line read,
    * bus energy follows the bit-flip count (Figure 14's metric).
    """
    l1_access = sram_access_energy(config.cache.capacity_bytes)
    l0_access = sram_access_energy(L0_BYTES)
    l0_probes = metrics.buffer_hits + metrics.buffer_misses
    l1_accesses = metrics.cache_hits + metrics.cache_misses
    return FetchEnergy(
        scheme=metrics.scheme,
        l0_energy=l0_probes * l0_access,
        l1_energy=l1_accesses * l1_access,
        rom_energy=metrics.lines_fetched * ROM_LINE_ENERGY,
        bus_energy=metrics.bus_bit_flips * BUS_FLIP_ENERGY,
    )
