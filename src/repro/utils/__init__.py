"""Shared low-level utilities: bit streams, tables, statistics."""

from repro.utils.bitstream import (
    BitReader,
    ReferenceBitWriter,
    pack_block,
)
from repro.utils.stats import (
    geometric_mean,
    mean,
    median,
    percent,
    ratio,
    weighted_mean,
)
from repro.utils.tables import format_table

__all__ = [
    "BitReader",
    "ReferenceBitWriter",
    "format_table",
    "pack_block",
    "geometric_mean",
    "mean",
    "median",
    "percent",
    "ratio",
    "weighted_mean",
]
