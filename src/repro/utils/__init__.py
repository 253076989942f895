"""Shared low-level utilities: bit streams, tables, statistics."""

from repro.utils.bitstream import (
    BitReader,
    BitWriter,
    ReferenceBitWriter,
    new_writer,
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
    "BitWriter",
    "ReferenceBitWriter",
    "format_table",
    "new_writer",
    "geometric_mean",
    "mean",
    "median",
    "percent",
    "ratio",
    "weighted_mean",
]
