"""Trace-driven fetch simulation realizing Table 1 (paper Section 5).

For every block in the dynamic trace the engine consults the ATB (whose
entry hosts the block's predictor and whose miss charges an ATT fetch),
probes the L1 (and, for Compressed, the L0 buffer first), charges the
Table 1 initiation cycles plus one cycle per additional MultiOp, and
drives miss traffic through the bit-flip bus model.

The headline metric matches Figure 13: operations delivered per cycle
at issue width 6, with "Ideal" = perfect cache + perfect prediction
(one MultiOp per cycle, limited only by schedule density).
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.compression.schemes import CompressedImage
from repro.fetch.atb import att_bytes
from repro.fetch.branch_predict import BlockMeta
from repro.fetch.config import (
    FetchConfig,
    block_families,
    image_organization,
    initiation_cycles,
)


@dataclass
class FetchMetrics:
    """Everything one fetch simulation produced."""

    scheme: str
    cycles: int = 0
    delivered_ops: int = 0
    delivered_mops: int = 0
    blocks_fetched: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    lines_fetched: int = 0
    buffer_hits: int = 0
    buffer_misses: int = 0
    pred_correct: int = 0
    pred_incorrect: int = 0
    atb_hits: int = 0
    atb_misses: int = 0
    bus_bytes: int = 0
    bus_beats: int = 0
    bus_bit_flips: int = 0
    code_bytes: int = 0
    att_bytes: int = 0
    extra: dict = field(default_factory=dict)

    @property
    def ipc(self) -> float:
        """Operations delivered per cycle (the Figure 13 metric)."""
        return self.delivered_ops / self.cycles if self.cycles else 0.0

    @property
    def cache_hit_rate(self) -> float:
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0

    @property
    def prediction_accuracy(self) -> float:
        total = self.pred_correct + self.pred_incorrect
        return self.pred_correct / total if total else 0.0

    @property
    def atb_hit_rate(self) -> float:
        total = self.atb_hits + self.atb_misses
        return self.atb_hits / total if total else 0.0


def ideal_metrics(
    compressed: CompressedImage, trace: Sequence[int], *, replay=None
) -> FetchMetrics:
    """The paper's "Ideal": perfect cache and predictor, 1 MultiOp/cycle.

    The delivered totals are the program facts of ``replay`` (a
    :class:`~repro.fetch.sweep.TraceReplay` of ``trace``) when one is
    given, else of a fresh one, so a study's ideal reads the totals its
    fetch replays derived.
    """
    from repro.fetch.sweep import _replay_of

    program = _replay_of(trace, replay).program(compressed.image)
    metrics = FetchMetrics(scheme="ideal")
    metrics.delivered_mops = program.delivered_mops
    metrics.delivered_ops = program.delivered_ops
    metrics.blocks_fetched = len(trace)
    metrics.cycles = metrics.delivered_mops
    return metrics


def simulate_fetch(
    compressed: CompressedImage,
    trace: Sequence[int],
    config: Optional[FetchConfig] = None,
    *,
    replay=None,
) -> FetchMetrics:
    """Replay ``trace`` against one fetch organization.

    ``compressed`` supplies the address-space geometry (block offsets and
    sizes in the scheme's ROM encoding) and the payload bytes for the bus
    model.  The scheme is taken from the config; without one, the
    image's organization (:func:`~repro.fetch.config.image_organization`)
    on its literal cache.

    This is a one-point :func:`~repro.fetch.sweep.simulate_fetch_sweep`;
    its result is bit-identical to :func:`simulate_fetch_reference`,
    which ``tests/test_kernel_differential.py`` enforces.  ``replay``
    is an optional :class:`~repro.fetch.sweep.TraceReplay` of
    ``trace``, which lets calls for several organizations share one
    predictor pass.
    """
    from repro.fetch.sweep import simulate_fetch_sweep

    config = config or FetchConfig.for_scheme(
        image_organization(compressed.scheme_name)
    )
    return simulate_fetch_sweep(
        compressed, trace, [config], replay=replay
    )[0]


def simulate_fetch_reference(
    compressed: CompressedImage,
    trace: Sequence[int],
    config: Optional[FetchConfig] = None,
) -> FetchMetrics:
    """The retained straight-line model (one object per structure).

    This is the behavioral definition of the fetch machine; the
    columnar sweep behind :func:`simulate_fetch` is an optimization of
    *this* function and is differentially tested against it.
    """
    from repro.fetch.atb import ATB
    from repro.fetch.banked_cache import BankedCache
    from repro.fetch.branch_predict import GshareUnit
    from repro.fetch.l0buffer import L0Buffer
    from repro.power.busmodel import BusModel

    config = config or FetchConfig.for_scheme(
        image_organization(compressed.scheme_name)
    )
    scheme = config.scheme
    block_schemes, l0_probes = block_families(compressed, scheme)

    image = compressed.image
    metas = [BlockMeta.from_block(b) for b in image]
    offsets = array("q", (compressed.block_offset(i) for i in range(len(image))))
    sizes = array(
        "q", (max(1, compressed.block_size(i)) for i in range(len(image)))
    )
    payloads = compressed.block_payloads

    atb = ATB(config.atb_entries, config.atb_ways)
    cache = BankedCache(config.cache)
    # Only the blocks ``block_families`` marks probe the L0 buffer.
    buffer = L0Buffer(config.l0_capacity_ops)
    bus = BusModel(config.bus_bytes)
    gshare = (
        GshareUnit(config.gshare_history_bits)
        if config.predictor == "gshare"
        else None
    )

    metrics = FetchMetrics(scheme=scheme)
    metrics.code_bytes = compressed.total_code_bytes
    metrics.att_bytes = att_bytes(compressed, config.cache)

    predicted_next: Optional[int] = None
    line_bytes = config.cache.line_bytes

    for position, block_id in enumerate(trace):
        meta = metas[block_id]
        block_scheme = block_schemes[block_id]
        # Was this block the one fetch predicted?  (Cold start counts as
        # correct: there was no pipeline to flush.)
        pred_correct = (
            predicted_next == block_id if position > 0 else True
        )
        entry, atb_hit = atb.access(block_id)
        if not atb_hit:
            # Fault the ATT entry: one memory line of table traffic.
            metrics.cycles += config.atb_miss_penalty

        buffer_hit = False
        probed_buffer = l0_probes[block_id]
        if probed_buffer:
            buffer_hit = buffer.access(block_id, meta.op_count)

        # (cache_hit, total_lines) is bound explicitly in each branch: a
        # buffer hit must charge exactly one line, never a line count
        # left over from an earlier iteration's cache probe.
        if buffer_hit:
            # L0 has priority over the L1; no cache state change.
            cache_hit, total_lines = True, 1
        else:
            cache_hit, total_lines, _missing = cache.access_block(
                offsets[block_id], sizes[block_id]
            )
            if not cache_hit:
                bus.transfer(payloads[block_id])

        n = total_lines if not cache_hit else (
            total_lines if block_scheme == "compressed" else 1
        )
        metrics.cycles += initiation_cycles(
            block_scheme,
            pred_correct=pred_correct,
            cache_hit=cache_hit,
            buffer_hit=buffer_hit,
            n=max(1, n),
        )
        metrics.cycles += meta.mop_count - 1
        metrics.delivered_mops += meta.mop_count
        metrics.delivered_ops += meta.op_count
        metrics.blocks_fetched += 1
        if pred_correct:
            metrics.pred_correct += 1
        else:
            metrics.pred_incorrect += 1
        if buffer_hit:
            metrics.buffer_hits += 1
        else:
            if probed_buffer:
                metrics.buffer_misses += 1
            if cache_hit:
                metrics.cache_hits += 1
            else:
                metrics.cache_misses += 1

        if gshare is not None:
            predicted_next = gshare.predict(meta, entry.predictor)
            if position + 1 < len(trace):
                gshare.update(meta, entry.predictor, trace[position + 1])
        else:
            predicted_next = entry.predictor.predict(meta)
            if position + 1 < len(trace):
                entry.predictor.update(meta, trace[position + 1])

    metrics.lines_fetched = cache.lines_fetched
    metrics.atb_hits = atb.hits
    metrics.atb_misses = atb.misses
    metrics.bus_bytes = bus.bytes_transferred
    metrics.bus_beats = bus.beats
    metrics.bus_bit_flips = bus.bit_flips
    metrics.extra["line_bytes"] = line_bytes
    return metrics
