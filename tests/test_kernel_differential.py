"""Differential tests: fast paths are bit-identical to the references.

``simulate_fetch`` (a one-point columnar sweep), the bytearray bit
writer and the canonical Huffman decoder are *optimizations* of the
retained reference implementations (``simulate_fetch_reference``,
``ReferenceBitWriter``, ``decode_symbol_reference``), and every
observable output — ``FetchMetrics`` fields, encoded bytes, decoded
symbols — must match exactly.  CI runs this module as part of its
divergence gate.
"""

from __future__ import annotations

import pytest

from repro.fetch import engine
from repro.fetch.config import FetchConfig, initiation_cycles
from repro.fetch.engine import simulate_fetch, simulate_fetch_reference
from repro.runtime.tasks import fetch_image_key


@pytest.mark.parametrize("scaled", [True, False])
@pytest.mark.parametrize("scheme", ["base", "compressed", "tailored"])
def test_fetch_kernel_matches_reference(compress_study, scheme, scaled):
    compressed = compress_study.compressed(fetch_image_key(scheme))
    trace = compress_study.run.block_trace
    config = FetchConfig.for_scheme(scheme, scaled=scaled)
    reference = simulate_fetch_reference(compressed, trace, config)
    assert simulate_fetch(compressed, trace, config) == reference


def test_fetch_kernel_matches_reference_gshare(compress_study):
    compressed = compress_study.compressed("full")
    trace = compress_study.run.block_trace
    config = FetchConfig.for_scheme(
        "compressed", scaled=True, predictor="gshare"
    )
    assert simulate_fetch(compressed, trace, config) == (
        simulate_fetch_reference(compressed, trace, config)
    )


def test_fetch_kernel_matches_reference_with_l0_hits(compress_study):
    """The default 32-op L0 never hits at this scale; widen it so the
    sweep's buffer-hit path is differentially covered too."""
    compressed = compress_study.compressed("full")
    trace = compress_study.run.block_trace
    config = FetchConfig.for_scheme(
        "compressed", scaled=True, l0_capacity_ops=128
    )
    reference = simulate_fetch_reference(compressed, trace, config)
    assert reference.buffer_hits > 0
    assert simulate_fetch(compressed, trace, config) == reference


def test_fetch_kernel_empty_trace(compress_study):
    compressed = compress_study.compressed("base")
    config = FetchConfig.for_scheme("base", scaled=True)
    assert simulate_fetch(compressed, [], config) == (
        simulate_fetch_reference(compressed, [], config)
    )


def test_buffer_hit_always_charges_one_line(compress_study, monkeypatch):
    """An L0 hit must charge exactly one line — never a ``total_lines``
    carried over from an earlier iteration's L1 probe."""
    calls = []

    def recording(scheme, *, pred_correct, cache_hit, buffer_hit, n):
        calls.append((buffer_hit, n))
        return initiation_cycles(
            scheme,
            pred_correct=pred_correct,
            cache_hit=cache_hit,
            buffer_hit=buffer_hit,
            n=n,
        )

    monkeypatch.setattr(engine, "initiation_cycles", recording)
    # A 128-op L0 actually gets hits on this trace (the paper's 32-op
    # buffer is smaller than this study's hot loop bodies).
    config = FetchConfig.for_scheme(
        "compressed", scaled=True, l0_capacity_ops=128
    )
    compressed = compress_study.compressed("full")
    simulate_fetch_reference(
        compressed, compress_study.run.block_trace, config
    )
    buffer_hit_lines = {n for hit, n in calls if hit}
    assert buffer_hit_lines == {1}
    # The guard is only meaningful if the same run also saw multi-line
    # charges that a stale binding could have leaked from.
    assert any(n > 1 for hit, n in calls if not hit)
