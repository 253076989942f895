"""Every table and figure of the paper's evaluation, as row generators.

Each ``figN_*_rows`` function returns ``(headers, rows)`` ready for
:func:`repro.utils.tables.format_table`; the benches under
``benchmarks/`` print and sanity-check them.  The ``EXPERIMENTS``
registry is the per-experiment index DESIGN.md refers to.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from repro.compression.alphabets import SIX_STREAM_CONFIGS
from repro.compression.decoder_cost import scheme_decoder_cost
from repro.core.study import study_for
from repro.fetch.atb import att_bytes, att_overhead_percent
from repro.fetch.config import FetchConfig
from repro.programs.suite import BENCHMARK_NAMES
from repro.utils.stats import mean, median

Rows = tuple[Sequence[str], list[list]]


def _names(subset: Optional[Sequence[str]]) -> Sequence[str]:
    return tuple(subset) if subset else BENCHMARK_NAMES


# ----------------------------------------------------------- Figure 5
def fig5_compression_rows(
    benchmarks: Optional[Sequence[str]] = None,
    scale: Optional[int] = None,
) -> Rows:
    """Code-segment size as % of original, per scheme (Figure 5).

    ``stream`` is the smallest-decoder configuration and ``stream_1``
    the smallest-size one, chosen from the six searched configurations —
    the paper's selection rule.
    """
    headers = [
        "benchmark", "ops", "byte%", "stream%", "stream_1%", "full%",
        "tailored%",
    ]
    rows = []
    for name in _names(benchmarks):
        study = study_for(name, scale)
        by_decoder, by_size = study.best_stream_keys()
        rows.append(
            [
                name,
                study.compiled.image.total_ops,
                study.compressed("byte").ratio_percent(),
                study.compressed(by_decoder).ratio_percent(),
                study.compressed(by_size).ratio_percent(),
                study.compressed("full").ratio_percent(),
                study.compressed("tailored").ratio_percent(),
            ]
        )
    averages = ["average", sum(r[1] for r in rows)]
    for col in range(2, len(headers)):
        averages.append(mean(r[col] for r in rows))
    rows.append(averages)
    return headers, rows


# ----------------------------------------------------------- Figure 7
def fig7_att_rows(
    benchmarks: Optional[Sequence[str]] = None,
    scale: Optional[int] = None,
) -> Rows:
    """ATB characteristics and total code size with the ATT (Figure 7)."""
    headers = [
        "benchmark", "blocks", "att_bytes", "att_overhead%",
        "total_w_att%", "atb_hit%",
    ]
    rows = []
    for name in _names(benchmarks):
        study = study_for(name, scale)
        full = study.compressed("full")
        config = FetchConfig.for_scheme("compressed")
        geometry = config.cache
        metrics = study.fetch_metrics("compressed")
        baseline_bytes = study.compiled.image.baseline_code_bytes
        total = full.total_code_bytes + att_bytes(full, geometry)
        rows.append(
            [
                name,
                len(study.compiled.image),
                att_bytes(full, geometry),
                att_overhead_percent(full, geometry),
                100.0 * total / baseline_bytes,
                100.0 * metrics.atb_hit_rate,
            ]
        )
    rows.append(
        [
            "average",
            sum(r[1] for r in rows),
            sum(r[2] for r in rows),
            mean(r[3] for r in rows),
            mean(r[4] for r in rows),
            mean(r[5] for r in rows),
        ]
    )
    return headers, rows


# ---------------------------------------------------------- Figure 10
def fig10_decoder_rows(
    benchmarks: Optional[Sequence[str]] = None,
    scale: Optional[int] = None,
) -> Rows:
    """Huffman decoder complexity (transistors) per scheme (Figure 10)."""
    headers = ["benchmark", "byte", "stream", "stream_1", "full"]
    rows = []
    for name in _names(benchmarks):
        study = study_for(name, scale)
        by_decoder, by_size = study.best_stream_keys()
        rows.append(
            [
                name,
                scheme_decoder_cost(study.compressed("byte")).transistors,
                scheme_decoder_cost(
                    study.compressed(by_decoder)
                ).transistors,
                scheme_decoder_cost(study.compressed(by_size)).transistors,
                scheme_decoder_cost(study.compressed("full")).transistors,
            ]
        )
    rows.append(
        ["average"] + [
            int(mean(r[col] for r in rows)) for col in range(1, 5)
        ]
    )
    return headers, rows


# ---------------------------------------------------------- Figure 13
def fig13_cache_rows(
    benchmarks: Optional[Sequence[str]] = None,
    scale: Optional[int] = None,
) -> Rows:
    """Ops delivered per cycle: Ideal / Base / Compressed / Tailored.

    The three real organizations go through the columnar sweep engine
    (one factored trace pass per benchmark, bit-identical to — and
    store-interchangeable with — per-scheme ``fetch_metrics`` calls:
    the default grid's points are the standard configs, stored under
    the same :func:`~repro.core.study.fetch_key`, so a ``--jobs``
    prewarm or an earlier Figure 14 run serves them); Ideal has no
    cache/predictor machinery to factor and stays on the study path.
    """
    from repro.core.sweep import expand_grid, run_sweep

    headers = ["benchmark", "ideal", "base", "compressed", "tailored"]
    grid = expand_grid(("base", "compressed", "tailored"))
    rows = []
    for name in _names(benchmarks):
        study = study_for(name, scale)
        ipc = {
            metrics.scheme: metrics.ipc
            for metrics in run_sweep(name, grid, scale=scale)
        }
        rows.append(
            [
                name,
                study.fetch_metrics("ideal").ipc,
                ipc["base"],
                ipc["compressed"],
                ipc["tailored"],
            ]
        )
    rows.append(
        ["average"] + [mean(r[col] for r in rows) for col in range(1, 5)]
    )
    rows.append(
        ["median"] + [median(r[col] for r in rows[:-1]) for col in range(1, 5)]
    )
    return headers, rows


# ---------------------------------------------------------- Figure 14
def fig14_busflip_rows(
    benchmarks: Optional[Sequence[str]] = None,
    scale: Optional[int] = None,
) -> Rows:
    """Memory-bus bit flips, normalized to Base = 100 (Figure 14)."""
    headers = [
        "benchmark", "base_flips", "tailored%of_base", "compressed%of_base",
    ]
    rows = []
    for name in _names(benchmarks):
        study = study_for(name, scale)
        base = study.fetch_metrics("base").bus_bit_flips
        tailored = study.fetch_metrics("tailored").bus_bit_flips
        compressed = study.fetch_metrics("compressed").bus_bit_flips
        denom = max(1, base)
        rows.append(
            [
                name,
                base,
                100.0 * tailored / denom,
                100.0 * compressed / denom,
            ]
        )
    rows.append(
        [
            "average",
            int(mean(r[1] for r in rows)),
            mean(r[2] for r in rows),
            mean(r[3] for r in rows),
        ]
    )
    return headers, rows


# ------------------------------------------------- adaptive extension
def adaptive_rows(
    benchmarks: Optional[Sequence[str]] = None,
    scale: Optional[int] = None,
) -> Rows:
    """The access-pattern-adaptive schemes against their parents.

    Size columns are ratio-percent (lower is better): ``context%``
    conditions the full-op Huffman code on the previous symbol class,
    ``hybrid%`` re-encodes the trace-hot blocks tailored and keeps the
    cold majority context-coded.  Cycle and bus-flip columns replay the
    same trace through the Compressed and hybrid fetch organizations
    (columnar sweep, bit-identical to the reference engine), so the
    table shows what the hot set buys at the default hotness threshold.
    """
    from repro.core.sweep import expand_grid, run_sweep

    headers = [
        "benchmark", "full%", "context%", "hybrid%",
        "compressed_cycles", "hybrid_cycles", "hybrid_flips%of_compr",
    ]
    grid = expand_grid(("compressed", "hybrid"))
    rows = []
    for name in _names(benchmarks):
        study = study_for(name, scale)
        by_scheme = {
            metrics.scheme: metrics
            for metrics in run_sweep(name, grid, scale=scale)
        }
        compressed = by_scheme["compressed"]
        hybrid = by_scheme["hybrid"]
        rows.append(
            [
                name,
                study.compressed("full").ratio_percent(),
                study.compressed("context").ratio_percent(),
                study.compressed("hybrid").ratio_percent(),
                compressed.cycles,
                hybrid.cycles,
                100.0
                * hybrid.bus_bit_flips
                / max(1, compressed.bus_bit_flips),
            ]
        )
    rows.append(
        [
            "average",
            mean(r[1] for r in rows),
            mean(r[2] for r in rows),
            mean(r[3] for r in rows),
            int(mean(r[4] for r in rows)),
            int(mean(r[5] for r in rows)),
            mean(r[6] for r in rows),
        ]
    )
    return headers, rows


# -------------------------------------------- static-profile extension
def static_rows(
    benchmarks: Optional[Sequence[str]] = None,
    scale: Optional[int] = None,
) -> Rows:
    """Profile-free hybrid vs the trace-profiled one, per benchmark.

    ``hybrid:static`` picks its hot set from the compile-time heat
    estimate (:func:`repro.analysis.freq.static_heat_profile`) — zero
    trace runs before compression.  ``gap%`` is the static hybrid's
    fetch-cycle overhead relative to the trace-profiled hybrid on the
    same trace (0 = the estimate recovered the trace's hot set
    exactly), ``rank_corr`` the Spearman correlation between the two
    heat profiles, and the bound columns the sound static bracket
    around the static hybrid's simulated cycles.
    """
    from repro.analysis.cachebound import cycle_bounds
    from repro.analysis.freq import static_heat_profile
    from repro.compression.adaptive import heat_profile
    from repro.core.sweep import expand_grid, run_sweep
    from repro.utils.stats import spearman

    headers = [
        "benchmark", "trace_cycles", "static_cycles", "gap%",
        "rank_corr", "bound_lo", "bound_hi",
    ]
    grid = expand_grid(
        ("hybrid",), hotness_sources=("trace", "static")
    )
    rows = []
    for name in _names(benchmarks):
        study = study_for(name, scale)
        by_scheme = {
            metrics.scheme: metrics
            for metrics in run_sweep(name, grid, scale=scale)
        }
        trace_hybrid = by_scheme["hybrid"]
        static_hybrid = by_scheme["hybrid:static"]
        counts = heat_profile(
            study.run.block_trace, len(study.compiled.image)
        )
        bounds = cycle_bounds(
            study.compressed("hybrid:static"),
            counts,
            FetchConfig.for_scheme("hybrid:static"),
        )
        rows.append(
            [
                name,
                trace_hybrid.cycles,
                static_hybrid.cycles,
                100.0
                * (static_hybrid.cycles - trace_hybrid.cycles)
                / max(1, trace_hybrid.cycles),
                spearman(
                    static_heat_profile(study.compiled.image), counts
                ),
                bounds.lower,
                bounds.upper,
            ]
        )
    rows.append(
        [
            "average",
            int(mean(r[1] for r in rows)),
            int(mean(r[2] for r in rows)),
            mean(r[3] for r in rows),
            mean(r[4] for r in rows),
            int(mean(r[5] for r in rows)),
            int(mean(r[6] for r in rows)),
        ]
    )
    return headers, rows


# ----------------------------------------------------------- registry
#: All six stream configurations (the Figure 3 search space).
_STREAM_KEYS = tuple(cfg.name for cfg in SIX_STREAM_CONFIGS)


@dataclass(frozen=True)
class Experiment:
    """One reproducible artifact of the paper's evaluation.

    ``schemes`` and ``fetch_schemes`` declare the artifact chain the
    runner touches; the runtime scheduler prewarms exactly those nodes
    when the CLI runs with ``--jobs``.
    """

    exp_id: str
    title: str
    runner: Callable[..., Rows]
    bench: str
    schemes: tuple = ()
    fetch_schemes: tuple = ()


EXPERIMENTS: dict[str, Experiment] = {
    e.exp_id: e
    for e in (
        Experiment(
            "fig5", "Compression technique comparison (code segment)",
            fig5_compression_rows, "benchmarks/test_fig5_compression.py",
            schemes=("byte",) + _STREAM_KEYS + ("full", "tailored"),
        ),
        Experiment(
            "fig7", "ATB characteristics / total code size with ATT",
            fig7_att_rows, "benchmarks/test_fig7_att_size.py",
            schemes=("full",), fetch_schemes=("compressed",),
        ),
        Experiment(
            "fig10", "Huffman decoder complexity",
            fig10_decoder_rows, "benchmarks/test_fig10_decoder_complexity.py",
            schemes=("byte",) + _STREAM_KEYS + ("full",),
        ),
        Experiment(
            "fig13", "Cache study summary (ops/cycle)",
            fig13_cache_rows, "benchmarks/test_fig13_cache_study.py",
            schemes=("base", "tailored", "full"),
            fetch_schemes=("ideal", "base", "compressed", "tailored"),
        ),
        Experiment(
            "adaptive", "Access-pattern-adaptive schemes (hybrid/context)",
            adaptive_rows, "benchmarks/test_adaptive_schemes.py",
            schemes=("full", "context", "hybrid"),
            fetch_schemes=("compressed", "hybrid"),
        ),
        Experiment(
            "static", "Profile-free (static-heat) hybrid compression",
            static_rows, "benchmarks/test_static_analysis.py",
            schemes=("full", "context", "hybrid", "hybrid:static"),
            fetch_schemes=("hybrid", "hybrid:static"),
        ),
        Experiment(
            "fig14", "Memory-bus bit flips",
            fig14_busflip_rows, "benchmarks/test_fig14_bus_flips.py",
            schemes=("base", "tailored", "full"),
            fetch_schemes=("base", "compressed", "tailored"),
        ),
    )
}
