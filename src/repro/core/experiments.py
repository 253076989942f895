"""Every table and figure of the paper's evaluation, declared as data.

Each figure is a table with one row per benchmark plus summary rows.
An :class:`Experiment` declares the table's headers, a module-level
``row(name, scale)`` that computes one benchmark's row, and its summary
rows, each a label plus one reducer per column.  One generic
:meth:`Experiment.runner` builds the benchmark rows, keeps benchmark
order and appends the summary rows.

Each benchmark row is a store artifact of its own (:func:`row_key`).
The runner looks every row up first, so a warm run reads one small
entry per benchmark and makes no task; each missing row is one
:func:`stored_row` task, inline or in a worker.  The row functions
import the study, the fetch layer and the decoder cost model when
called, so this module (and a warm ``repro run``) loads no pipeline
layer.

``figN_*_rows`` (and ``adaptive_rows``, ``static_rows``) are the
runners of the :data:`EXPERIMENTS` registry: each returns ``(headers,
rows)`` ready for :func:`repro.utils.tables.format_table`; the benches
under ``benchmarks/`` print and sanity-check them.  The registry is the
per-experiment index DESIGN.md refers to.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Optional, Sequence, Tuple

from repro import runtime
from repro.programs.specs import BENCHMARK_NAMES, effective_scale
from repro.runtime.scheduler import map_benchmarks
from repro.utils.stats import mean, median

Rows = tuple[Sequence[str], list[list]]

#: Reduces one column of the benchmark rows to a summary cell.
Reducer = Callable[[Sequence], object]


def int_mean(values: Sequence) -> int:
    """The mean, truncated to an int (count columns)."""
    return int(mean(values))


# ----------------------------------------------------------- Figure 5
def fig5_compression_row(name: str, scale: Optional[int]) -> list:
    """Code-segment size as % of original, per scheme (Figure 5).

    ``stream`` is the smallest-decoder configuration and ``stream_1``
    the smallest-size one, chosen from the six searched configurations —
    the paper's selection rule.
    """
    from repro.core.study import study_for

    study = study_for(name, scale)
    by_decoder, by_size = study.best_stream_keys()
    return [
        name,
        study.compiled.image.total_ops,
        study.compressed("byte").ratio_percent(),
        study.compressed(by_decoder).ratio_percent(),
        study.compressed(by_size).ratio_percent(),
        study.compressed("full").ratio_percent(),
        study.compressed("tailored").ratio_percent(),
    ]


# ----------------------------------------------------------- Figure 7
def fig7_att_row(name: str, scale: Optional[int]) -> list:
    """ATB characteristics and total code size with the ATT (Figure 7)."""
    from repro.core.study import study_for
    from repro.fetch.atb import att_bytes, att_overhead_percent
    from repro.fetch.config import FetchConfig

    study = study_for(name, scale)
    full = study.compressed("full")
    geometry = FetchConfig.for_scheme("compressed").cache
    metrics = study.fetch_metrics("compressed")
    baseline_bytes = study.compiled.image.baseline_code_bytes
    total = full.total_code_bytes + att_bytes(full, geometry)
    return [
        name,
        len(study.compiled.image),
        att_bytes(full, geometry),
        att_overhead_percent(full, geometry),
        100.0 * total / baseline_bytes,
        100.0 * metrics.atb_hit_rate,
    ]


# ---------------------------------------------------------- Figure 10
def fig10_decoder_row(name: str, scale: Optional[int]) -> list:
    """Huffman decoder complexity (transistors) per scheme (Figure 10)."""
    from repro.compression.decoder_cost import scheme_decoder_cost
    from repro.core.study import study_for

    study = study_for(name, scale)
    by_decoder, by_size = study.best_stream_keys()
    return [name] + [
        scheme_decoder_cost(study.compressed(key)).transistors
        for key in ("byte", by_decoder, by_size, "full")
    ]


# ---------------------------------------------------------- Figure 13
def fig13_cache_row(name: str, scale: Optional[int]) -> list:
    """Ops delivered per cycle: Ideal / Base / Compressed / Tailored.

    The three real organizations go through the columnar sweep engine
    (one factored trace pass per benchmark, bit-identical to — and
    store-interchangeable with — per-scheme ``fetch_metrics`` calls:
    the default grid's points are the standard configs, stored under
    the same :func:`~repro.core.study.fetch_key`, so an earlier Figure
    14 run serves them); Ideal has no cache/predictor machinery to
    factor and stays on the study path.
    """
    from repro.core.study import study_for
    from repro.core.sweep import expand_grid, run_sweep

    grid = expand_grid(("base", "compressed", "tailored"))
    ipc = {
        metrics.scheme: metrics.ipc
        for metrics in run_sweep(name, grid, scale=scale)
    }
    return [
        name,
        study_for(name, scale).fetch_metrics("ideal").ipc,
        ipc["base"],
        ipc["compressed"],
        ipc["tailored"],
    ]


# ---------------------------------------------------------- Figure 14
def fig14_busflip_row(name: str, scale: Optional[int]) -> list:
    """Memory-bus bit flips, normalized to Base = 100 (Figure 14)."""
    from repro.core.study import study_for

    study = study_for(name, scale)
    base = study.fetch_metrics("base").bus_bit_flips
    tailored = study.fetch_metrics("tailored").bus_bit_flips
    compressed = study.fetch_metrics("compressed").bus_bit_flips
    denom = max(1, base)
    return [
        name,
        base,
        100.0 * tailored / denom,
        100.0 * compressed / denom,
    ]


# ------------------------------------------------- adaptive extension
def adaptive_row(name: str, scale: Optional[int]) -> list:
    """The access-pattern-adaptive schemes against their parents.

    Size columns are ratio-percent (lower is better): ``context%``
    conditions the full-op Huffman code on the previous symbol class,
    ``hybrid%`` re-encodes the trace-hot blocks tailored and keeps the
    cold majority context-coded.  Cycle and bus-flip columns replay the
    same trace through the Compressed and hybrid fetch organizations
    (columnar sweep, bit-identical to the reference engine), so the
    table shows what the hot set buys at the default hotness threshold.
    """
    from repro.core.study import study_for
    from repro.core.sweep import expand_grid, run_sweep

    study = study_for(name, scale)
    by_scheme = {
        metrics.scheme: metrics
        for metrics in run_sweep(
            name, expand_grid(("compressed", "hybrid")), scale=scale
        )
    }
    compressed = by_scheme["compressed"]
    hybrid = by_scheme["hybrid"]
    return [
        name,
        study.compressed("full").ratio_percent(),
        study.compressed("context").ratio_percent(),
        study.compressed("hybrid").ratio_percent(),
        compressed.cycles,
        hybrid.cycles,
        100.0 * hybrid.bus_bit_flips / max(1, compressed.bus_bit_flips),
    ]


# -------------------------------------------- static-profile extension
def static_row(name: str, scale: Optional[int]) -> list:
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
    from repro.core.study import study_for
    from repro.core.sweep import expand_grid, run_sweep
    from repro.utils.stats import spearman

    grid = expand_grid(("hybrid",), hotness_sources=("trace", "static"))
    static_config = next(c for c in grid if c.scheme == "hybrid:static")
    study = study_for(name, scale)
    by_scheme = {
        metrics.scheme: metrics
        for metrics in run_sweep(name, grid, scale=scale)
    }
    trace_hybrid = by_scheme["hybrid"]
    static_hybrid = by_scheme["hybrid:static"]
    # Bound the very config the sweep simulated.
    bounds = cycle_bounds(
        study.compressed("hybrid:static"),
        study.trace_heat,
        static_config,
        study.analysis,
    )
    return [
        name,
        trace_hybrid.cycles,
        static_hybrid.cycles,
        100.0
        * (static_hybrid.cycles - trace_hybrid.cycles)
        / max(1, trace_hybrid.cycles),
        spearman(study.static_heat, study.trace_heat),
        bounds.lower,
        bounds.upper,
    ]


# ----------------------------------------------------------- registry
def row_key(exp_id: str, name: str, scale: Optional[int]) -> dict:
    """The store address of one benchmark's ``exp_id`` row."""
    scale = effective_scale(name, scale)
    return dict(benchmark=name, scale=scale, extra={"experiment": exp_id})


def stored_row(
    exp_id: str,
    row: Callable[[str, Optional[int]], list],
    name: str,
    scale: Optional[int],
) -> list:
    """``row(name, scale)`` through the store's ``row`` stage.

    The entry is keyed by the benchmark, its effective scale (the
    suite default when ``scale`` is ``None``), ``exp_id`` and the
    source fingerprint, so experiments never share a row and an edit
    anywhere in ``repro`` recomputes it.  A hit loads no study; a miss
    computes the row (reading or computing its studies' stages) and
    stores it.  With the store off the row is computed directly.  The
    row's own analysis, outside its nested stages, is the ``row``
    stage's seconds.
    """
    return runtime.get_or_compute(
        "row", partial(row, name, scale), **row_key(exp_id, name, scale)
    )


@dataclass(frozen=True)
class Experiment:
    """One reproducible artifact of the paper's evaluation.

    ``row(name, scale)`` is a module-level function, so with ``jobs``
    the runner ships one :func:`stored_row` call per missing row to a
    worker, which computes and stores the row, and the row itself comes
    back.  Each of ``summaries`` is a label plus one reducer per column
    after the first, applied to the benchmark rows only, in the caller.
    """

    exp_id: str
    title: str
    headers: Tuple[str, ...]
    row: Callable[[str, Optional[int]], list]
    summaries: Tuple[Tuple[str, Tuple[Reducer, ...]], ...]
    bench: str

    def runner(
        self,
        benchmarks: Optional[Sequence[str]] = None,
        scale: Optional[int] = None,
        *,
        jobs: int = 1,
    ) -> Rows:
        """``(headers, rows)``: one row per benchmark (all of the suite
        when ``benchmarks`` is empty), in order, then the summary rows.
        Only the rows the store lacks become tasks."""
        names = tuple(benchmarks or BENCHMARK_NAMES)
        keys = [row_key(self.exp_id, name, scale) for name in names]
        rows = runtime.lookup("row", keys)
        missing = [i for i, row in enumerate(rows) if row is runtime.MISS]
        computed = map_benchmarks(
            partial(stored_row, self.exp_id, self.row),
            [names[i] for i in missing],
            scale,
            jobs=jobs,
        )
        for index, row in zip(missing, computed):
            rows[index] = row
        columns = list(zip(*rows))[1:]
        for label, reducers in self.summaries:
            rows.append(
                [label]
                + [reduce(column) for reduce, column in zip(reducers, columns)]
            )
        return list(self.headers), rows


EXPERIMENTS: dict[str, Experiment] = {
    e.exp_id: e
    for e in (
        Experiment(
            "fig5", "Compression technique comparison (code segment)",
            ("benchmark", "ops", "byte%", "stream%", "stream_1%", "full%",
             "tailored%"),
            fig5_compression_row,
            (("average", (sum,) + (mean,) * 5),),
            "benchmarks/test_fig5_compression.py",
        ),
        Experiment(
            "fig7", "ATB characteristics / total code size with ATT",
            ("benchmark", "blocks", "att_bytes", "att_overhead%",
             "total_w_att%", "atb_hit%"),
            fig7_att_row,
            (("average", (sum, sum, mean, mean, mean)),),
            "benchmarks/test_fig7_att_size.py",
        ),
        Experiment(
            "fig10", "Huffman decoder complexity",
            ("benchmark", "byte", "stream", "stream_1", "full"),
            fig10_decoder_row,
            (("average", (int_mean,) * 4),),
            "benchmarks/test_fig10_decoder_complexity.py",
        ),
        Experiment(
            "fig13", "Cache study summary (ops/cycle)",
            ("benchmark", "ideal", "base", "compressed", "tailored"),
            fig13_cache_row,
            (("average", (mean,) * 4), ("median", (median,) * 4)),
            "benchmarks/test_fig13_cache_study.py",
        ),
        Experiment(
            "adaptive", "Access-pattern-adaptive schemes (hybrid/context)",
            ("benchmark", "full%", "context%", "hybrid%",
             "compressed_cycles", "hybrid_cycles", "hybrid_flips%of_compr"),
            adaptive_row,
            (("average", (mean, mean, mean, int_mean, int_mean, mean)),),
            "benchmarks/test_adaptive_schemes.py",
        ),
        Experiment(
            "static", "Profile-free (static-heat) hybrid compression",
            ("benchmark", "trace_cycles", "static_cycles", "gap%",
             "rank_corr", "bound_lo", "bound_hi"),
            static_row,
            (("average",
              (int_mean, int_mean, mean, mean, int_mean, int_mean)),),
            "benchmarks/test_static_analysis.py",
        ),
        Experiment(
            "fig14", "Memory-bus bit flips",
            ("benchmark", "base_flips", "tailored%of_base",
             "compressed%of_base"),
            fig14_busflip_row,
            (("average", (int_mean, mean, mean)),),
            "benchmarks/test_fig14_bus_flips.py",
        ),
    )
}

fig5_compression_rows = EXPERIMENTS["fig5"].runner
fig7_att_rows = EXPERIMENTS["fig7"].runner
fig10_decoder_rows = EXPERIMENTS["fig10"].runner
fig13_cache_rows = EXPERIMENTS["fig13"].runner
fig14_busflip_rows = EXPERIMENTS["fig14"].runner
adaptive_rows = EXPERIMENTS["adaptive"].runner
static_rows = EXPERIMENTS["static"].runner
