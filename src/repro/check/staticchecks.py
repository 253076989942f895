"""``static``-scope invariants: the predictive analyses vs the machine.

The loop/frequency/cache-bound analyses of :mod:`repro.analysis` make
claims about every possible execution; this scope checks those claims
against the *actual* machine on every benchmark:

* the interprocedural CFG the analyses run on really over-approximates
  the dynamic trace (every observed transition is a static edge);
* the static fetch-cycle bounds bracket the simulator — on the
  standard per-scheme configs and on randomized geometries;
* ``hybrid:static`` is built from exactly the profile the static
  estimator produces, with zero trace-stage executions;
* static heat rank-correlates with trace heat above a calibrated floor.

Soundness violations here mean an analysis bug, never a tuning issue —
except the rank-correlation floor, which gates estimator *quality* and
is deliberately conservative.
"""

from __future__ import annotations

from repro.check.registry import CheckContext, Recorder, invariant

#: Randomized-geometry pool: every entry keeps ``num_sets`` a power of
#: two and >= 2 (the banked cache halves the set count per bank).
_CACHE_POOL = (
    (512, 2, 16),
    (640, 2, 40),
    (1024, 2, 32),
    (1280, 2, 40),
    (2048, 4, 32),
    (4096, 4, 64),
)
_ATB_POOL = ((64, 2), (128, 4), (256, 8))
_L0_POOL = (8, 32, 96)

#: Minimum acceptable Spearman rank correlation between the static and
#: trace heat profiles, per benchmark.  Calibrated against the suite
#: (observed range ~0.25 on ``go`` to ~0.9); the floor sits below the
#: weakest benchmark so it trips on estimator regressions, not noise.
HEAT_RANK_FLOOR = 0.2


@invariant(
    "static-trace-edges",
    scope="static",
    description=(
        "every dynamic block transition is an interprocedural CFG edge"
    ),
)
def _trace_edges(ctx: CheckContext, rec: Recorder) -> None:
    for benchmark in ctx.benchmarks:
        study = ctx.study(benchmark)
        image = study.compiled.image
        cfg = {u: set(vs) for u, vs in study.analysis.cfg.items()}
        trace = study.run.block_trace
        rec.expect(
            not trace or trace[0] == image.entry_block,
            benchmark,
            f"trace starts at block {trace[0] if trace else None}, "
            f"image entry is {image.entry_block}",
        )
        bad = 0
        for prev, cur in zip(trace, trace[1:]):
            if cur not in cfg.get(prev, ()):
                bad += 1
                if bad <= 3:
                    rec.violation(
                        benchmark,
                        f"dynamic transition {prev} -> {cur} is not a "
                        "static CFG edge (frequency/cache analyses "
                        "would be unsound)",
                    )
        rec.checked_one(max(0, len(trace) - 1))


@invariant(
    "static-cycle-bounds",
    scope="static",
    description=(
        "static lower <= simulated cycles <= static upper, on standard "
        "and randomized fetch configs"
    ),
)
def _cycle_bounds(ctx: CheckContext, rec: Recorder) -> None:
    from repro.analysis.cachebound import cycle_bounds, standard_bounds
    from repro.fetch.config import CacheGeometry, FetchConfig
    from repro.fetch.engine import simulate_fetch

    rng = ctx.rng("static-cycle-bounds")
    random_rounds = 1 if ctx.quick else 3
    for benchmark in ctx.benchmarks:
        study = ctx.study(benchmark)
        trace = study.run.block_trace
        for scheme, compressed, report, cycles in standard_bounds(study):
            subject = f"{benchmark}/{scheme}"
            rec.expect(
                report.bracket(cycles),
                subject,
                f"standard config: bounds [{report.lower}, "
                f"{report.upper}] miss simulated {cycles}",
            )
            # Randomized geometries against the real trace.
            for _ in range(random_rounds):
                capacity, ways, line = _CACHE_POOL[
                    rng.randrange(len(_CACHE_POOL))
                ]
                atb_entries, atb_ways = _ATB_POOL[
                    rng.randrange(len(_ATB_POOL))
                ]
                config = FetchConfig(
                    scheme=scheme,
                    cache=CacheGeometry(
                        name=f"rand{capacity}x{ways}x{line}",
                        capacity_bytes=capacity,
                        ways=ways,
                        line_bytes=line,
                    ),
                    atb_entries=atb_entries,
                    atb_ways=atb_ways,
                    atb_miss_penalty=rng.choice((1, 2, 4)),
                    l0_capacity_ops=rng.choice(_L0_POOL),
                )
                simulated = simulate_fetch(compressed, trace, config)
                report = cycle_bounds(
                    compressed, study.trace_heat, config, study.analysis
                )
                rec.expect(
                    report.bracket(simulated.cycles),
                    subject,
                    f"randomized config {config.cache.name}/"
                    f"atb{atb_entries}x{atb_ways}: bounds "
                    f"[{report.lower}, {report.upper}] miss simulated "
                    f"{simulated.cycles}",
                )


@invariant(
    "static-profile-zero-trace",
    scope="static",
    description=(
        "hybrid:static compresses without executing the trace stage"
    ),
)
def _zero_trace(ctx: CheckContext, rec: Recorder) -> None:
    from repro.core.study import ProgramStudy
    from repro.runtime.metrics import REPORT

    def trace_requests() -> int:
        # .get, not REPORT.stage(): reading must not add a trace row.
        trace = REPORT.stages.get("trace")
        return 0 if trace is None else trace.requests

    for benchmark in ctx.benchmarks:
        # A fresh study (not the shared one — that may have traced
        # already), so every trace it needs is a recorded request.
        before = trace_requests()
        study = ProgramStudy(benchmark, ctx.scale)
        compressed = study.compressed("hybrid:static")
        rec.expect(
            compressed.block_scheme_tags() is not None,
            benchmark,
            "hybrid:static image lost its per-block scheme tags",
        )
        rec.expect(
            trace_requests() == before,
            benchmark,
            f"hybrid:static compression made "
            f"{trace_requests() - before} trace stage request(s)",
        )


@invariant(
    "static-hybrid-tags",
    scope="static",
    description=(
        "hybrid:static hot/cold tags derive from the static profile"
    ),
)
def _static_tags(ctx: CheckContext, rec: Recorder) -> None:
    from repro.analysis.freq import static_heat_profile
    from repro.compression.adaptive import (
        COLD_TAG,
        HOT_TAG,
        hot_block_ids,
    )

    for benchmark in ctx.benchmarks:
        study = ctx.study(benchmark)
        compressed = study.compressed("hybrid:static")
        profile = static_heat_profile(study.compiled.image)
        rec.expect_equal(
            tuple(compressed.profile),
            profile,
            benchmark,
            "embedded profile vs fresh static estimate",
        )
        hot = hot_block_ids(profile, compressed.hotness)
        expected = tuple(
            HOT_TAG if bid in hot else COLD_TAG
            for bid in range(len(profile))
        )
        rec.expect_equal(
            tuple(compressed.block_scheme_tags()),
            expected,
            benchmark,
            "hot/cold tags vs static hot set",
        )


@invariant(
    "static-heat-rank",
    scope="static",
    description=(
        "static heat rank-correlates with trace heat above the floor"
    ),
)
def _heat_rank(ctx: CheckContext, rec: Recorder) -> None:
    from repro.utils.stats import spearman

    for benchmark in ctx.benchmarks:
        study = ctx.study(benchmark)
        rho = spearman(study.static_heat, study.trace_heat)
        rec.expect(
            rho >= HEAT_RANK_FLOOR,
            benchmark,
            f"static/trace heat rank correlation {rho:.3f} below "
            f"floor {HEAT_RANK_FLOOR}",
        )
