"""The artifact invariants: compression, ATT, fetch, and structures.

Each check recomputes a property the rest of the codebase *assumes* —
decode round-trips, Kraft equality, table sizing arithmetic, fetch
conservation laws, kernel/reference agreement — directly from the
artifacts of real suite programs, so a regression anywhere in the
pipeline surfaces as a named violation instead of a subtly wrong figure.

Store fault-injection checks live in :mod:`repro.check.faults`.
"""

from __future__ import annotations

from dataclasses import asdict, replace

from repro.check.registry import CheckContext, Recorder, invariant
from repro.compression.alphabets import SIX_STREAM_CONFIGS
from repro.fetch.atb import ATB, att_bytes, att_entry_bits
from repro.fetch.config import (
    CACHED_ORGANIZATIONS,
    ORGANIZATIONS,
    FetchConfig,
    fetch_image_key,
)
from repro.fetch.l0buffer import L0Buffer


def compression_schemes(ctx: CheckContext) -> tuple:
    """Scheme keys a run covers: all alphabets, one stream config in
    quick mode, all six in full mode."""
    streams = tuple(cfg.name for cfg in SIX_STREAM_CONFIGS)
    if ctx.quick:
        streams = streams[:1]
    return (
        "base", "byte", "full", "tailored", "context", "hybrid"
    ) + streams


# --------------------------------------------------------- compression
@invariant(
    "huffman-roundtrip",
    scope="compression",
    description="every scheme decodes every block back byte-identical",
)
def _huffman_roundtrip(ctx: CheckContext, rec: Recorder) -> None:
    for benchmark in ctx.benchmarks:
        study = ctx.study(benchmark)
        for scheme in compression_schemes(ctx):
            compressed = study.compressed(scheme)
            subject = f"{benchmark}/{scheme}"
            bad = 0
            for block in compressed.image:
                expected = [op.encode() for op in block.ops]
                actual = compressed.decode_block(block.block_id)
                if ctx.tampered("roundtrip") and block.block_id == 0:
                    actual = list(actual)
                    actual[0] ^= 1  # seeded corruption (--inject)
                if actual != expected:
                    bad += 1
            rec.expect(
                bad == 0,
                subject,
                f"{bad} of {len(compressed.image)} block(s) fail to "
                "decode back to their original ops",
            )


@invariant(
    "kraft-equality",
    scope="compression",
    description="every Huffman code satisfies Kraft with equality",
)
def _kraft_equality(ctx: CheckContext, rec: Recorder) -> None:
    # Huffman codes are complete: sum(2^-l) == 1 exactly, checked in
    # scaled integers.  The sole exception is a single-symbol alphabet,
    # whose 1-bit code only satisfies the inequality.
    for benchmark in ctx.benchmarks:
        study = ctx.study(benchmark)
        for scheme in compression_schemes(ctx):
            compressed = study.compressed(scheme)
            for index, stream in enumerate(compressed.streams):
                lengths = [
                    length for _, length in stream.code.codes.values()
                ]
                max_length = max(lengths)
                kraft = sum(1 << (max_length - l) for l in lengths)
                subject = f"{benchmark}/{scheme}#{index}"
                if len(lengths) == 1:
                    rec.expect(
                        kraft <= (1 << max_length),
                        subject,
                        "single-symbol code violates Kraft inequality",
                    )
                    continue
                rec.expect(
                    kraft == (1 << max_length),
                    subject,
                    f"Kraft sum {kraft}/2^{max_length} != 1: the code "
                    "is incomplete or ambiguous",
                )


@invariant(
    "code-length-bound",
    scope="compression",
    description="no code word exceeds the scheme's hardware bound",
)
def _code_length_bound(ctx: CheckContext, rec: Recorder) -> None:
    for benchmark in ctx.benchmarks:
        study = ctx.study(benchmark)
        for scheme in compression_schemes(ctx):
            compressed = study.compressed(scheme)
            bound = compressed.scheme.max_code_length
            if bound is None:
                continue
            for index, stream in enumerate(compressed.streams):
                rec.expect(
                    stream.code.max_code_length <= bound,
                    f"{benchmark}/{scheme}#{index}",
                    f"longest code word {stream.code.max_code_length} "
                    f"bits exceeds the {bound}-bit hardware bound",
                )


# ---------------------------------------------------------------- att
@invariant(
    "att-sizing",
    scope="att",
    description="ATT bytes == ceil(entry_bits * block_count / 8)",
)
def _att_sizing(ctx: CheckContext, rec: Recorder) -> None:
    # One ATT entry per block, bit-packed: the byte size must follow
    # exactly from the entry width and the block count, for every cache
    # geometry a fetch study uses.
    for benchmark in ctx.benchmarks:
        study = ctx.study(benchmark)
        for fetch_scheme in CACHED_ORGANIZATIONS:
            compressed = study.compressed(fetch_image_key(fetch_scheme))
            config = FetchConfig.for_scheme(fetch_scheme, scaled=True)
            geometry = config.cache
            subject = f"{benchmark}/{fetch_scheme}"
            entry_bits = att_entry_bits(compressed, geometry)
            blocks = len(compressed.image)
            expected = (entry_bits * blocks + 7) // 8
            rec.expect_equal(
                att_bytes(compressed, geometry),
                expected,
                subject,
                f"att_bytes for {blocks} blocks x {entry_bits} bits",
            )
            metrics = study.fetch_metrics(fetch_scheme, config)
            rec.expect_equal(
                metrics.att_bytes,
                att_bytes(compressed, geometry),
                subject,
                "FetchMetrics.att_bytes vs recomputed ATT size",
            )


# -------------------------------------------------------------- fetch
@invariant(
    "fetch-conservation",
    scope="fetch",
    description="hits + misses == accesses and trace totals add up",
)
def _fetch_conservation(ctx: CheckContext, rec: Recorder) -> None:
    for benchmark in ctx.benchmarks:
        study = ctx.study(benchmark)
        trace = study.run.block_trace
        image = study.compiled.image
        total_ops = sum(image.block(b).op_count for b in trace)
        total_mops = sum(image.block(b).mop_count for b in trace)
        for scheme in ORGANIZATIONS:
            # The config the metrics are simulated under (none for
            # ideal), whose bus width the bus checks below read.
            config = (
                None
                if scheme == "ideal"
                else FetchConfig.for_scheme(scheme, scaled=True)
            )
            metrics = study.fetch_metrics(scheme, config)
            if ctx.tampered("conservation"):
                metrics = replace(
                    metrics, blocks_fetched=metrics.blocks_fetched + 1
                )
            subject = f"{benchmark}/{scheme}"
            rec.expect_equal(
                metrics.blocks_fetched, len(trace), subject,
                "blocks_fetched vs trace length",
            )
            rec.expect_equal(
                metrics.delivered_ops, total_ops, subject,
                "delivered_ops vs trace op total",
            )
            rec.expect_equal(
                metrics.delivered_mops, total_mops, subject,
                "delivered_mops vs trace MultiOp total",
            )
            rec.expect(
                metrics.cycles >= metrics.delivered_mops,
                subject,
                f"{metrics.cycles} cycles < {metrics.delivered_mops} "
                "delivered MultiOps (streaming is 1 MultiOp/cycle)",
            )
            if scheme == "ideal":
                rec.expect_equal(
                    metrics.cycles, total_mops, subject,
                    "ideal cycles == MultiOp count",
                )
                continue
            rec.expect_equal(
                metrics.atb_hits + metrics.atb_misses,
                metrics.blocks_fetched,
                subject,
                "ATB hits + misses vs accesses",
            )
            rec.expect_equal(
                metrics.pred_correct + metrics.pred_incorrect,
                metrics.blocks_fetched,
                subject,
                "prediction outcomes vs blocks fetched",
            )
            if scheme == "compressed":
                rec.expect_equal(
                    metrics.buffer_hits + metrics.buffer_misses,
                    metrics.blocks_fetched,
                    subject,
                    "L0 hits + misses vs accesses",
                )
                cache_accesses = metrics.buffer_misses
            elif scheme == "hybrid":
                # Only tagged-cold blocks probe the L0: recompute the
                # cold fetch count from the tags and the trace.
                tags = study.compressed(
                    "hybrid"
                ).block_scheme_tags()
                cold_fetches = sum(
                    1 for b in trace if tags[b] == "compressed"
                )
                rec.expect_equal(
                    metrics.buffer_hits + metrics.buffer_misses,
                    cold_fetches,
                    subject,
                    "L0 hits + misses vs tagged-cold fetches",
                )
                cache_accesses = (
                    metrics.blocks_fetched - metrics.buffer_hits
                )
            else:
                rec.expect_equal(
                    metrics.buffer_hits + metrics.buffer_misses,
                    0,
                    subject,
                    "L0 counters on a bufferless scheme",
                )
                cache_accesses = metrics.blocks_fetched
            rec.expect_equal(
                metrics.cache_hits + metrics.cache_misses,
                cache_accesses,
                subject,
                "L1 hits + misses vs accesses",
            )
            # Bus conservation: traffic only on misses, and beats carry
            # a full-to-partial bus width each.
            bus_width = config.bus_bytes
            if metrics.cache_misses == 0:
                rec.expect_equal(
                    metrics.bus_bytes, 0, subject,
                    "bus bytes with zero cache misses",
                )
            min_beats = -(-metrics.bus_bytes // bus_width)
            rec.expect(
                min_beats <= metrics.bus_beats <= max(
                    metrics.bus_bytes, min_beats
                ),
                subject,
                f"bus beats {metrics.bus_beats} inconsistent with "
                f"{metrics.bus_bytes} bytes on a {bus_width}-byte bus",
            )


@invariant(
    "kernel-vs-reference",
    scope="fetch",
    description="simulate_fetch (the one-point sweep) matches the "
                "reference engine on randomized traces",
)
def _kernel_vs_reference(ctx: CheckContext, rec: Recorder) -> None:
    from repro.fetch.engine import simulate_fetch, simulate_fetch_reference

    length = 1500 if ctx.quick else 6000
    for benchmark in ctx.benchmarks:
        study = ctx.study(benchmark)
        for fetch_scheme in CACHED_ORGANIZATIONS:
            compressed = study.compressed(fetch_image_key(fetch_scheme))
            config = FetchConfig.for_scheme(fetch_scheme, scaled=True)
            subject = f"{benchmark}/{fetch_scheme}"
            rng = ctx.rng(f"kernel-vs-reference:{subject}")
            blocks = len(compressed.image)
            trace = [rng.randrange(blocks) for _ in range(length)]
            diff = _metrics_diff(
                simulate_fetch(compressed, trace, config),
                simulate_fetch_reference(compressed, trace, config),
            )
            rec.expect(
                not diff,
                subject,
                "simulate_fetch diverges from the reference on fields: "
                + ", ".join(diff),
            )


@invariant(
    "hybrid-tags",
    scope="compression",
    description="hybrid per-block tags match an independent hot-set "
                "recomputation from the study's own trace",
)
def _hybrid_tags(ctx: CheckContext, rec: Recorder) -> None:
    from repro.compression.adaptive import (
        COLD_TAG,
        HOT_TAG,
        heat_profile,
        hot_block_ids,
    )

    for benchmark in ctx.benchmarks:
        study = ctx.study(benchmark)
        compressed = study.compressed("hybrid")
        subject = f"{benchmark}/hybrid"
        profile = heat_profile(
            study.run.block_trace, len(study.compiled.image)
        )
        rec.expect_equal(
            tuple(compressed.profile), profile, subject,
            "stored heat profile vs trace recount",
        )
        hot = hot_block_ids(profile, compressed.hotness)
        expected = tuple(
            HOT_TAG if bid in hot else COLD_TAG
            for bid in range(len(profile))
        )
        rec.expect_equal(
            tuple(compressed.block_scheme_tags()), expected, subject,
            "ATT scheme tags vs recomputed hot set",
        )
        # The hot set must actually cover the threshold (or exhaust
        # every executed block trying).
        covered = sum(profile[bid] for bid in hot)
        executed = sum(1 for c in profile if c)
        rec.expect(
            covered >= compressed.hotness * sum(profile)
            or len(hot) == executed,
            subject,
            f"hot set covers {covered} of {sum(profile)} fetches, "
            f"below the {compressed.hotness} threshold",
        )


# -------------------------------------------------------------- sweep
def _metrics_diff(actual, expected) -> list:
    """Names of the FetchMetrics fields where the two disagree."""
    expected_fields = asdict(expected)
    actual_fields = asdict(actual)
    return [
        name
        for name, value in expected_fields.items()
        if actual_fields[name] != value
    ]


@invariant(
    "sweep-vs-kernel",
    scope="sweep",
    description="a multi-config sweep matches per-config simulate_fetch "
                "(cross-config memo keys) and sampled reference replays "
                "on randomized grids",
)
def _sweep_vs_kernel(ctx: CheckContext, rec: Recorder) -> None:
    from repro.core.sweep import expand_grid
    from repro.fetch.engine import (
        simulate_fetch,
        simulate_fetch_reference,
    )
    from repro.fetch.sweep import simulate_fetch_sweep_multi

    length = 1200 if ctx.quick else 4000
    reference_samples = 2 if ctx.quick else 6
    for benchmark in ctx.benchmarks:
        study = ctx.study(benchmark)
        images = {
            scheme: study.compressed(fetch_image_key(scheme))
            for scheme in CACHED_ORGANIZATIONS
        }
        rng = ctx.rng(f"sweep-vs-kernel:{benchmark}")
        blocks = len(images["compressed"].image)
        trace = [rng.randrange(blocks) for _ in range(length)]
        caches = rng.sample(
            [
                (512, 2, 16), (640, 2, 40), (1280, 2, 40),
                (1024, 2, 32), (2048, 4, 32), (4096, 4, 64),
            ],
            3,
        )
        grid = expand_grid(
            CACHED_ORGANIZATIONS,
            caches=caches,
            atbs=[rng.choice([(32, 4), (64, 4)]), (128, 4)],
            predictors=("block", "gshare"),
            gshare_bits=(rng.choice([6, 8, 12]),),
            l0_capacities=(rng.choice([4, 16]), 32),
            bus_widths=(rng.choice([4, 8, 16]),),
        )
        batch = simulate_fetch_sweep_multi(images, trace, grid)
        rec.expect_equal(
            len(batch), len(grid), benchmark, "sweep result count"
        )
        for config, metrics in zip(grid, batch):
            subject = (
                f"{benchmark}/{config.scheme}/"
                f"{config.cache.capacity_bytes}B/"
                f"atb{config.atb_entries}/{config.predictor}"
            )
            diff = _metrics_diff(
                metrics,
                simulate_fetch(images[config.scheme], trace, config),
            )
            rec.expect(
                not diff,
                subject,
                "sweep diverges from simulate_fetch on fields: "
                + ", ".join(diff),
            )
        # The slow object-per-structure reference, on a sampled subset.
        for index in rng.sample(
            range(len(grid)), min(reference_samples, len(grid))
        ):
            config = grid[index]
            subject = (
                f"{benchmark}/{config.scheme}/"
                f"{config.cache.capacity_bytes}B/reference"
            )
            diff = _metrics_diff(
                batch[index],
                simulate_fetch_reference(
                    images[config.scheme], trace, config
                ),
            )
            rec.expect(
                not diff,
                subject,
                "sweep diverges from the reference on fields: "
                + ", ".join(diff),
            )


@invariant(
    "sweep-degenerate-grid",
    scope="sweep",
    description="a 1-config grid is exactly one reference replay "
                "and an empty grid is empty",
)
def _sweep_degenerate_grid(ctx: CheckContext, rec: Recorder) -> None:
    from repro.fetch.engine import simulate_fetch_reference
    from repro.fetch.sweep import (
        simulate_fetch_sweep,
        simulate_fetch_sweep_multi,
    )

    length = 800 if ctx.quick else 2500
    for benchmark in ctx.benchmarks:
        study = ctx.study(benchmark)
        images = {
            scheme: study.compressed(fetch_image_key(scheme))
            for scheme in CACHED_ORGANIZATIONS
        }
        rng = ctx.rng(f"sweep-degenerate-grid:{benchmark}")
        blocks = len(images["compressed"].image)
        trace = [rng.randrange(blocks) for _ in range(length)]
        for scheme in CACHED_ORGANIZATIONS:
            config = FetchConfig.for_scheme(scheme, scaled=True)
            subject = f"{benchmark}/{scheme}"
            single = simulate_fetch_sweep(
                images[scheme], trace, [config]
            )
            rec.expect_equal(
                len(single), 1, subject, "1-config grid result count"
            )
            diff = _metrics_diff(
                single[0],
                simulate_fetch_reference(images[scheme], trace, config),
            )
            rec.expect(
                not diff,
                subject,
                "1-config sweep diverges from the reference on "
                "fields: " + ", ".join(diff),
            )
        rec.expect_equal(
            simulate_fetch_sweep_multi(images, trace, []),
            [],
            benchmark,
            "empty grid result",
        )


# ----------------------------------------------------------- emulator
@invariant(
    "emulator-kernel-vs-ref",
    scope="emulator",
    description="generated-code emulator matches the interpretive "
                "reference on randomized programs and scales",
)
def _emulator_kernel_vs_ref(ctx: CheckContext, rec: Recorder) -> None:
    from repro.emulator.kernel import run_image_kernel
    from repro.emulator.machine import run_image
    from repro.programs.suite import compile_benchmark

    scales = (1, 2) if ctx.quick else (1, 2, 3)
    for benchmark in ctx.benchmarks:
        rng = ctx.rng(f"emulator-kernel-vs-ref:{benchmark}")
        scale = rng.choice(scales)
        compiled = compile_benchmark(benchmark, scale)
        subject = f"{benchmark}@{scale}"
        reference = run_image(compiled.image, compiled.module.globals)
        kernel = run_image_kernel(compiled.image, compiled.module.globals)
        ref_fp = reference.fingerprint()
        ker_fp = kernel.fingerprint()
        # Field-by-field so a violation names what diverged — the
        # machine digest covers registers, data memory and call stack.
        for fld, expected in ref_fp.items():
            rec.expect_equal(ker_fp[fld], expected, subject, fld)
        # The dynamic-MultiOp budget must abort at the identical point
        # with the identical message (half the reference's mop count
        # guarantees both paths trip it mid-run).
        budget = max(1, reference.dynamic_mops // 2)
        outcomes = []
        for runner in (run_image, run_image_kernel):
            try:
                runner(
                    compiled.image,
                    compiled.module.globals,
                    max_mops=budget,
                )
                outcomes.append("no error")
            except Exception as exc:  # noqa: BLE001 — compared verbatim
                outcomes.append(f"{type(exc).__name__}: {exc}")
        rec.expect_equal(
            outcomes[1], outcomes[0], subject,
            f"runaway abort at max_mops={budget}",
        )


# ---------------------------------------------------------- structure
@invariant(
    "l0-accounting",
    scope="structure",
    description="L0 buffer counters balance under random (incl. "
                "oversized) access streams",
)
def _l0_accounting(ctx: CheckContext, rec: Recorder) -> None:
    rounds = 200 if ctx.quick else 1000
    rng = ctx.rng("l0-accounting")
    for capacity in (2, 8, 32):
        buffer = L0Buffer(capacity)
        revisited_oversized_hits = 0
        for _ in range(rounds):
            block_id = rng.randrange(16)
            # Some blocks deliberately exceed the buffer capacity.
            op_count = 1 + (block_id % (2 * capacity))
            hit = buffer.access(block_id, op_count)
            if hit and op_count > capacity:
                revisited_oversized_hits += 1
        subject = f"capacity={capacity}"
        rec.expect_equal(
            buffer.hits + buffer.misses, buffer.accesses, subject,
            "hits + misses vs accesses",
        )
        rec.expect_equal(
            buffer.accesses, rounds, subject, "accesses vs probes"
        )
        rec.expect(
            buffer.resident_ops <= capacity,
            subject,
            f"{buffer.resident_ops} resident ops exceed capacity",
        )
        rec.expect_equal(
            revisited_oversized_hits, 0, subject,
            "oversized blocks must never hit (they cannot reside)",
        )
        rec.expect(
            buffer.oversized_rejects <= buffer.misses,
            subject,
            "more oversized rejections than misses",
        )


@invariant(
    "atb-structure",
    scope="structure",
    description="ATB sets never exceed associativity and track LRU "
                "order exactly",
)
def _atb_structure(ctx: CheckContext, rec: Recorder) -> None:
    rounds = 300 if ctx.quick else 1500
    rng = ctx.rng("atb-structure")
    for entries, ways in ((8, 2), (16, 4)):
        atb = ATB(entries, ways)
        # Shadow model: per-set list of block ids, LRU first.
        model = [[] for _ in range(atb.num_sets)]
        for _ in range(rounds):
            block_id = rng.randrange(entries * 3)
            atb.access(block_id)
            bucket = model[atb.set_index(block_id)]
            if block_id in bucket:
                bucket.remove(block_id)
            elif len(bucket) >= ways:
                bucket.pop(0)
            bucket.append(block_id)
        subject = f"{entries}e/{ways}w"
        rec.expect(
            all(size <= ways for size in atb.set_sizes()),
            subject,
            f"set occupancy {atb.set_sizes()} exceeds {ways} ways",
        )
        rec.expect_equal(
            [atb.lru_order(s) for s in range(atb.num_sets)],
            model,
            subject,
            "per-set LRU order vs shadow model",
        )
        rec.expect_equal(
            atb.hits + atb.misses, rounds, subject,
            "hits + misses vs accesses",
        )


# ------------------------------------------------------------ analysis
@invariant(
    "static-verifier",
    scope="analysis",
    description="the repro.analysis verifier finds nothing error-"
                "severity in any suite artifact, and still fires on a "
                "seeded bad branch target",
    quick=False,
)
def _static_verifier(ctx: CheckContext, rec: Recorder) -> None:
    from repro.analysis.diagnostics import Severity
    from repro.analysis.verifier import (
        DEFAULT_SCHEMES,
        _geometry_for,
        analyze_encoding,
        analyze_image,
        corrupt_branch_target,
    )

    for benchmark in ctx.benchmarks:
        study = ctx.study(benchmark)
        image = study.compiled.image
        report = analyze_image(image, program=benchmark)
        for scheme in DEFAULT_SCHEMES:
            report.merge(
                analyze_encoding(
                    study.compressed(scheme),
                    geometry=_geometry_for(scheme),
                    program=benchmark,
                )
            )
        rec.checked_one(report.total_checked)
        for diag in report.at_least(Severity.ERROR):
            rec.violation(benchmark, diag.render())
        # Negative control: the verifier must reject a seeded bad
        # branch target, or a silent pass above proves nothing.
        corrupted = analyze_image(
            corrupt_branch_target(image), program=benchmark
        )
        rec.expect(
            not corrupted.ok(),
            benchmark,
            "verifier accepted an image with a corrupted branch target",
        )
