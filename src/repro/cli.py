"""Command-line interface: regenerate the paper's tables from a shell.

Examples::

    python -m repro list
    python -m repro run fig5
    python -m repro run fig13 --benchmarks compress go --scale 4
    python -m repro run fig13 --jobs 8          # parallel prewarm
    python -m repro run fig5 --json             # machine-readable rows
    python -m repro suite
    python -m repro check --quick             # invariant + fault sweep
    python -m repro check --full --seed 7 --json
    python -m repro analyze --all             # static verifier + lint
    python -m repro analyze --program compress --json
    python -m repro analyze --all --fail-on warning
    python -m repro analyze --program go --inject bad-branch  # exits 1
    python -m repro cache stats
    python -m repro cache clear
    python -m repro study compress --scheme byte --json
    python -m repro sweep compress --cache 512:2:16 --cache 1024:2:32 \
        --predictor block --predictor gshare --json
    python -m repro sweep li --scheme compressed --l0 8 --l0 16 --l0 32 \
        --jobs 4                               # columnar multi-config sweep

``run`` and ``suite`` go through the :mod:`repro.runtime` artifact
cache: a warm invocation recomputes nothing, and ``--jobs N`` fans the
cold artifact chain out across processes before the rows are rendered.
``--no-cache`` (or ``REPRO_CACHE=0``) restores the direct path.

Each handler imports the layers it runs, so a warm ``study`` loads
neither the compiler's passes nor the experiment table.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import signal
import sys
import threading

from repro import runtime
from repro.errors import ConfigurationError
from repro.programs.suite import BENCHMARK_NAMES, SUITE
from repro.runtime.config import environment_problems
from repro.utils.tables import format_table  # loaded by repro.runtime too


def _apply_runtime_flags(args) -> None:
    if getattr(args, "no_cache", False):
        runtime.configure(enabled=False)


def _validate_invocation(args) -> None:
    """Reject bad flags and malformed ``REPRO_*`` environment values.

    Raises :class:`ConfigurationError`; ``main`` maps it to exit code 2.
    The library layer merely warns and defaults on the same problems —
    an interactive invocation should fail loudly instead of silently
    running with the wrong parallelism or the wrong simulation path.
    """
    scale = getattr(args, "scale", None)
    if scale is not None and scale < 1:
        raise ConfigurationError(
            f"--scale must be a positive integer, got {scale}"
        )
    jobs = getattr(args, "jobs", None)
    if jobs is not None and jobs < 1:
        raise ConfigurationError(
            f"--jobs must be a positive process count, got {jobs}"
        )
    problems = environment_problems()
    if problems:
        raise ConfigurationError("; ".join(problems))


def _jobs(args) -> int:
    jobs = getattr(args, "jobs", None)
    if jobs is None:
        jobs = runtime.runtime_config().jobs
    return max(1, jobs)


def _emit_json(payload: dict) -> None:
    print(json.dumps(payload, indent=2, sort_keys=True))


class _Interrupted(BaseException):
    """SIGTERM arrived; unwind through the drain paths and exit."""


@contextlib.contextmanager
def _graceful_sigterm():
    """Map SIGTERM to an exception so batch runs drain instead of dying.

    Raising turns a hard kill into an ordinary unwind: the scheduler's
    ``except BaseException`` drain cancels queued tasks and waits for
    running workers (whose store writes are atomic), context managers
    close, and ``main`` turns the unwind into exit code 130.  Only the
    main thread may install signal handlers; elsewhere this is a no-op.
    """
    if threading.current_thread() is not threading.main_thread():
        yield
        return

    def _raise(signum, frame):
        raise _Interrupted()

    previous = signal.signal(signal.SIGTERM, _raise)
    try:
        yield
    finally:
        signal.signal(signal.SIGTERM, previous)


def _cmd_list(_args) -> int:
    from repro.core.experiments import EXPERIMENTS

    rows = [
        [e.exp_id, e.title, e.bench] for e in EXPERIMENTS.values()
    ]
    print(format_table(["id", "title", "bench"], rows,
                       title="Experiments"))
    return 0


def _cmd_run(args) -> int:
    from repro.core.experiments import EXPERIMENTS
    from repro.core.study import study_for

    try:
        experiment = EXPERIMENTS[args.experiment]
    except KeyError:
        print(f"unknown experiment {args.experiment!r}; "
              f"try: {', '.join(EXPERIMENTS)}", file=sys.stderr)
        return 2
    _apply_runtime_flags(args)
    benchmarks = tuple(args.benchmarks or BENCHMARK_NAMES)
    jobs = _jobs(args)
    if jobs > 1 and runtime.runtime_config().enabled:
        from repro.runtime.scheduler import prewarm

        # Resolve each study here so an unknown benchmark fails in
        # this process, not as a worker traceback.
        for name in benchmarks:
            study_for(name, args.scale)
        prewarm(
            benchmarks,
            scale=args.scale,
            schemes=experiment.schemes,
            fetch_schemes=experiment.fetch_schemes,
            jobs=jobs,
        )
    headers, rows = experiment.runner(args.benchmarks or None, args.scale)
    if args.json:
        _emit_json(
            {
                "experiment": experiment.exp_id,
                "title": experiment.title,
                "headers": list(headers),
                "rows": [list(r) for r in rows],
                "runtime": runtime.REPORT.to_json(),
            }
        )
        return 0
    print(format_table(headers, rows, title=experiment.title))
    print()
    print(runtime.REPORT.render())
    return 0


def _cmd_suite(args) -> int:
    from repro.core.study import study_for

    _apply_runtime_flags(args)
    jobs = _jobs(args)
    if jobs > 1 and runtime.runtime_config().enabled:
        from repro.runtime.scheduler import prewarm

        prewarm(BENCHMARK_NAMES, scale=args.scale, jobs=jobs)
    rows = []
    failures = []
    for name in BENCHMARK_NAMES:
        study = study_for(name, args.scale)
        image = study.compiled.image
        ok = study.verify_checksum()
        if not ok:
            failures.append(name)
        rows.append(
            [
                name,
                SUITE[name].description,
                image.total_ops,
                study.run.dynamic_mops,
                "ok" if ok else "MISMATCH",
            ]
        )
    if args.json:
        _emit_json(
            {
                "benchmarks": [
                    {
                        "name": r[0],
                        "description": r[1],
                        "static_ops": r[2],
                        "dynamic_mops": r[3],
                        "oracle": r[4],
                    }
                    for r in rows
                ],
                "failures": failures,
                "runtime": runtime.REPORT.to_json(),
            }
        )
    else:
        print(
            format_table(
                ["benchmark", "description", "static ops", "dynamic mops",
                 "oracle"],
                rows,
                title="Benchmark suite",
            )
        )
        print()
        print(runtime.REPORT.render())
    if failures:
        print(
            "checksum MISMATCH against the pure-Python oracle: "
            + ", ".join(failures),
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_check(args) -> int:
    from repro.check.runner import run_checks
    from repro.errors import CheckError

    try:
        report = run_checks(
            args.benchmarks or None,
            quick=not args.full,
            seed=args.seed,
            scale=args.scale,
            inject=tuple(args.inject or ()),
            scopes=args.scope,
            progress=(
                None
                if args.json
                else lambda inv: print(
                    f"check {inv.name} ...", file=sys.stderr
                )
            ),
        )
    except CheckError as exc:
        print(f"check error: {exc}", file=sys.stderr)
        return 2
    if args.json:
        _emit_json(report.to_json())
    else:
        print(report.render())
    if not report.ok:
        names = ", ".join(o.name for o in report.failing)
        print(f"invariant violation(s): {names}", file=sys.stderr)
        return 1
    return 0


def _cmd_analyze(args) -> int:
    from repro.analysis.diagnostics import AnalysisReport, Severity
    from repro.analysis.verifier import (
        analyze_image,
        analyze_suite,
        corrupt_branch_target,
    )
    from repro.core.study import study_for
    from repro.errors import AnalysisError

    _apply_runtime_flags(args)
    if args.bounds:
        if args.inject:
            print(
                "analysis error: --bounds is a local analysis and "
                "cannot be combined with --inject",
                file=sys.stderr,
            )
            return 2
        return _analyze_bounds(args)
    fail_on = Severity.parse(args.fail_on)
    names = tuple(args.programs or BENCHMARK_NAMES)
    progress = (
        None
        if args.json
        else lambda name: print(f"analyze {name} ...", file=sys.stderr)
    )
    try:
        if args.inject:
            # Seeded-corruption mode: run the machine rules over a
            # deliberately broken copy of each image, proving the
            # verifier (and the CI job watching it) actually fires.
            unknown = [n for n in names if n not in BENCHMARK_NAMES]
            if unknown:
                raise AnalysisError(
                    f"unknown benchmark(s): {', '.join(unknown)} "
                    f"(known: {', '.join(BENCHMARK_NAMES)})"
                )
            report = AnalysisReport()
            for name in names:
                if progress is not None:
                    progress(f"{name} [inject: bad-branch]")
                image = study_for(name, args.scale).compiled.image
                report.merge(
                    analyze_image(
                        corrupt_branch_target(image), program=name
                    )
                )
        else:
            report = analyze_suite(
                names, args.scale, progress=progress
            )
    except AnalysisError as exc:
        print(f"analysis error: {exc}", file=sys.stderr)
        return 2
    if args.json:
        _emit_json(report.to_json())
    else:
        print(report.render())
    findings = report.at_least(fail_on)
    if findings:
        print(
            f"{len(findings)} finding(s) at or above "
            f"severity {fail_on.value}",
            file=sys.stderr,
        )
        return 1
    return 0


#: Fetch organizations ``analyze --bounds`` brackets (the sweepable
#: families plus both hybrid profile sources).
_BOUNDS_SCHEMES = (
    "base", "tailored", "compressed", "hybrid", "hybrid:static"
)


def _analyze_bounds(args) -> int:
    """Static cycle bounds vs the simulator, per benchmark × scheme.

    Exits 1 when any bracket fails — the same gate CI's analyze-smoke
    job runs over all eight benchmarks.
    """
    from repro.analysis.cachebound import cycle_bounds
    from repro.compression.adaptive import heat_profile
    from repro.core.study import study_for
    from repro.errors import AnalysisError
    from repro.fetch.config import FetchConfig
    from repro.runtime.tasks import fetch_image_key

    names = tuple(args.programs or BENCHMARK_NAMES)
    unknown = [n for n in names if n not in BENCHMARK_NAMES]
    if unknown:
        print(
            f"analysis error: unknown benchmark(s): {', '.join(unknown)} "
            f"(known: {', '.join(BENCHMARK_NAMES)})",
            file=sys.stderr,
        )
        return 2
    progress = (
        None
        if args.json
        else lambda name: print(f"bounds {name} ...", file=sys.stderr)
    )
    rows = []
    records = []
    failures = 0
    try:
        for name in names:
            if progress is not None:
                progress(name)
            study = study_for(name, args.scale)
            counts = heat_profile(
                study.run.block_trace, len(study.compiled.image)
            )
            for scheme in _BOUNDS_SCHEMES:
                compressed = study.compressed(fetch_image_key(scheme))
                metrics = study.fetch_metrics(scheme)
                report = cycle_bounds(
                    compressed, counts, FetchConfig.for_scheme(scheme)
                )
                ok = report.bracket(metrics.cycles)
                if not ok:
                    failures += 1
                cls = report.classification.cache
                rows.append([
                    name,
                    scheme,
                    report.lower,
                    metrics.cycles,
                    report.upper,
                    len(cls.always_hit),
                    len(cls.always_miss),
                    len(cls.unclassified),
                    "ok" if ok else "VIOLATED",
                ])
                record = report.to_json()
                record["benchmark"] = name
                record["simulated_cycles"] = metrics.cycles
                record["bracketed"] = ok
                records.append(record)
    except AnalysisError as exc:
        print(f"analysis error: {exc}", file=sys.stderr)
        return 2
    if args.json:
        _emit_json({"bounds": records, "ok": failures == 0})
    else:
        print(format_table(
            (
                "benchmark", "scheme", "lower", "simulated", "upper",
                "AH", "AM", "NC", "bracket",
            ),
            rows,
            title="Static fetch-cycle bounds vs simulator",
        ))
    if failures:
        print(
            f"{failures} bound violation(s): static analysis failed to "
            "bracket the simulator",
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_cache(args) -> int:
    store = runtime.default_store()
    if args.cache_command == "clear":
        dropped = store.clear()
        print(f"dropped {dropped} cached artifact(s) from {store.root}")
        return 0
    stats = store.stats()
    config = runtime.runtime_config()
    rows = [
        ["root", stats.root],
        ["enabled", "yes" if config.enabled else "no (REPRO_CACHE=0)"],
        ["entries", stats.entries],
        ["total", f"{stats.total_bytes / (1024 * 1024):.2f} MiB"],
        ["cap", f"{stats.max_bytes / (1024 * 1024):.2f} MiB"],
    ]
    print(format_table(["field", "value"], rows, title="Artifact cache"))
    return 0


def _render_study(payload: dict) -> str:
    study = payload["study"]
    rows = [
        ["benchmark", study["benchmark"]],
        ["scale", study["scale"]],
        ["oracle", "ok" if study["checksum_ok"] else "MISMATCH"],
        ["static ops", study["static_ops"]],
        ["dynamic mops", study["dynamic_mops"]],
        ["machine digest", study["machine_digest"][:16]],
    ]
    for stage, digest in sorted(study["artifacts"].items()):
        rows.append([f"artifact {stage}", digest[:16]])
    for scheme, result in sorted(study["schemes"].items()):
        rows.append(
            [f"scheme {scheme}", f"{result['total_code_bytes']} B"]
        )
    return format_table(
        ["field", "value"], rows,
        title=f"Study ({study['benchmark']})",
    )


def _finish_study(args, payload: dict) -> int:
    if args.json:
        _emit_json(payload)
    else:
        print(_render_study(payload))
        print()
        print(runtime.REPORT.render())
    if not payload["study"]["checksum_ok"]:
        print(
            f"checksum MISMATCH against the pure-Python oracle: "
            f"{payload['study']['benchmark']}",
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_study(args) -> int:
    from repro.serve.handlers import study_payload

    _apply_runtime_flags(args)
    payload = {
        "study": study_payload(
            args.benchmark, args.scale, tuple(args.schemes or ())
        ),
        "metrics": runtime.REPORT.to_json(),
    }
    return _finish_study(args, payload)


def _parse_axis_tuple(value: str, flag: str, arity: int):
    """``"1024:2:32"`` → ``(1024, 2, 32)`` with arity/shape checking."""
    parts = value.split(":")
    if len(parts) != arity or not all(
        p.lstrip("-").isdigit() for p in parts
    ):
        shape = ":".join("N" * arity)
        raise ConfigurationError(
            f"{flag} expects {shape} (integers), got {value!r}"
        )
    return tuple(int(p) for p in parts)


def _sweep_grid(args):
    """Expand the CLI axis flags into the ordered config grid."""
    from repro.core.sweep import expand_grid

    kwargs = {"scaled": not args.paper_geometry}
    if args.caches:
        kwargs["caches"] = [
            _parse_axis_tuple(v, "--cache", 3) for v in args.caches
        ]
    if args.atbs:
        kwargs["atbs"] = [
            _parse_axis_tuple(v, "--atb", 2) for v in args.atbs
        ]
    if args.atb_miss_penalties:
        kwargs["atb_miss_penalties"] = args.atb_miss_penalties
    if args.predictors:
        kwargs["predictors"] = args.predictors
    if args.gshare_bits:
        kwargs["gshare_bits"] = args.gshare_bits
    if args.l0:
        kwargs["l0_capacities"] = args.l0
    if args.bus:
        kwargs["bus_widths"] = args.bus
    if args.hotness_thresholds:
        kwargs["hotness_thresholds"] = args.hotness_thresholds
    if args.hotness_sources:
        kwargs["hotness_sources"] = tuple(
            dict.fromkeys(args.hotness_sources)
        )
    return expand_grid(
        tuple(args.schemes or ("base", "tailored", "compressed")),
        **kwargs,
    )


def _render_sweep(payload: dict) -> str:
    sweep = payload["sweep"]
    rows = []
    for entry in sweep["results"]:
        config = entry["config"]
        cache = config["cache"]
        metrics = entry["metrics"]
        rows.append(
            [
                config["scheme"],
                f"{cache['capacity_bytes']}:{cache['ways']}:"
                f"{cache['line_bytes']}",
                f"{config['atb_entries']}:{config['atb_ways']}",
                config["predictor"],
                config["l0_capacity_ops"],
                config["bus_bytes"],
                metrics["cycles"],
                f"{entry['ipc']:.4f}",
                f"{100 * entry['cache_hit_rate']:.1f}%",
                metrics["bus_bit_flips"],
            ]
        )
    return format_table(
        ["scheme", "cache", "atb", "pred", "l0", "bus", "cycles",
         "ipc", "hit", "flips"],
        rows,
        title=(
            f"Sweep ({sweep['benchmark']}@{sweep['scale']}, "
            f"{sweep['configs']} configs)"
        ),
    )


def _finish_sweep(args, payload: dict) -> int:
    if args.json:
        _emit_json(payload)
    else:
        print(_render_sweep(payload))
        print()
        print(runtime.REPORT.render())
    return 0


def _cmd_sweep(args) -> int:
    from repro.serve.handlers import sweep_payload

    _apply_runtime_flags(args)
    grid = _sweep_grid(args)
    payload = {
        "sweep": sweep_payload(
            args.benchmark, args.scale, grid, jobs=_jobs(args)
        ),
        "metrics": runtime.REPORT.to_json(),
    }
    return _finish_sweep(args, payload)


def main(argv: list[str] | None = None) -> int:
    from repro.check.registry import SCOPES

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce Larin & Conte (MICRO 1999) experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list", help="list the experiments")

    run = sub.add_parser("run", help="run one experiment")
    run.add_argument(
        "experiment",
        help="fig5|fig7|fig10|fig13|fig14|adaptive|static (see repro list)",
    )
    run.add_argument("--benchmarks", nargs="*", default=None)
    run.add_argument("--scale", type=int, default=None)
    run.add_argument(
        "--jobs", type=int, default=None,
        help="fan the artifact chain out across N processes "
             "(default: REPRO_JOBS or 1)",
    )
    run.add_argument(
        "--no-cache", action="store_true",
        help="bypass the persistent artifact cache",
    )
    run.add_argument(
        "--json", action="store_true",
        help="emit rows and the runtime report as JSON",
    )

    suite = sub.add_parser("suite", help="compile, run and verify the "
                                          "whole benchmark suite")
    suite.add_argument("--scale", type=int, default=None)
    suite.add_argument(
        "--jobs", type=int, default=None,
        help="compile/trace benchmarks across N processes",
    )
    suite.add_argument(
        "--no-cache", action="store_true",
        help="bypass the persistent artifact cache",
    )
    suite.add_argument(
        "--json", action="store_true",
        help="emit per-benchmark results and the runtime report as JSON",
    )

    check = sub.add_parser(
        "check",
        help="run the invariant registry and store fault injection",
    )
    mode = check.add_mutually_exclusive_group()
    mode.add_argument(
        "--quick", action="store_true",
        help="quick sweep: one stream config, shorter random streams "
             "(the default)",
    )
    mode.add_argument(
        "--full", action="store_true",
        help="exhaustive sweep: all stream configs, longer traces, "
             "full-only invariants",
    )
    check.add_argument(
        "--seed", type=int, default=1999,
        help="seed for every randomized trace and fault pattern "
             "(default: 1999)",
    )
    check.add_argument("--benchmarks", nargs="*", default=None)
    check.add_argument("--scale", type=int, default=None)
    check.add_argument(
        "--inject", action="append", default=None,
        choices=("roundtrip", "conservation"),
        help="deliberately corrupt one observation so the named "
             "invariant must fail (CI proves non-zero exit)",
    )
    check.add_argument(
        "--scope", action="append", default=None, choices=SCOPES,
        metavar="SCOPE",
        help="restrict to one registry scope (repeatable; e.g. "
             "--scope store runs only the store fault invariants; "
             f"scopes: {', '.join(SCOPES)})",
    )
    check.add_argument(
        "--json", action="store_true",
        help="emit the invariant report as JSON",
    )

    analyze = sub.add_parser(
        "analyze",
        help="statically verify compiled images and their encodings",
    )
    which = analyze.add_mutually_exclusive_group()
    which.add_argument(
        "--program", dest="programs", action="append", default=None,
        metavar="NAME",
        help="verify one benchmark (repeatable)",
    )
    which.add_argument(
        "--all", action="store_true",
        help="verify every suite benchmark (the default)",
    )
    analyze.add_argument("--scale", type=int, default=None)
    analyze.add_argument(
        "--fail-on", dest="fail_on",
        choices=("warning", "error"), default="error",
        help="exit 1 when a finding reaches this severity "
             "(default: error; 'warning' promotes the lint tier)",
    )
    analyze.add_argument(
        "--inject", action="append", default=None,
        choices=("bad-branch",),
        help="verify a deliberately corrupted copy of each image "
             "instead (CI proves the verifier exits non-zero)",
    )
    analyze.add_argument(
        "--bounds", action="store_true",
        help="report static fetch-cycle bounds per scheme and check "
             "lower <= simulated <= upper (exit 1 on a violation)",
    )
    analyze.add_argument(
        "--no-cache", action="store_true",
        help="bypass the persistent artifact cache",
    )
    analyze.add_argument(
        "--json", action="store_true",
        help="emit the diagnostics report as JSON",
    )

    study = sub.add_parser(
        "study",
        help="every deterministic observable of one program study",
    )
    study.add_argument("benchmark", help="|".join(BENCHMARK_NAMES))
    study.add_argument("--scale", type=int, default=None)
    study.add_argument(
        "--scheme", dest="schemes", action="append", default=None,
        metavar="KEY",
        help="also compress with this scheme (repeatable)",
    )
    study.add_argument(
        "--no-cache", action="store_true",
        help="bypass the persistent artifact cache",
    )
    study.add_argument(
        "--json", action="store_true",
        help="emit the study payload and stage metrics as JSON",
    )

    sweep = sub.add_parser(
        "sweep",
        help="simulate a grid of fetch configurations in one trace pass",
    )
    sweep.add_argument("benchmark", help="|".join(BENCHMARK_NAMES))
    sweep.add_argument("--scale", type=int, default=None)
    sweep.add_argument(
        "--scheme", dest="schemes", action="append", default=None,
        metavar="KEY",
        help="fetch organization axis: base|tailored|compressed|"
             "hybrid[@T][:static] (repeatable; default: base tailored "
             "compressed)",
    )
    sweep.add_argument(
        "--hotness", dest="hotness_thresholds", action="append",
        type=float, default=None, metavar="T",
        help="hybrid hotness-threshold axis in [0,1]; each bare "
             "'hybrid' scheme entry expands into one hybrid@T point "
             "per value (repeatable)",
    )
    sweep.add_argument(
        "--hotness-source", dest="hotness_sources", action="append",
        default=None, choices=("trace", "static"),
        help="hybrid heat-profile provider axis: the emulator trace "
             "and/or the compile-time static estimate (repeatable; "
             "default: trace)",
    )
    sweep.add_argument(
        "--cache", dest="caches", action="append", default=None,
        metavar="CAP:WAYS:LINE",
        help="cache geometry axis, e.g. 1024:2:32 (repeatable; "
             "default: each scheme's standard geometry)",
    )
    sweep.add_argument(
        "--atb", dest="atbs", action="append", default=None,
        metavar="ENTRIES:WAYS",
        help="ATB size axis, e.g. 128:4 (repeatable; default: 128:4)",
    )
    sweep.add_argument(
        "--atb-miss-penalty", dest="atb_miss_penalties",
        action="append", type=int, default=None, metavar="CYCLES",
        help="ATB miss penalty axis (repeatable; default: 2)",
    )
    sweep.add_argument(
        "--predictor", dest="predictors", action="append",
        default=None, choices=("block", "gshare"),
        help="next-block predictor axis (repeatable; default: block)",
    )
    sweep.add_argument(
        "--gshare-bits", dest="gshare_bits", action="append",
        type=int, default=None, metavar="BITS",
        help="gshare history width axis (repeatable; only expands "
             "under --predictor gshare)",
    )
    sweep.add_argument(
        "--l0", dest="l0", action="append", type=int, default=None,
        metavar="OPS",
        help="L0 buffer capacity axis in ops (repeatable; only "
             "expands for the compressed and hybrid schemes)",
    )
    sweep.add_argument(
        "--bus", dest="bus", action="append", type=int, default=None,
        metavar="BYTES",
        help="memory bus width axis in bytes (repeatable; default: 8)",
    )
    sweep.add_argument(
        "--paper-geometry", action="store_true",
        help="default geometries use the paper's literal 16/20KB pair "
             "instead of the pressure-scaled pair",
    )
    sweep.add_argument(
        "--jobs", type=int, default=None,
        help="shard cold configs across N processes "
             "(default: REPRO_JOBS or 1)",
    )
    sweep.add_argument(
        "--no-cache", action="store_true",
        help="bypass the persistent artifact cache",
    )
    sweep.add_argument(
        "--json", action="store_true",
        help="emit the sweep payload and stage metrics as JSON",
    )

    cache = sub.add_parser("cache", help="inspect or clear the artifact "
                                          "cache")
    cache.add_argument(
        "cache_command", choices=("stats", "clear"),
        help="stats: footprint summary; clear: drop every entry",
    )

    args = parser.parse_args(argv)
    handler = {
        "list": _cmd_list,
        "run": _cmd_run,
        "suite": _cmd_suite,
        "check": _cmd_check,
        "analyze": _cmd_analyze,
        "cache": _cmd_cache,
        "study": _cmd_study,
        "sweep": _cmd_sweep,
    }[args.command]
    try:
        _validate_invocation(args)
        with _graceful_sigterm():
            return handler(args)
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except (KeyboardInterrupt, _Interrupted):
        print(
            "interrupted: drained in-flight tasks, cache left "
            "consistent",
            file=sys.stderr,
        )
        return 130


if __name__ == "__main__":
    raise SystemExit(main())
