"""Command-line interface: regenerate the paper's tables from a shell.

Examples::

    python -m repro list
    python -m repro run fig5
    python -m repro run fig13 --benchmarks compress go --scale 4
    python -m repro run fig13 --jobs 8          # one worker per benchmark
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
cache: a warm invocation recomputes nothing, and ``--jobs N`` computes
each benchmark's row in a worker process, which hands the row back.
``--no-cache`` (or ``REPRO_CACHE=0``) restores the direct path, with
or without ``--jobs``.

Every subcommand is one entry of :data:`_COMMANDS`: its help, the
shared flags it takes (each declared once, as an argparse parent
parser), its own arguments and its handler.  A handler returns a
:class:`_Result`; ``main`` alone validates the invocation, applies the
runtime flags, prints the result and maps errors to exit codes.  Each
handler imports the layers it runs, so a warm ``study`` loads neither
the compiler's passes nor the experiment table, and a warm ``run``,
which reads one stored row per benchmark, loads no pipeline layer at
all.  ``main`` adds only its own command's arguments to the parser.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import signal
import sys
import threading
from typing import Callable, NamedTuple, Optional, Tuple

from repro import runtime
from repro.errors import (
    AnalysisError,
    CheckError,
    ConfigurationError,
    ReproError,
    SchedulerError,
)
from repro.programs.specs import BENCHMARK_NAMES, SUITE
from repro.runtime.config import environment_problems
from repro.utils.tables import format_table  # loaded by repro.runtime too


class _Result(NamedTuple):
    """What one handler computed; ``main`` prints it."""

    #: The document ``--json`` prints.
    payload: Optional[dict]
    #: What is printed otherwise.
    text: str
    #: A line for stderr; the exit status is 1 exactly when it is set.
    failure: Optional[str] = None


#: The errors an invocation may end in, each with its stderr prefix
#: (exit status 2).
_ERROR_PREFIXES = (
    (ConfigurationError, "configuration error"),
    (CheckError, "check error"),
    (AnalysisError, "analysis error"),
)


def _validate_invocation(args) -> None:
    """Reject bad flags, unknown benchmarks and malformed ``REPRO_*``
    environment values.

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
    names = [getattr(args, "benchmark", None)]
    names += getattr(args, "benchmarks", None) or ()
    names += getattr(args, "programs", None) or ()
    for name in names:
        if name is not None and name not in BENCHMARK_NAMES:
            raise ConfigurationError(f"unknown benchmark {name!r}")


def _emit_json(payload: dict) -> None:
    print(json.dumps(payload, indent=2, sort_keys=True))


def _progress(args, label: Callable[[object], str]):
    """A per-item progress callback printing ``label(item)`` to stderr,
    or ``None`` under ``--json``."""
    if args.json:
        return None
    return lambda item: print(label(item), file=sys.stderr)


def _mismatch(names) -> str:
    return (
        "checksum MISMATCH against the pure-Python oracle: "
        + ", ".join(names)
    )


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


# ---------------------------------------------------------------- list
def _cmd_list(_args) -> _Result:
    from repro.core.experiments import EXPERIMENTS

    rows = [
        [e.exp_id, e.title, e.bench] for e in EXPERIMENTS.values()
    ]
    return _Result(
        None, format_table(["id", "title", "bench"], rows,
                           title="Experiments")
    )


# ----------------------------------------------------------------- run
def _run_arguments(parser) -> None:
    parser.add_argument(
        "experiment",
        help="fig5|fig7|fig10|fig13|fig14|adaptive|static (see repro list)",
    )


def _cmd_run(args) -> _Result:
    from repro.core.experiments import EXPERIMENTS

    experiment = EXPERIMENTS.get(args.experiment)
    if experiment is None:
        raise ConfigurationError(
            f"unknown experiment {args.experiment!r}; "
            f"try: {', '.join(EXPERIMENTS)}"
        )
    headers, rows = experiment.runner(
        args.benchmarks, args.scale, jobs=args.jobs
    )
    payload = {
        "experiment": experiment.exp_id,
        "title": experiment.title,
        "headers": list(headers),
        "rows": [list(r) for r in rows],
        "runtime": runtime.REPORT.to_json(),
    }
    return _Result(
        payload, format_table(headers, rows, title=experiment.title)
    )


# --------------------------------------------------------------- suite
def _suite_row(name: str, scale: Optional[int]) -> list:
    """One benchmark's ``suite`` row (one task of the suite)."""
    from repro.core.study import study_for

    study = study_for(name, scale)
    return [
        name,
        SUITE[name].description,
        study.compiled.image.total_ops,
        study.run.dynamic_mops,
        "ok" if study.verify_checksum() else "MISMATCH",
    ]


def _cmd_suite(args) -> _Result:
    from repro.runtime.scheduler import map_benchmarks

    rows = map_benchmarks(
        _suite_row, BENCHMARK_NAMES, args.scale, jobs=args.jobs
    )
    failures = [r[0] for r in rows if r[4] != "ok"]
    payload = {
        "benchmarks": [
            dict(zip(("name", "description", "static_ops",
                      "dynamic_mops", "oracle"), r))
            for r in rows
        ],
        "failures": failures,
        "runtime": runtime.REPORT.to_json(),
    }
    text = format_table(
        ["benchmark", "description", "static ops", "dynamic mops",
         "oracle"],
        rows,
        title="Benchmark suite",
    )
    return _Result(payload, text, _mismatch(failures) if failures else None)


# --------------------------------------------------------------- check
def _check_arguments(parser) -> None:
    from repro.check.registry import SCOPES

    mode = parser.add_mutually_exclusive_group()
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
    parser.add_argument(
        "--seed", type=int, default=1999,
        help="seed for every randomized trace and fault pattern "
             "(default: 1999)",
    )
    parser.add_argument(
        "--inject", action="append", default=None,
        choices=("roundtrip", "conservation"),
        help="deliberately corrupt one observation so the named "
             "invariant must fail (CI proves non-zero exit)",
    )
    parser.add_argument(
        "--scope", action="append", default=None, choices=SCOPES,
        metavar="SCOPE",
        help="restrict to one registry scope (repeatable; e.g. "
             "--scope store runs only the store fault invariants; "
             f"scopes: {', '.join(SCOPES)})",
    )


def _cmd_check(args) -> _Result:
    from repro.check.runner import run_checks

    report = run_checks(
        args.benchmarks or None,
        quick=not args.full,
        seed=args.seed,
        scale=args.scale,
        inject=tuple(args.inject or ()),
        scopes=args.scope,
        progress=_progress(args, lambda inv: f"check {inv.name} ..."),
    )
    failure = None
    if not report.ok:
        names = ", ".join(o.name for o in report.failing)
        failure = f"invariant violation(s): {names}"
    return _Result(report.to_json(), report.render(), failure)


# ------------------------------------------------------------- analyze
def _analyze_arguments(parser) -> None:
    which = parser.add_mutually_exclusive_group()
    which.add_argument(
        "--program", dest="programs", action="append", default=None,
        metavar="NAME",
        help="verify one benchmark (repeatable)",
    )
    which.add_argument(
        "--all", action="store_true",
        help="verify every suite benchmark (the default)",
    )
    parser.add_argument(
        "--fail-on", dest="fail_on",
        choices=("warning", "error"), default="error",
        help="exit 1 when a finding reaches this severity "
             "(default: error; 'warning' promotes the lint tier)",
    )
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument(
        "--inject", action="append", default=None,
        choices=("bad-branch",),
        help="verify a deliberately corrupted copy of each image "
             "instead (CI proves the verifier exits non-zero)",
    )
    mode.add_argument(
        "--bounds", action="store_true",
        help="report static fetch-cycle bounds per scheme and check "
             "lower <= simulated <= upper (exit 1 on a violation)",
    )


def _cmd_analyze(args) -> _Result:
    if args.bounds:
        return _analyze_bounds(args)

    from repro.analysis.diagnostics import AnalysisReport, Severity
    from repro.analysis.verifier import (
        analyze_image,
        analyze_suite,
        corrupt_branch_target,
    )
    from repro.core.study import study_for

    fail_on = Severity.parse(args.fail_on)
    names = tuple(args.programs or BENCHMARK_NAMES)
    progress = _progress(args, "analyze {} ...".format)
    if args.inject:
        # Seeded-corruption mode: run the machine rules over a
        # deliberately broken copy of each image, proving the
        # verifier (and the CI job watching it) actually fires.
        report = AnalysisReport()
        for name in names:
            if progress is not None:
                progress(f"{name} [inject: bad-branch]")
            image = study_for(name, args.scale).compiled.image
            report.merge(
                analyze_image(corrupt_branch_target(image), program=name)
            )
    else:
        report = analyze_suite(names, args.scale, progress=progress)
    findings = report.at_least(fail_on)
    failure = None
    if findings:
        failure = (
            f"{len(findings)} finding(s) at or above "
            f"severity {fail_on.value}"
        )
    return _Result(report.to_json(), report.render(), failure)


def _analyze_bounds(args) -> _Result:
    """Static cycle bounds vs the simulator, per benchmark × scheme.

    Fails (exit 1) when any bracket fails — the same gate CI's
    analyze-smoke job runs over all eight benchmarks.
    """
    from repro.analysis.cachebound import standard_bounds
    from repro.compression.adaptive import heat_profile
    from repro.core.study import study_for

    progress = _progress(args, "bounds {} ...".format)
    rows = []
    records = []
    for name in args.programs or BENCHMARK_NAMES:
        if progress is not None:
            progress(name)
        study = study_for(name, args.scale)
        counts = heat_profile(
            study.run.block_trace, len(study.compiled.image)
        )
        for scheme, _, report, cycles in standard_bounds(study, counts):
            ok = report.bracket(cycles)
            cls = report.classification.cache
            rows.append([
                name,
                scheme,
                report.lower,
                cycles,
                report.upper,
                len(cls.always_hit),
                len(cls.always_miss),
                len(cls.unclassified),
                "ok" if ok else "VIOLATED",
            ])
            records.append(dict(
                report.to_json(),
                benchmark=name,
                simulated_cycles=cycles,
                bracketed=ok,
            ))
    failures = sum(not record["bracketed"] for record in records)
    text = format_table(
        (
            "benchmark", "scheme", "lower", "simulated", "upper",
            "AH", "AM", "NC", "bracket",
        ),
        rows,
        title="Static fetch-cycle bounds vs simulator",
    )
    failure = None
    if failures:
        failure = (
            f"{failures} bound violation(s): static analysis failed to "
            "bracket the simulator"
        )
    return _Result({"bounds": records, "ok": failures == 0}, text, failure)


# --------------------------------------------------------------- cache
def _cache_arguments(parser) -> None:
    parser.add_argument(
        "cache_command", choices=("stats", "clear"),
        help="stats: footprint summary; clear: drop every entry",
    )


def _cmd_cache(args) -> _Result:
    store = runtime.default_store()
    if args.cache_command == "clear":
        dropped = store.clear()
        return _Result(
            None, f"dropped {dropped} cached artifact(s) from {store.root}"
        )
    stats = store.stats()
    config = runtime.runtime_config()
    rows = [
        ["root", stats.root],
        ["enabled", "yes" if config.enabled else "no (REPRO_CACHE=0)"],
        ["entries", stats.entries],
        ["total", f"{stats.total_bytes / (1024 * 1024):.2f} MiB"],
        ["cap", f"{stats.max_bytes / (1024 * 1024):.2f} MiB"],
    ]
    return _Result(
        None, format_table(["field", "value"], rows, title="Artifact cache")
    )


# --------------------------------------------------------------- study
def _study_arguments(parser) -> None:
    parser.add_argument(
        "--scheme", dest="schemes", action="append", default=None,
        metavar="KEY",
        help="also compress with this scheme (repeatable)",
    )


def _render_study(study: dict) -> str:
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


def _cmd_study(args) -> _Result:
    from repro.serve.handlers import study_payload

    study = study_payload(
        args.benchmark, args.scale, tuple(args.schemes or ())
    )
    payload = {"study": study, "metrics": runtime.REPORT.to_json()}
    failure = None
    if not study["checksum_ok"]:
        failure = _mismatch([study["benchmark"]])
    return _Result(payload, _render_study(study), failure)


# --------------------------------------------------------------- sweep
def _sweep_arguments(parser) -> None:
    parser.add_argument(
        "--scheme", dest="schemes", action="append", default=None,
        metavar="KEY",
        help="fetch organization axis: base|tailored|compressed|"
             "hybrid[@T][:static] (repeatable; default: base tailored "
             "compressed)",
    )
    parser.add_argument(
        "--hotness", dest="hotness_thresholds", action="append",
        type=float, default=None, metavar="T",
        help="hybrid hotness-threshold axis in [0,1]; each bare "
             "'hybrid' scheme entry expands into one hybrid@T point "
             "per value (repeatable)",
    )
    parser.add_argument(
        "--hotness-source", dest="hotness_sources", action="append",
        default=None, choices=("trace", "static"),
        help="hybrid heat-profile provider axis: the emulator trace "
             "and/or the compile-time static estimate (repeatable; "
             "default: trace)",
    )
    parser.add_argument(
        "--cache", dest="caches", action="append", default=None,
        metavar="CAP:WAYS:LINE",
        help="cache geometry axis, e.g. 1024:2:32 (repeatable; "
             "default: each scheme's standard geometry)",
    )
    parser.add_argument(
        "--atb", dest="atbs", action="append", default=None,
        metavar="ENTRIES:WAYS",
        help="ATB size axis, e.g. 128:4 (repeatable; default: 128:4)",
    )
    parser.add_argument(
        "--atb-miss-penalty", dest="atb_miss_penalties",
        action="append", type=int, default=None, metavar="CYCLES",
        help="ATB miss penalty axis (repeatable; default: 2)",
    )
    parser.add_argument(
        "--predictor", dest="predictors", action="append",
        default=None, choices=("block", "gshare"),
        help="next-block predictor axis (repeatable; default: block)",
    )
    parser.add_argument(
        "--gshare-bits", dest="gshare_bits", action="append",
        type=int, default=None, metavar="BITS",
        help="gshare history width axis (repeatable; only expands "
             "under --predictor gshare)",
    )
    parser.add_argument(
        "--l0", dest="l0_capacities", action="append", type=int,
        default=None,
        metavar="OPS",
        help="L0 buffer capacity axis in ops (repeatable; only "
             "expands for the compressed and hybrid schemes)",
    )
    parser.add_argument(
        "--bus", dest="bus_widths", action="append", type=int,
        default=None,
        metavar="BYTES",
        help="memory bus width axis in bytes (repeatable; default: 8)",
    )
    parser.add_argument(
        "--paper-geometry", action="store_true",
        help="default geometries use the paper's literal 16/20KB pair "
             "instead of the pressure-scaled pair",
    )


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
    for axis in (
        "atb_miss_penalties", "predictors", "gshare_bits",
        "l0_capacities", "bus_widths", "hotness_thresholds",
    ):
        if getattr(args, axis):
            kwargs[axis] = getattr(args, axis)
    if args.caches:
        kwargs["caches"] = [
            _parse_axis_tuple(v, "--cache", 3) for v in args.caches
        ]
    if args.atbs:
        kwargs["atbs"] = [
            _parse_axis_tuple(v, "--atb", 2) for v in args.atbs
        ]
    if args.hotness_sources:
        kwargs["hotness_sources"] = tuple(
            dict.fromkeys(args.hotness_sources)
        )
    if args.schemes:
        kwargs["schemes"] = tuple(args.schemes)
    return expand_grid(**kwargs)


def _render_sweep(sweep: dict) -> str:
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


def _cmd_sweep(args) -> _Result:
    from repro.serve.handlers import sweep_payload

    sweep = sweep_payload(
        args.benchmark, args.scale, _sweep_grid(args), jobs=args.jobs
    )
    payload = {"sweep": sweep, "metrics": runtime.REPORT.to_json()}
    return _Result(payload, _render_sweep(sweep))


# --------------------------------------------------------------- table
class _Command(NamedTuple):
    """One subcommand."""

    help: str
    handler: Callable[[argparse.Namespace], _Result]
    #: The shared flags it takes: keys of :func:`_shared_flags`.
    flags: Tuple[str, ...] = ()
    #: Adds the subcommand's own arguments to its parser.
    arguments: Optional[Callable[[argparse.ArgumentParser], None]] = None
    #: Whether the text output ends with the runtime report.
    report: bool = False


_COMMANDS = {
    "list": _Command("list the experiments", _cmd_list),
    "run": _Command(
        "run one experiment", _cmd_run,
        ("benchmarks", "scale", "jobs", "no_cache", "json"),
        _run_arguments, report=True,
    ),
    "suite": _Command(
        "compile, run and verify the whole benchmark suite", _cmd_suite,
        ("scale", "jobs", "no_cache", "json"), report=True,
    ),
    "check": _Command(
        "run the invariant registry and store fault injection",
        _cmd_check, ("benchmarks", "scale", "json"), _check_arguments,
    ),
    "analyze": _Command(
        "statically verify compiled images and their encodings",
        _cmd_analyze, ("scale", "no_cache", "json"), _analyze_arguments,
    ),
    "study": _Command(
        "every deterministic observable of one program study",
        _cmd_study, ("benchmark", "scale", "no_cache", "json"),
        _study_arguments, report=True,
    ),
    "sweep": _Command(
        "simulate a grid of fetch configurations in one trace pass",
        _cmd_sweep, ("benchmark", "scale", "jobs", "no_cache", "json"),
        _sweep_arguments, report=True,
    ),
    "cache": _Command(
        "inspect or clear the artifact cache", _cmd_cache,
        arguments=_cache_arguments,
    ),
}


def _shared_flags() -> dict:
    """The arguments several subcommands take, each declared once as an
    argparse parent parser."""

    def flag(*names, **kwargs) -> argparse.ArgumentParser:
        parent = argparse.ArgumentParser(add_help=False)
        parent.add_argument(*names, **kwargs)
        return parent

    return {
        "benchmark": flag("benchmark", help="|".join(BENCHMARK_NAMES)),
        "benchmarks": flag(
            "--benchmarks", nargs="*", default=None,
            help="restrict to these benchmarks (default: all)",
        ),
        "scale": flag(
            "--scale", type=int, default=None,
            help="benchmark input scale (default: each benchmark's own)",
        ),
        "jobs": flag(
            "--jobs", type=int, default=None,
            help="fan cold work out across N processes "
                 "(default: REPRO_JOBS or 1)",
        ),
        "no_cache": flag(
            "--no-cache", action="store_true",
            help="bypass the persistent artifact cache",
        ),
        "json": flag(
            "--json", action="store_true",
            help="emit the result (and runtime metrics) as JSON",
        ),
    }


def build_parser(only: Optional[str] = None) -> argparse.ArgumentParser:
    """The ``repro`` parser: one subparser per :data:`_COMMANDS` entry.

    Given ``only``, a command name, only that subparser gets its own
    arguments (``check``'s choices import the invariant registry); the
    others still parse their shared flags.
    """
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce Larin & Conte (MICRO 1999) experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    shared = _shared_flags()
    for name, command in _COMMANDS.items():
        subparser = sub.add_parser(
            name,
            help=command.help,
            parents=[shared[flag] for flag in command.flags],
        )
        if command.arguments is not None and only in (None, name):
            command.arguments(subparser)
    return parser


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    named = argv[0] if argv and argv[0] in _COMMANDS else None
    args = build_parser(named).parse_args(argv)
    command = _COMMANDS[args.command]
    try:
        _validate_invocation(args)
        if getattr(args, "no_cache", False):
            runtime.configure(enabled=False)
        if "jobs" in vars(args) and args.jobs is None:
            args.jobs = runtime.runtime_config().jobs
        with _graceful_sigterm():
            result = command.handler(args)
    except ReproError as exc:
        # A worker's ConfigurationError arrives as the cause of the
        # scheduler's error; any other failure stays a traceback.
        cause = exc.__cause__ if isinstance(exc, SchedulerError) else exc
        for error, prefix in _ERROR_PREFIXES:
            if isinstance(cause, error):
                print(f"{prefix}: {cause}", file=sys.stderr)
                return 2
        raise
    except (KeyboardInterrupt, _Interrupted):
        print(
            "interrupted: drained in-flight tasks, cache left "
            "consistent",
            file=sys.stderr,
        )
        return 130
    if getattr(args, "json", False):
        _emit_json(result.payload)
    else:
        print(result.text)
        if command.report:
            print()
            print(runtime.REPORT.render())
    if result.failure is None:
        return 0
    print(result.failure, file=sys.stderr)
    return 1


if __name__ == "__main__":
    raise SystemExit(main())
