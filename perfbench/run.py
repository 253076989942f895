"""End-to-end and per-layer benchmark of the repro pipeline.

Run from the repository root::

    python3 perfbench/run.py --workload cold-study --seed 1 --seconds 12 --trace 0

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` alternates untraced and traced rounds,
reports the per-layer metrics and writes the spans to
``.perfbench/spans-<workload>-seed<seed>.jsonl``.  README.md in this
directory explains the workloads, the metrics and the noise they
survive.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import shutil
import statistics
import sys
import traceback
from array import array
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

#: Set-up repetitions per run; ``setup_s`` is their median.
SETUP_REPEATS = 3

END_TO_END = {
    "op_p50_norm": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "pass_rate": "ratio",
}

PER_LAYER = {
    "compiler.self_s": "s",
    "compiler.ops_out": "count",
    "programs.self_s": "s",
    "compression.self_s": "s",
    "compression.calls": "count",
    "compression.ops_encoded": "count",
    "compression.bytes_out": "bytes",
    "emulator.self_s": "s",
    "emulator.blocks": "count",
    "emulator.blocks_per_s": "1/s",
    "fetch.self_s": "s",
    "fetch.blocks_replayed": "count",
    "fetch.blocks_per_s": "1/s",
    "fetch.sweep.self_s": "s",
    "fetch.sweep.points": "count",
    "fetch.sweep.points_per_s": "1/s",
    "analysis.freq.self_s": "s",
    "analysis.cachebound.self_s": "s",
    "analysis.cachebound.classified_share": "ratio",
    "runtime.put_s": "s",
    "runtime.bytes_written": "bytes",
    "runtime.fingerprint_s": "s",
    "runtime.get_s": "s",
    "runtime.hits": "count",
    "runtime.misses": "count",
    "runtime.hit_ratio": "ratio",
    "runtime.bytes_read": "bytes",
    "cli.import_s": "s",
    "cli.process_s": "s",
    "core.self_s": "s",
    "trace.overhead": "ratio",
    "trace.self_sum_gap_s": "s",
}


class Probe:
    """A fixed pure-Python workload timed before every op.

    It mixes interpreter-bound work (arithmetic, a dict) with memory-bound
    work (random reads over 16 MB, big-int shifts), because host
    contention slows the pipeline's ops through both.  Dividing each op
    by the probe beside it cancels most of the host's slow phases.
    """

    def __init__(self) -> None:
        self.table = array("q", range(1 << 21))

    def __call__(self) -> int:
        acc = 0
        seen = {}
        for i in range(15_000):
            acc = (acc * 1_103_515_245 + i) & 0xFFFFFFFF
            seen[acc & 4095] = i
        table, mask, j = self.table, len(self.table) - 1, 0
        for _ in range(15_000):
            j = (j * 1_103_515_245 + 12_345) & mask
            acc ^= table[j]
        big = (1 << 40_000) - 1
        for _ in range(200):
            big = (big << 1) ^ (big >> 3)
        return acc ^ len(seen) ^ (big & 1)


def schedule(keys, seed, round_index):
    """One round's op order: every input once, permuted by the seed."""
    order = list(keys)
    random.Random(f"{seed}:{round_index}").shuffle(order)
    return order


def balanced_median(samples) -> float:
    """Median over inputs of each input's median of ``(key, value)`` pairs.

    Every input weighs the same, and the result does not jump between
    per-input cost clusters the way a pooled median of a mixed workload
    does.
    """
    per_input = {}
    for key, value in samples:
        per_input.setdefault(key, []).append(value)
    if not per_input:
        return 0.0
    return statistics.median(statistics.median(v) for v in per_input.values())


def _digest(value) -> str:
    blob = json.dumps(value, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


def measure(workload, *, seed, seconds, trace, setup_repeats):
    """Set up, run whole rounds for ``seconds``, and collect samples."""
    from tracing import ROOT_SPAN, Tracer, installed

    setup_s = []
    for _ in range(setup_repeats):
        started = perf_counter()
        workload.setup()
        setup_s.append(perf_counter() - started)

    probe = Probe()
    tracer = Tracer()
    run = {
        "setup_s": setup_s, "samples": [], "traced": [], "sequence": [],
        "parts": {}, "failed": 0, "rounds": 0, "tracer": tracer,
    }
    started_run = perf_counter()
    deadline = started_run + seconds
    # Whole rounds only, so every run holds each input equally often; a
    # traced run needs one untraced and one traced round at least.
    while run["rounds"] < (2 if trace else 1) or perf_counter() < deadline:
        traced = trace and run["rounds"] % 2 == 1
        for key in schedule(workload.keys, seed, run["rounds"]):
            op_id = len(run["sequence"])
            run["sequence"].append(key)
            started = perf_counter()
            probe()
            probe_s = perf_counter() - started
            tracer.op = op_id
            try:
                if traced:
                    with installed(tracer), tracer.span(ROOT_SPAN) as root:
                        output = workload.op(key, tracer)
                    elapsed = root.end - root.start
                else:
                    started = perf_counter()
                    output = workload.op(key, None)
                    elapsed = perf_counter() - started
                ok, part = workload.finish(
                    key, output, random.Random(f"{seed}:check:{key}"),
                    tracer if traced else None,
                )
            except Exception:
                traceback.print_exc()
                run["failed"] += 1
                continue
            sample = (key, elapsed, probe_s)
            run["traced" if traced else "samples"].append(sample)
            if run["parts"].setdefault(key, part) != part:
                ok = False
            run["failed"] += not ok
        run["rounds"] += 1
    run["wall_s"] = perf_counter() - started_run
    return run


def end_to_end_metrics(workload, run) -> dict:
    attempted = len(run["sequence"])
    return {
        "op_p50_norm": balanced_median(
            (key, op / probe) for key, op, probe in run["samples"]
        ),
        "setup_s": statistics.median(run["setup_s"]),
        "peak_rss_mb": workload.peak_rss_mb(),
        "pass_rate": (attempted - run["failed"]) / attempted,
    }


def per_layer_metrics(run) -> dict:
    tracer = run["tracer"]
    self_s = tracer.self_times()
    counts = tracer.counts
    n = max(1, len(run["traced"]))

    def rate(count, seconds):
        return count / seconds if seconds else 0.0

    def op_p50(samples):
        return balanced_median((key, op) for key, op, _ in samples)

    hits, misses = counts["runtime.hits"], counts["runtime.misses"]
    return {
        "compiler.self_s": self_s["compiler"] / n,
        "compiler.ops_out": counts["compiler.ops_out"] / n,
        "programs.self_s": self_s["programs"] / n,
        "compression.self_s": self_s["compression"] / n,
        "compression.calls": counts["compression.calls"] / n,
        "compression.ops_encoded": counts["compression.ops_encoded"] / n,
        "compression.bytes_out": counts["compression.bytes_out"] / n,
        "emulator.self_s": self_s["emulator"] / n,
        "emulator.blocks": counts["emulator.blocks"] / n,
        "emulator.blocks_per_s": rate(
            counts["emulator.blocks"], self_s["emulator"]
        ),
        "fetch.self_s": self_s["fetch"] / n,
        "fetch.blocks_replayed": counts["fetch.blocks_replayed"] / n,
        "fetch.blocks_per_s": rate(
            counts["fetch.blocks_replayed"], self_s["fetch"]
        ),
        "fetch.sweep.self_s": self_s["fetch.sweep"] / n,
        "fetch.sweep.points": counts["fetch.sweep.points"] / n,
        "fetch.sweep.points_per_s": rate(
            counts["fetch.sweep.points"], self_s["fetch.sweep"]
        ),
        "analysis.freq.self_s": self_s["analysis.freq"] / n,
        "analysis.cachebound.self_s": self_s["analysis.cachebound"] / n,
        "analysis.cachebound.classified_share": rate(
            counts["analysis.cachebound.decided"],
            counts["analysis.cachebound.analyzed"],
        ),
        "runtime.put_s": self_s["runtime.put"] / n,
        "runtime.bytes_written": counts["runtime.bytes_written"] / n,
        "runtime.fingerprint_s": self_s["runtime.fingerprint"] / n,
        "runtime.get_s": (self_s["runtime.get"] + counts["runtime.get_s"]) / n,
        "runtime.hits": hits / n,
        "runtime.misses": misses / n,
        "runtime.hit_ratio": rate(hits, hits + misses),
        "runtime.bytes_read": counts["runtime.bytes_read"] / n,
        "cli.import_s": counts["cli.import_s"] / n,
        "cli.process_s": self_s["cli"] / n,
        "core.self_s": self_s["core"] / n,
        "trace.overhead": rate(op_p50(run["traced"]), op_p50(run["samples"])),
        "trace.self_sum_gap_s": tracer.self_sum_gap(),
    }


def report(workload, run, *, seed, trace) -> dict:
    """Print the human summary; return the result object."""
    ops = [op for _, op, _ in run["samples"]]
    attempted = len(run["sequence"])
    failed = run["failed"]
    print(
        f"{workload.name}: seed {seed}, {run['rounds']} round(s) of "
        f"{len(workload.keys)} inputs = {attempted} ops in "
        f"{run['wall_s']:.1f} s, {failed} failed "
        f"(fail_rate {failed / attempted:.4f})"
    )
    if len(ops) >= 2:
        op_p50 = balanced_median((key, op) for key, op, _ in run["samples"])
        p90 = statistics.quantiles(ops, n=10)[-1]
        probe_p50 = statistics.median(p for _, _, p in run["samples"])
        print(
            f"host time, not gated: op_p50_s {op_p50:.4f}  "
            f"op_p90_s {p90:.4f} (n={len(ops)}, "
            f"{sum(1 for t in ops if t > p90)} above)  "
            f"ops_per_s {len(ops) / sum(ops):.3f}  "
            f"probe_p50_s {probe_p50:.5f}"
        )
    print(f"sequence {_digest(run['sequence'])}")
    print(f"digest {_digest(sorted(run['parts'].items()))}")
    if trace:
        metrics, units = per_layer_metrics(run), PER_LAYER
        tracer = run["tracer"]
        OUT.mkdir(exist_ok=True)
        path = OUT / f"spans-{workload.name}-seed{seed}.jsonl"
        tracer.write(path)
        print(
            f"spans: {path.relative_to(ROOT)} ({len(tracer.spans)} spans); "
            f"traced/untraced op_p50_s {metrics['trace.overhead']:.3f}; "
            f"each op's self times sum to its wall time within "
            f"{metrics['trace.self_sum_gap_s']:.2e} s"
        )
        for name, unit in units.items():
            print(f"  {name:40s} {metrics[name]:>16.6g} {unit}")
    else:
        metrics, units = end_to_end_metrics(workload, run), END_TO_END
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in units.items()
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--quick", action="store_true",
        help="two inputs and one set-up per run (the benchmark's tests)",
    )
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {SRC}", file=sys.stderr)
        return 2
    work = OUT / f"work-{os.getpid()}"
    # Every store stays inside the checkout, and every study a workload
    # builds stays resident in the study cache.
    os.environ["REPRO_CACHE_DIR"] = str(work / "store")
    os.environ["REPRO_STUDY_CACHE_CAP"] = "64"
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        print(f"perfbench: repro imported from {repro.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r} "
              f"(known: {', '.join(WORKLOADS)})", file=sys.stderr)
        return 2
    try:
        workload = WORKLOADS[args.workload](work, SRC, args.quick)
        run = measure(
            workload,
            seed=args.seed,
            seconds=args.seconds,
            trace=bool(args.trace),
            setup_repeats=1 if args.quick else SETUP_REPEATS,
        )
        result = report(workload, run, seed=args.seed, trace=args.trace)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
