"""The benchmark's workloads: fixed inputs, the timed op, and its check.

Every workload has a fixed list of inputs (``keys``).  The seed only
permutes the order they run in, so every run measures the same mix.
``setup`` builds what the ops read, ``op`` is the timed region, and
``finish`` runs outside it: it checks the op's output and returns the
op's simulated outputs (its digest part), so the run's digest proves a
simulator-only change left every simulated statistic identical.
Every simulation starts with empty modelled caches.
"""

from __future__ import annotations

import dataclasses
import json
import os
import resource
import shutil
import subprocess
import sys
from pathlib import Path

from repro import runtime
from repro.analysis import cachebound, freq
from repro.compression import registry
from repro.compression.adaptive import heat_profile
from repro.compression.alphabets import SIX_STREAM_CONFIGS
from repro.core.study import clear_caches, study_for
from repro.core.sweep import expand_grid, run_sweep
from repro.fetch.config import CacheGeometry, FetchConfig
from repro.fetch.engine import simulate_fetch, simulate_fetch_reference
from repro.programs.suite import BENCHMARK_NAMES, SUITE
from repro.runtime.tasks import fetch_image_key

#: Inputs per workload in ``--quick`` mode (the benchmark's own tests).
QUICK_INPUTS = 2

FETCH_SCHEMES = ("base", "compressed", "tailored")


def _scales(name):
    default = SUITE[name].default_scale
    return default, 2 * default


def _cache(capacity, ways, line):
    return CacheGeometry(f"c{capacity}x{ways}x{line}", capacity, ways, line)


def _fetch_json(metrics) -> dict:
    return dataclasses.asdict(metrics)


class Workload:
    """Fixed inputs plus the work dir the ops may write to."""

    name = ""
    #: Whose memory peak to report: the benchmark process or its children.
    rusage_who = resource.RUSAGE_SELF

    def __init__(self, work: Path, src: Path, quick: bool) -> None:
        self.work = work
        self.src = src
        inputs = self.make_inputs()
        if quick:
            inputs = dict(list(inputs.items())[:QUICK_INPUTS])
        self.inputs = inputs
        self.keys = list(inputs)

    def peak_rss_mb(self) -> float:
        return resource.getrusage(self.rusage_who).ru_maxrss / 1024.0


class ColdStudy(Workload):
    """A user's first ``repro run``: one study end to end, store empty.

    Static work (compiler, compression) is fixed per benchmark; the 1x
    and 2x scales move the dynamic work (emulator, fetch).  The only
    workload that writes to the artifact store.
    """

    name = "cold-study"
    schemes = ("byte", "full", "tailored") + tuple(
        cfg.name for cfg in SIX_STREAM_CONFIGS
    )

    def make_inputs(self):
        return {
            f"{name}@{scale}": (name, scale)
            for name in BENCHMARK_NAMES
            for scale in _scales(name)
        }

    def setup(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.expected = {
            key: SUITE[name].reference_checksum(scale)
            for key, (name, scale) in self.inputs.items()
        }
        self.ops = 0

    def op(self, key, tracer):
        name, scale = self.inputs[key]
        self.ops += 1
        store = self.work / f"store{self.ops}"
        clear_caches()
        runtime.configure(enabled=True, cache_dir=store)
        study = study_for(name, scale)
        study.run
        sizes = {k: study.compressed(k).total_code_bytes for k in self.schemes}
        fetch = {s: study.fetch_metrics(s) for s in FETCH_SCHEMES}
        return study, sizes, fetch, store

    def finish(self, key, output, rng, tracer):
        study, sizes, fetch, store = output
        shutil.rmtree(store, ignore_errors=True)
        address = study.compiled.module.globals["result"].address
        checksum = study.run.machine.load_word(address)
        part = {
            "checksum": checksum,
            "sizes": sizes,
            "fetch": {s: _fetch_json(m) for s, m in fetch.items()},
        }
        return checksum == self.expected[key], part


#: Cache geometries per sweep band, straddling the programs' 2.6-7.5 KB
#: code footprints: "small" grids are miss-dominated, "large" ones
#: hit-dominated.
SWEEP_BANDS = {
    "small": ((512, 2, 32), (1024, 2, 32), (1024, 4, 32), (2048, 2, 32)),
    "large": ((4096, 2, 32), (8192, 2, 32), (8192, 4, 32), (16384, 4, 32)),
}


class DesignSweep(Workload):
    """One fixed-size columnar ``run_sweep`` grid per op, store off.

    The studies are built in set-up, so ``fetch.sweep`` does nearly all
    the work.  The small band runs on the 1x trace, the large band on
    the 2x trace.
    """

    name = "design-sweep"

    def make_inputs(self):
        return {
            f"{name}@{scale}/{band}": (name, scale, band)
            for name in BENCHMARK_NAMES
            for scale, band in zip(_scales(name), SWEEP_BANDS)
        }

    def setup(self) -> None:
        clear_caches()
        runtime.configure(enabled=False)
        self.studies = {}
        self.grids = {}
        for key, (name, scale, band) in self.inputs.items():
            study = study_for(name, scale)
            study.run
            for scheme in FETCH_SCHEMES:
                study.compressed(fetch_image_key(scheme))
            self.studies[key] = study
            self.grids[key] = expand_grid(
                FETCH_SCHEMES,
                caches=SWEEP_BANDS[band],
                predictors=("block", "gshare"),
                l0_capacities=(8, 32),
            )
        self.references = {}

    def op(self, key, tracer):
        name, scale, _ = self.inputs[key]
        return run_sweep(name, self.grids[key], scale=scale)

    def finish(self, key, results, rng, tracer):
        grid = self.grids[key]
        index = rng.randrange(len(grid))
        reference = self.references.get((key, index))
        if reference is None:
            study = self.studies[key]
            config = grid[index]
            reference = simulate_fetch_reference(
                study.compressed(fetch_image_key(config.scheme)),
                study.run.block_trace,
                config,
            )
            self.references[(key, index)] = reference
        ok = len(results) == len(grid) and results[index] == reference
        return ok, [_fetch_json(m) for m in results]


#: ``hybrid@T:static`` at the default threshold.
STATIC_SCHEME = "hybrid:static"

#: Geometries bounded per op: the pressure-scaled default alone, or two
#: larger/wider caches whose must/may states grow.
BOUND_GEOMETRIES = {
    "scaled": ((1024, 2, 32),),
    "wide": ((2048, 2, 32), (4096, 4, 32)),
}


class StaticBounds(Workload):
    """Static heat -> hybrid:static compress -> must/may cycle bounds.

    Emulation and fetch replay happen only in set-up (the trace heat
    counts and the simulated cycles the bounds must bracket), so the
    ops exercise ``analysis.freq``, compression and, mostly,
    ``analysis.cachebound``.
    """

    name = "static-bounds"

    def make_inputs(self):
        return {
            f"{name}/{geometry}": (name, geometry)
            for name in BENCHMARK_NAMES
            for geometry in BOUND_GEOMETRIES
        }

    def setup(self) -> None:
        clear_caches()
        runtime.configure(enabled=False)
        self.studies, self.counts, self.bytes = {}, {}, {}
        self.configs, self.simulated = {}, {}
        for key, (name, geometry) in self.inputs.items():
            if name not in self.studies:
                study = study_for(name, SUITE[name].default_scale)
                trace = study.run.block_trace
                self.studies[name] = study
                self.counts[name] = heat_profile(
                    trace, len(study.compiled.image)
                )
                self.bytes[name] = study.compressed(
                    STATIC_SCHEME
                ).total_code_bytes
            study = self.studies[name]
            configs = [
                FetchConfig(scheme=STATIC_SCHEME, cache=_cache(*g))
                for g in BOUND_GEOMETRIES[geometry]
            ]
            self.configs[key] = configs
            self.simulated[key] = [
                simulate_fetch(
                    study.compressed(STATIC_SCHEME),
                    study.run.block_trace,
                    config,
                ).cycles
                for config in configs
            ]

    def op(self, key, tracer):
        name, _ = self.inputs[key]
        image = self.studies[name].compiled.image
        # Attribute lookups at call time, so a traced op sees the spans.
        profile = freq.static_heat_profile(image)
        scheme = registry.scheme_factory(STATIC_SCHEME)
        scheme.with_profile(profile)
        compressed = scheme.compress(image)
        return compressed, [
            cachebound.cycle_bounds(compressed, self.counts[name], config)
            for config in self.configs[key]
        ]

    def finish(self, key, output, rng, tracer):
        compressed, reports = output
        name, _ = self.inputs[key]
        simulated = self.simulated[key]
        ok = compressed.total_code_bytes == self.bytes[name] and all(
            report.bracket(cycles)
            for report, cycles in zip(reports, simulated)
        )
        part = {
            "bytes": compressed.total_code_bytes,
            "bounds": [
                dict(report.to_json(), simulated_cycles=cycles)
                for report, cycles in zip(reports, simulated)
            ],
        }
        return ok, part


#: CLI invocation per warm-cli command kind.
CLI_COMMANDS = {
    "study": lambda name: ["study", name, "--scheme", "full", "--json"],
    "fig7": lambda name: ["run", "fig7", "--benchmarks", name, "--json"],
}


def _import_seconds(stderr: str, module: str) -> float:
    """Cumulative import time of ``module`` from ``-X importtime``."""
    for line in stderr.splitlines():
        fields = line.split("|")
        if len(fields) == 3 and fields[2].strip() == module:
            return int(fields[1]) / 1e6
    return 0.0


class WarmCli(Workload):
    """One ``python -m repro`` child per op against a warm store.

    The only workload that measures ``cli`` import and store reads.
    Children run one at a time, so the load never exceeds one core for
    the child plus the idle parent.
    """

    name = "warm-cli"
    rusage_who = resource.RUSAGE_CHILDREN

    def make_inputs(self):
        return {
            f"{kind}:{name}": (kind, name)
            for name in BENCHMARK_NAMES
            for kind in CLI_COMMANDS
        }

    def setup(self) -> None:
        from repro.core.experiments import EXPERIMENTS
        from repro.serve.handlers import study_payload

        store = self.work / "store"
        shutil.rmtree(store, ignore_errors=True)
        clear_caches()
        runtime.configure(enabled=True, cache_dir=store)
        self.expected = {}
        for key, (kind, name) in self.inputs.items():
            if kind == "study":
                value = study_payload(name, None, ("full",))
            else:
                headers, rows = EXPERIMENTS["fig7"].runner((name,), None)
                value = {"headers": list(headers), "rows": rows}
            self.expected[key] = json.loads(json.dumps(value))
        self.env = dict(
            os.environ,
            PYTHONPATH=str(self.src),
            REPRO_CACHE="1",
            REPRO_CACHE_DIR=str(store),
        )

    def op(self, key, tracer):
        kind, name = self.inputs[key]
        argv = [sys.executable]
        if tracer is not None:
            argv += ["-X", "importtime"]
        argv += ["-m", "repro"] + CLI_COMMANDS[kind](name)
        run = lambda: subprocess.run(  # noqa: E731
            argv, env=self.env, capture_output=True, text=True, timeout=60
        )
        if tracer is None:
            return run()
        with tracer.span("cli"):
            return run()

    def finish(self, key, proc, rng, tracer):
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return False, {"returncode": proc.returncode}
        payload = json.loads(proc.stdout)
        kind, _ = self.inputs[key]
        if kind == "study":
            result, report = payload["study"], payload["metrics"]
        else:
            result = {"headers": payload["headers"], "rows": payload["rows"]}
            report = payload["runtime"]
        if tracer is not None:
            stages = report["stages"].values()
            tracer.count("cli.import_s", _import_seconds(proc.stderr,
                                                         "repro.cli"))
            tracer.count("runtime.get_s", sum(s["seconds"] for s in stages))
            tracer.count("runtime.hits", report["totals"]["hits"])
            tracer.count("runtime.misses", report["totals"]["misses"])
            tracer.count("runtime.bytes_read",
                         sum(s["bytes_read"] for s in stages))
        ok = report["totals"]["misses"] == 0 and result == self.expected[key]
        return ok, result


WORKLOADS = {
    cls.name: cls for cls in (ColdStudy, DesignSweep, StaticBounds, WarmCli)
}
