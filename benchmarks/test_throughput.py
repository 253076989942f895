"""Raw throughput benches for the substrates themselves.

These are classic pytest-benchmark timings (multiple rounds) so
regressions in the compiler, emulator, compressors or fetch simulator
show up as numbers, not just green tests.  The sweep-speedup test is a
plain timing assertion instead: it runs under ``--benchmark-disable``
too, and lives outside tier-1 so a noisy host cannot break it.
"""

import timeit

import pytest

from repro.compiler import compile_module
from repro.compression.schemes import FullOpHuffmanScheme
from repro.core.study import study_for
from repro.core.sweep import expand_grid
from repro.emulator import emulate
from repro.fetch.config import FetchConfig, fetch_image_key
from repro.fetch.engine import simulate_fetch
from repro.fetch.sweep import simulate_fetch_sweep_multi
from repro.programs.suite import SUITE


def test_compile_throughput(benchmark):
    spec = SUITE["gcc"]

    def compile_once():
        return compile_module(spec.build(2))

    prog = benchmark(compile_once)
    assert prog.image.total_ops > 0


def test_emulator_throughput(benchmark):
    spec = SUITE["m88ksim"]
    module = spec.build(1)
    prog = compile_module(module)

    result = benchmark(lambda: emulate(prog.image, module.globals))
    assert result.dynamic_ops > 0


def test_compression_throughput(benchmark):
    study = study_for("perl")
    image = study.compiled.image

    compressed = benchmark(lambda: FullOpHuffmanScheme().compress(image))
    assert compressed.total_code_bytes > 0


def test_fetch_sim_throughput(benchmark):
    study = study_for("gcc")
    compressed = study.compressed("base")
    trace = study.run.block_trace
    config = FetchConfig.for_scheme("base", scaled=True)

    metrics = benchmark.pedantic(
        lambda: simulate_fetch(compressed, trace, config),
        rounds=3, iterations=1,
    )
    assert metrics.cycles > 0


def test_sweep_beats_sequential_replay():
    """One columnar sweep over the 64-point design grid must stay well
    ahead of one ``simulate_fetch`` per config: a collapse to ~1× is a
    regression even when every output stays identical."""
    study = study_for("compress", 3)
    schemes = ("base", "tailored", "compressed")
    images = {s: study.compressed(fetch_image_key(s)) for s in schemes}
    trace = study.run.block_trace
    grid = expand_grid(
        schemes,
        caches=[(1280, 2, 40), (1024, 2, 32)],
        atbs=[(32, 4), (64, 4), (128, 4), (256, 8)],
        predictors=("block", "gshare"),
        l0_capacities=(8, 32),
    )

    def sequential():
        return [
            simulate_fetch(images[config.scheme], trace, config)
            for config in grid
        ]

    def sweep():
        return simulate_fetch_sweep_multi(images, trace, grid)

    assert sweep() == sequential()
    best_of_3 = [
        min(timeit.repeat(fn, number=1, repeat=3))
        for fn in (sequential, sweep)
    ]
    speedup = best_of_3[0] / best_of_3[1]
    print(f"sweep: {len(grid)} configs, {speedup:.1f}x over sequential")
    assert speedup >= 3.0, f"sweep speedup collapsed to {speedup:.2f}x"
