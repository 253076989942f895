"""Raw throughput benches for the substrates themselves.

These are classic pytest-benchmark timings (multiple rounds) so
regressions in the compiler, emulator, compressors or fetch simulator
show up as numbers, not just green tests.  The sweep- and
emulator-speedup tests are plain timing assertions instead: they run
under ``--benchmark-disable`` too, and live outside tier-1 so a noisy
host cannot break them.
"""

import timeit

import pytest

from repro.compiler import compile_module
from repro.compression.schemes import FullOpHuffmanScheme
from repro.core.study import study_for
from repro.core.sweep import expand_grid
from repro.emulator import emulate, run_image
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


def test_emulator_kernel_beats_reference():
    """The generated-code kernel, its per-image build included, must
    stay well ahead of the interpretive reference ``run_image``: a
    collapse toward 1x is a regression even when every output stays
    identical."""
    spec = SUITE["compress"]
    scale = spec.default_scale
    globals_data = spec.build(scale).globals
    # compile_module consumes its IR module, so each image is compiled
    # from a fresh one.  A fresh image has no memoized plan, so every
    # kernel run below generates and compiles its code.
    images = [compile_module(spec.build(scale)).image for _ in range(3)]
    expected = run_image(images[0], globals_data).fingerprint()
    kernel_s = []
    for image in images:
        start = timeit.default_timer()
        result = emulate(image, globals_data)
        kernel_s.append(timeit.default_timer() - start)
        assert result.fingerprint() == expected
    reference_s = min(timeit.repeat(
        lambda: run_image(images[0], globals_data), number=1, repeat=3
    ))
    speedup = reference_s / min(kernel_s)
    print(f"emulator: {speedup:.1f}x over run_image, cold plan")
    assert speedup >= 5.0, f"emulator speedup collapsed to {speedup:.2f}x"
