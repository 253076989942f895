"""Property and unit tests for the columnar multi-config sweep engine.

The contract under test: every element of
``simulate_fetch_sweep(compressed, trace, configs)`` is bit-identical
to a sequential ``simulate_fetch(compressed, trace, config)`` call
(which checks the engine's cross-config memo keys) and to the
reference engine ``simulate_fetch_reference``.  Hypothesis drives
randomized grids over geometry, scheme, predictor, ATB shape, L0
capacity and bus width; the unit tests cover the degenerate shapes and
the store-backed ``run_sweep`` wrapper.
"""

from __future__ import annotations

import time
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import runtime
from repro.core.study import clear_caches, study_for
from repro.core.sweep import expand_grid, run_sweep
from repro.errors import ConfigurationError
from repro.fetch.config import CacheGeometry, FetchConfig
from repro.fetch.engine import simulate_fetch, simulate_fetch_reference
from repro.fetch.sweep import (
    simulate_fetch_sweep,
    simulate_fetch_sweep_multi,
)

#: fetch scheme -> compression-scheme key of the image it runs on.
SCHEME_IMAGE = {"base": "base", "tailored": "tailored",
                "compressed": "full"}

#: Valid geometries (power-of-two set counts) spanning the axes.
GEOMETRIES = [
    (512, 2, 16), (640, 2, 40), (1280, 2, 40),
    (1024, 2, 32), (2048, 4, 32), (4096, 4, 64),
]


def _geometry(point):
    capacity, ways, line = point
    return CacheGeometry(
        name=f"t{capacity}x{ways}x{line}",
        capacity_bytes=capacity,
        ways=ways,
        line_bytes=line,
    )


@st.composite
def fetch_configs(draw, schemes=tuple(SCHEME_IMAGE)):
    scheme = draw(st.sampled_from(schemes))
    atb_entries, atb_ways = draw(
        st.sampled_from([(32, 4), (64, 4), (128, 4), (256, 8)])
    )
    return FetchConfig(
        scheme=scheme,
        cache=_geometry(draw(st.sampled_from(GEOMETRIES))),
        atb_entries=atb_entries,
        atb_ways=atb_ways,
        atb_miss_penalty=draw(st.integers(min_value=0, max_value=4)),
        l0_capacity_ops=draw(st.sampled_from([4, 8, 32, 128])),
        bus_bytes=draw(st.sampled_from([4, 8, 16])),
        predictor=draw(st.sampled_from(["block", "gshare"])),
        gshare_history_bits=draw(st.integers(min_value=2, max_value=14)),
    )


@pytest.fixture(scope="module")
def sweep_images(compress_study):
    return {
        scheme: compress_study.compressed(key)
        for scheme, key in SCHEME_IMAGE.items()
    }


@pytest.fixture(scope="module")
def nblocks(sweep_images):
    return len(sweep_images["compressed"].image)


# ------------------------------------------------------------ properties
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_sweep_matches_sequential_on_random_grids(
    data, sweep_images, nblocks
):
    trace = data.draw(
        st.lists(
            st.integers(min_value=0, max_value=nblocks - 1),
            min_size=0,
            max_size=300,
        )
    )
    grid = data.draw(
        st.lists(fetch_configs(), min_size=1, max_size=6)
    )
    batch = simulate_fetch_sweep_multi(sweep_images, trace, grid)
    assert len(batch) == len(grid)
    for config, metrics in zip(grid, batch):
        expected = simulate_fetch(
            sweep_images[config.scheme], trace, config
        )
        assert metrics == expected


@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_unsupported_configs_fall_back_without_poisoning(
    data, sweep_images, nblocks
):
    """No point of a mixed batch is poisoned by its neighbours' memo
    entries: each one equals its own reference-engine replay."""
    trace = data.draw(
        st.lists(
            st.integers(min_value=0, max_value=nblocks - 1),
            min_size=1,
            max_size=200,
        )
    )
    grid = data.draw(
        st.lists(fetch_configs(), min_size=2, max_size=5)
    )
    batch = simulate_fetch_sweep_multi(sweep_images, trace, grid)
    for config, metrics in zip(grid, batch):
        assert metrics == simulate_fetch_reference(
            sweep_images[config.scheme], trace, config
        )


def test_sweep_matches_sequential_on_the_64_point_grid(
    sweep_images, compress_study
):
    """The fixed design grid the random draws never reach: 3 schemes ×
    2 caches × 4 ATBs × 2 predictors, with L0 {8, 32} under compressed
    (16 + 16 + 32 points), over the study's real trace."""
    grid = expand_grid(
        ("base", "tailored", "compressed"),
        caches=[(1280, 2, 40), (1024, 2, 32)],
        atbs=[(32, 4), (64, 4), (128, 4), (256, 8)],
        predictors=("block", "gshare"),
        l0_capacities=(8, 32),
    )
    assert len(grid) == 64
    trace = compress_study.run.block_trace
    batch = simulate_fetch_sweep_multi(sweep_images, trace, grid)
    assert batch == [
        simulate_fetch(sweep_images[config.scheme], trace, config)
        for config in grid
    ]


# ------------------------------------------------------------ degenerate
def test_single_config_grid_is_one_simulate_fetch(sweep_images):
    trace = list(range(len(sweep_images["base"].image))) * 3
    config = FetchConfig.for_scheme("base", scaled=True)
    batch = simulate_fetch_sweep(sweep_images["base"], trace, [config])
    assert batch == [
        simulate_fetch_reference(sweep_images["base"], trace, config)
    ]


def test_bus_wider_than_every_payload(sweep_images, compress_study):
    """Beats pad no further than the longest payload: both engines
    agree at a 10**11-byte bus without building its zero tail, and
    flip exactly as often as on a bus that just fits that payload."""
    compressed = sweep_images["compressed"]
    trace = compress_study.run.block_trace
    longest = max(len(p) for p in compressed.block_payloads)
    huge = replace(
        FetchConfig.for_scheme("compressed", scaled=True),
        bus_bytes=10**11,
    )
    [swept] = simulate_fetch_sweep(compressed, trace, [huge])
    assert swept == simulate_fetch_reference(compressed, trace, huge)
    fitted = replace(huge, bus_bytes=longest)
    assert swept.bus_bit_flips == simulate_fetch_reference(
        compressed, trace, fitted
    ).bus_bit_flips


def test_empty_trace_and_empty_grid(sweep_images):
    config = FetchConfig.for_scheme("compressed", scaled=True)
    batch = simulate_fetch_sweep(
        sweep_images["compressed"], [], [config]
    )
    assert batch == [
        simulate_fetch_reference(sweep_images["compressed"], [], config)
    ]
    assert simulate_fetch_sweep_multi(sweep_images, [0, 1], []) == []


def test_multi_requires_an_image_per_scheme(sweep_images):
    config = FetchConfig.for_scheme("tailored", scaled=True)
    with pytest.raises(ConfigurationError, match="tailored"):
        simulate_fetch_sweep_multi(
            {"base": sweep_images["base"]}, [0], [config]
        )


def test_unknown_scheme_raises(sweep_images):
    config = FetchConfig.for_scheme("base", scaled=True)
    bad = FetchConfig(
        scheme="ideal",
        cache=config.cache,
    )
    with pytest.raises(ConfigurationError, match="ideal"):
        simulate_fetch_sweep(sweep_images["base"], [0], [bad])


# ------------------------------------------------------------ expand_grid
def test_expand_grid_collapses_inert_axes():
    grid = expand_grid(
        ("base", "compressed"),
        caches=[(1280, 2, 40)],
        l0_capacities=(8, 32),
        predictors=("block",),
        gshare_bits=(4, 8, 12),
    )
    base = [c for c in grid if c.scheme == "base"]
    comp = [c for c in grid if c.scheme == "compressed"]
    # L0 only matters under compressed; gshare width not under block.
    assert len(base) == 1
    assert sorted(c.l0_capacity_ops for c in comp) == [8, 32]


def test_expand_grid_rejects_unknown_scheme():
    with pytest.raises(ConfigurationError, match="ideal"):
        expand_grid(("ideal",))


# --------------------------------------------------------- run_sweep/store
#: 3 schemes x 2 caches x 2 predictors: a 12-point design grid.
DESIGN_GRID = dict(
    schemes=("base", "tailored", "compressed"),
    caches=[(1280, 2, 40), (1024, 2, 32)],
    predictors=("block", "gshare"),
)


@pytest.fixture
def fresh_store(tmp_path):
    """An empty store and no in-process study state."""
    saved = runtime.runtime_config()
    clear_caches()
    runtime.configure(enabled=True, cache_dir=tmp_path / "cache")
    yield
    clear_caches()
    runtime.set_runtime_config(saved)


def test_run_sweep_matches_study_and_warms_store(compress_study):
    grid = expand_grid(**DESIGN_GRID)
    results = run_sweep(
        "compress", grid, scale=compress_study.scale
    )
    assert len(results) == len(grid)
    for config, metrics in zip(grid, results):
        # Same store digests, same values as the figure-study path.
        assert metrics == compress_study.fetch_metrics(
            config.scheme, config
        )
    # Duplicate points answer from the first occurrence.
    doubled = list(grid) + [grid[0]]
    again = run_sweep("compress", doubled, scale=compress_study.scale)
    assert again[-1] == again[0]
    assert again[: len(grid)] == results


def test_sharded_sweep_equals_inline(fresh_store):
    grid = expand_grid(**DESIGN_GRID)
    assert len(grid) == 12
    sharded = run_sweep("compress", grid, scale=2, jobs=2)
    runtime.configure(enabled=False)
    assert run_sweep("compress", grid, scale=2, jobs=1) == sharded


def test_default_grid_sweep_warms_the_figure_studies(fresh_store):
    """One address per result: the standard config of each organization
    is a point of the default grid, stored once and read by both."""
    swept = run_sweep("compress", expand_grid(), scale=2)
    clear_caches()
    study = study_for("compress", 2)
    with runtime.capture() as report:
        found = [
            study.fetch_metrics(scheme)
            for scheme in ("base", "tailored", "compressed")
        ]
    assert found == swept
    assert report.stage("fetch").hits == 3
    assert report.stage("fetch").misses == 0


# ----------------------------------------------------------- stage seconds
def test_nested_stages_are_not_counted_twice(fresh_store):
    """A cold fetch emulates and compresses inside its compute; each
    stage reports only its own time, so they sum to at most the wall
    time of the call."""
    runtime.configure(enabled=False)
    study = study_for("compress", 2)
    with runtime.capture() as report:
        started = time.perf_counter()
        study.fetch_metrics("compressed")
        wall = time.perf_counter() - started
    assert {"compile", "trace", "compress", "fetch"} <= set(report.stages)
    assert sum(m.seconds for m in report.stages.values()) <= wall


def test_sweep_misses_charge_the_engine_to_fetch(fresh_store, monkeypatch):
    import repro.core.sweep as sweep_module

    engine = sweep_module.simulate_fetch_sweep_multi

    def slow_engine(*args, **kwargs):
        time.sleep(0.2)
        return engine(*args, **kwargs)

    monkeypatch.setattr(
        sweep_module, "simulate_fetch_sweep_multi", slow_engine
    )
    grid = expand_grid(**DESIGN_GRID)
    study_for("compress", 2).run  # the trace is not the sweep's time
    with runtime.capture() as report:
        run_sweep("compress", grid, scale=2)
    fetch = report.stage("fetch")
    assert fetch.misses == len(grid)
    assert fetch.seconds >= 0.2
