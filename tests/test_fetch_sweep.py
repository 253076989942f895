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

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.sweep import expand_grid, run_sweep
from repro.errors import ConfigurationError
from repro.fetch.config import CacheGeometry, FetchConfig
from repro.fetch.engine import simulate_fetch, simulate_fetch_reference
from repro.fetch.sweep import (
    config_from_json,
    config_to_json,
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


@settings(max_examples=30, deadline=None)
@given(config=fetch_configs())
def test_config_json_roundtrip(config):
    rebuilt = config_from_json(config_to_json(config))
    assert config_to_json(rebuilt) == config_to_json(config)
    assert rebuilt.scheme == config.scheme
    assert rebuilt.cache.capacity_bytes == config.cache.capacity_bytes
    assert rebuilt.cache.ways == config.cache.ways
    assert rebuilt.cache.line_bytes == config.cache.line_bytes


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


def test_config_from_json_rejects_malformed():
    with pytest.raises(ConfigurationError):
        config_from_json({"scheme": "base"})  # no cache
    with pytest.raises(ConfigurationError):
        config_from_json("not a dict")


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
def test_run_sweep_matches_study_and_warms_store(compress_study):
    grid = expand_grid(
        ("base", "tailored", "compressed"),
        caches=[(1280, 2, 40), (1024, 2, 32)],
        predictors=("block", "gshare"),
    )
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
