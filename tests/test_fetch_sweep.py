"""Property and unit tests for the columnar multi-config sweep engine.

The contract under test: every element of
``simulate_fetch_sweep(compressed, trace, configs)`` is bit-identical
to a sequential ``simulate_fetch(compressed, trace, config)`` call
(which checks the engine's cross-config memo keys) and to the
reference engine ``simulate_fetch_reference``.  Hypothesis drives
randomized grids over geometry, scheme, predictor, ATB shape, L0
capacity and bus width; the unit tests cover the degenerate shapes,
the cache component's split into never-evicting and replayed sets on
hand-laid images, the trace-level replay state a study shares across
its fetches, and the store-backed ``run_sweep`` wrapper.
"""

from __future__ import annotations

import time
from array import array
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import runtime
from repro.compression.schemes import CompressedImage
from repro.core.study import clear_caches, study_for
from repro.core.sweep import expand_grid, run_sweep
from repro.errors import ConfigurationError
from repro.fetch.config import CacheGeometry, FetchConfig
from repro.fetch.engine import simulate_fetch, simulate_fetch_reference
from repro.fetch.sweep import (
    TraceReplay,
    block_span_pairs,
    simulate_fetch_sweep,
    simulate_fetch_sweep_multi,
)
from repro.runtime.metrics import REPORT, reset_metrics
from repro.runtime.tasks import fetch_image_key

#: The single-image fetch organizations the sweep tests replay.
SCHEMES = ("base", "tailored", "compressed")

#: Valid geometries (power-of-two set counts) spanning the axes.  On
#: the compress images every set of 256:2:16 can evict, no set of
#: 16384:4:32 can, and blocks span more lines than 128:2:16 has sets
#: (``test_geometries_cover_the_set_split`` pins all three).
GEOMETRIES = [
    (128, 2, 16), (256, 2, 16), (512, 2, 16), (640, 2, 40),
    (1280, 2, 40), (1024, 2, 32), (2048, 4, 32), (4096, 4, 64),
    (16384, 4, 32),
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
def fetch_configs(draw, schemes=SCHEMES):
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
        scheme: compress_study.compressed(fetch_image_key(scheme))
        for scheme in SCHEMES
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
        compressed = sweep_images[config.scheme]
        assert metrics == simulate_fetch(compressed, trace, config)
        assert metrics == simulate_fetch_reference(
            compressed, trace, config
        )


def _lines_per_set(compressed, geometry, blocks):
    """Distinct lines each set holds over ``blocks``."""
    sets = {}
    for pairs in map(block_span_pairs(compressed, geometry).__getitem__,
                     blocks):
        for set_index, line in pairs:
            sets.setdefault(set_index, set()).add(line)
    return {set_index: len(lines) for set_index, lines in sets.items()}


def test_geometries_cover_the_set_split(sweep_images, nblocks):
    every_block = range(nblocks)
    for compressed in sweep_images.values():
        small = _geometry((256, 2, 16))
        evicting = _lines_per_set(compressed, small, every_block)
        assert len(evicting) == small.num_sets
        assert min(evicting.values()) > small.ways
        large = _geometry((16384, 4, 32))
        assert max(
            _lines_per_set(compressed, large, every_block).values()
        ) <= large.ways
    tiny = _geometry((128, 2, 16))
    for scheme in ("base", "tailored"):
        spans = block_span_pairs(sweep_images[scheme], tiny)
        assert max(map(len, spans)) > tiny.num_sets


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


def test_empty_trace_and_empty_grid(sweep_images, compress_study):
    config = FetchConfig.for_scheme("compressed", scaled=True)
    batch = simulate_fetch_sweep(
        sweep_images["compressed"], [], [config]
    )
    assert batch == [
        simulate_fetch_reference(sweep_images["compressed"], [], config)
    ]
    for scheme in ("base", "tailored", "compressed", "hybrid"):
        _assert_matches_reference(
            compress_study.compressed(fetch_image_key(scheme)), [],
            [(256, 2, 16), (16384, 4, 32)], (scheme,),
        )
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


# ------------------------------------------------------------ set split
#: Two 2-way sets (even lines, odd lines) of 16-byte lines.
TWO_SETS = (64, 2, 16)


class _LaidOut(CompressedImage):
    """The compress program's blocks at hand-picked payloads.

    Blocks sit back to back, so the payload sizes place every line;
    ``tags`` turns it into a hybrid image.
    """

    def __init__(self, like, payloads, tags=None):
        super().__init__(
            like.scheme, like.image, payloads,
            [8 * len(payload) for payload in payloads], [],
        )
        self.tags = tags

    def block_scheme_tags(self):
        return self.tags


def _laid_out(like, sizes):
    """Blocks ``0..len(sizes)-1`` at ``sizes`` bytes of distinct
    content each; every other block is one byte."""
    sizes = list(sizes) + [1] * (len(like.image) - len(sizes))
    return _LaidOut(like, [
        bytes((37 * block + 11 * k + 1) & 0xFF for k in range(size))
        for block, size in enumerate(sizes)
    ])


def _assert_matches_reference(compressed, trace, caches, schemes,
                              l0_capacities=(32,), bus_widths=(8,)):
    grid = [
        FetchConfig(scheme=scheme, cache=_geometry(cache),
                    l0_capacity_ops=capacity, bus_bytes=bus)
        for scheme in schemes
        for cache in caches
        for capacity in l0_capacities
        for bus in bus_widths
    ]
    batch = simulate_fetch_sweep(compressed, trace, grid)
    for config, metrics in zip(grid, batch):
        assert metrics == simulate_fetch_reference(
            compressed, trace, config
        )
    return batch


def test_block_with_two_lines_in_one_evicting_set(sweep_images):
    # Block 0 holds lines 0-2, so lines 0 and 2 share the even set,
    # which block 2's line 4 pushes past its two ways.
    compressed = _laid_out(sweep_images["compressed"], [48, 16, 16])
    trace = [0, 2, 0, 1, 2, 2, 0, 0, 1, 2, 0, 2, 0]
    assert _lines_per_set(
        compressed, _geometry(TWO_SETS), {0, 1, 2}
    ) == {0: 3, 1: 2}
    batch = _assert_matches_reference(
        compressed, trace, [TWO_SETS], ("base", "compressed"),
        l0_capacities=(1, 32),
    )
    assert batch[0].cache_misses > 3  # lines are refetched


def test_lines_shared_across_evicting_and_never_evicting_sets(
    sweep_images,
):
    # Blocks 0|1 share line 1 (odd set, never evicts), 1|2 share line 2
    # (even set, evicts) and 2|3 share line 3 (odd set).
    compressed = _laid_out(sweep_images["compressed"], [24, 16, 16, 16])
    spans = block_span_pairs(compressed, _geometry(TWO_SETS))
    assert [[line for _, line in pairs] for pairs in spans[:4]] == [
        [0, 1], [1, 2], [2, 3], [3, 4],
    ]
    assert _lines_per_set(
        compressed, _geometry(TWO_SETS), {0, 1, 2, 3}
    ) == {0: 3, 1: 2}
    trace = [1, 0, 3, 2, 1, 3, 0, 2, 2, 1, 3, 0, 0, 2]
    _assert_matches_reference(
        compressed, trace, [TWO_SETS, (128, 2, 16)],
        ("base", "tailored", "compressed"), l0_capacities=(1, 32),
    )


def test_hybrid_cold_blocks_probe_l0_before_a_partly_evicting_l1(
    sweep_images,
):
    # Cold blocks 0/2/4 (12, 9 and 5 ops) probe the L0 and thrash the
    # even set; hot blocks 1/3 bypass the L0 and sit in the odd set,
    # which never evicts.  Only the L0's misses may touch the L1.
    like = sweep_images["compressed"]
    compressed = _laid_out(like, [16] * 5)
    compressed.tags = [
        ("compressed", "tailored")[block % 2]
        for block in range(len(like.image))
    ]
    trace = [0, 2, 0, 4, 1, 0, 2, 4, 3, 2, 0, 4, 4, 0, 1, 2, 2, 0, 3, 4]
    assert _lines_per_set(
        compressed, _geometry(TWO_SETS), trace
    ) == {0: 3, 1: 2}
    batch = _assert_matches_reference(
        compressed, trace * 2, [TWO_SETS], ("hybrid",),
        l0_capacities=(4, 12, 16, 26),
    )
    assert all(m.buffer_hits for m in batch[1:])
    cold = 2 * sum(block % 2 == 0 for block in trace)
    assert all(m.buffer_hits + m.buffer_misses == cold for m in batch)


def test_bus_flips_follow_interleaved_first_touch_and_replayed_misses(
    sweep_images,
):
    # One line per block: blocks 0/2/4 thrash the even set, blocks 1/3
    # miss once each in the odd set, between the even set's misses.
    compressed = _laid_out(sweep_images["compressed"], [16] * 5)
    trace = [0, 1, 2, 4, 3, 0, 2, 4, 1, 0, 3, 4]
    batch = _assert_matches_reference(
        compressed, trace, [TWO_SETS], ("base", "compressed"),
        l0_capacities=(1,), bus_widths=(4, 16),
    )
    # Even-set misses at positions 0, 2, 3, 5, 6, 7 and 9; the odd
    # set's first touches at 1 and 4.
    assert batch[0].cache_misses == 9


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
    reset_metrics()
    found = [
        study.fetch_metrics(scheme)
        for scheme in ("base", "tailored", "compressed")
    ]
    assert found == swept
    assert REPORT.stage("fetch").hits == 3
    assert REPORT.stage("fetch").misses == 0


# ---------------------------------------------------------- replay state
@pytest.mark.parametrize("kind", ["list", "B", "H"])
def test_replay_state_counts_and_first_positions(kind):
    blocks = [3, 1, 3, 0, 1, 1, 4, 3]
    trace = list(blocks) if kind == "list" else array(kind, blocks)
    replay = TraceReplay(trace)
    assert replay.counts == {3: 3, 1: 3, 0: 1, 4: 1}
    assert list(replay.first_at.items()) == [(3, 0), (1, 1), (0, 3), (4, 6)]


def test_replay_state_of_another_trace_is_refused(sweep_images):
    config = FetchConfig.for_scheme("base", scaled=True)
    with pytest.raises(ValueError, match="another trace"):
        simulate_fetch(
            sweep_images["base"], [0, 1], config,
            replay=TraceReplay([0, 1]),
        )


@pytest.fixture
def counted_predictor(monkeypatch):
    """Count the engine's predictor passes."""
    import repro.fetch.sweep as sweep_module

    calls = []
    component = sweep_module._predictor_component

    def counting(*args, **kwargs):
        calls.append(args[-2])  # the predictor name
        return component(*args, **kwargs)

    monkeypatch.setattr(sweep_module, "_predictor_component", counting)
    return calls


@pytest.fixture
def no_store():
    """No store and no in-process study state: every fetch computes."""
    saved = runtime.runtime_config()
    clear_caches()
    runtime.configure(enabled=False)
    yield
    clear_caches()
    runtime.set_runtime_config(saved)


def test_study_organizations_share_one_predictor_pass(
    no_store, counted_predictor
):
    study = study_for("compress", 2)
    found = {scheme: study.fetch_metrics(scheme) for scheme in SCHEMES}
    assert counted_predictor == ["block"]
    trace = study.run.block_trace
    for scheme, metrics in found.items():
        assert metrics == simulate_fetch(
            study.compressed(fetch_image_key(scheme)), trace,
            FetchConfig.for_scheme(scheme, scaled=True),
        )


def test_sweep_on_a_warmed_study_runs_no_predictor_pass(
    no_store, counted_predictor
):
    grid = expand_grid(**DESIGN_GRID)
    first = run_sweep("compress", grid, scale=2)
    assert sorted(counted_predictor) == ["block", "gshare"]
    counted_predictor.clear()
    assert run_sweep("compress", grid, scale=2) == first
    assert counted_predictor == []


def test_warm_store_fetch_builds_no_replay_state(fresh_store):
    study_for("compress", 2).fetch_metrics("base")
    clear_caches()
    study = study_for("compress", 2)
    reset_metrics()
    study.fetch_metrics("base")
    assert REPORT.stage("fetch").hits == 1
    assert study._replay is None
    # A computed fetch makes it.
    study.fetch_metrics("base", FetchConfig.for_scheme("base"))
    assert study._replay is not None


def test_replay_state_holds_nothing_per_position(no_store):
    study = study_for("compress", 2)
    for scheme in SCHEMES:
        study.fetch_metrics(scheme)
    run_sweep("compress", expand_grid(**DESIGN_GRID), scale=2)
    nblocks = len(study.compiled.image)
    replay = study.replay
    assert len(study.run.block_trace) > nblocks
    assert replay.trace is study.run.block_trace
    containers = {
        name: value for name, value in vars(replay).items()
        if name != "trace"
    }
    assert {"counts", "first_at", "predictions"} <= set(containers)
    for name, value in containers.items():
        assert len(value) <= nblocks, name


# ----------------------------------------------------------- stage seconds
def test_nested_stages_are_not_counted_twice(fresh_store):
    """A cold fetch emulates and compresses inside its compute; each
    stage reports only its own time, so they sum to at most the wall
    time of the call."""
    runtime.configure(enabled=False)
    study = study_for("compress", 2)
    reset_metrics()
    started = time.perf_counter()
    study.fetch_metrics("compressed")
    wall = time.perf_counter() - started
    assert {"compile", "trace", "compress", "fetch"} <= set(REPORT.stages)
    assert sum(m.seconds for m in REPORT.stages.values()) <= wall


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
    reset_metrics()
    run_sweep("compress", grid, scale=2)
    fetch = REPORT.stage("fetch")
    assert fetch.misses == len(grid)
    assert fetch.seconds >= 0.2


@pytest.mark.parametrize("enabled", [True, False], ids=["store", "no-store"])
def test_pooled_sweep_chunks_record_their_own_misses(
    fresh_store, monkeypatch, enabled
):
    """Each chunk's task computes, stores and records its own fetch
    misses; the parent records none, and holds no fetch clock open
    around the pool."""
    from repro.runtime import scheduler

    grid = expand_grid(**DESIGN_GRID)
    runtime.configure(enabled=False)
    inline = run_sweep("compress", grid, scale=2)
    clear_caches()
    runtime.configure(enabled=enabled)
    chunks, payloads = [], []
    execute = scheduler.execute_tasks

    def recording(tasks, **kwargs):
        chunks.extend(len(task.call.args[-1]) for task in tasks)
        return execute(tasks, **kwargs)

    monkeypatch.setattr(scheduler, "execute_tasks", recording)
    monkeypatch.setattr(REPORT, "merge_json", payloads.append)
    reset_metrics()
    assert run_sweep("compress", grid, scale=2, jobs=2) == inline
    assert len(payloads) == len(chunks) > 1
    assert REPORT.stage("fetch").misses == 0
    misses = [payload["stages"]["fetch"]["misses"] for payload in payloads]
    assert sorted(misses) == sorted(chunks)
    assert sum(misses) == len(grid)
