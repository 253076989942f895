"""Exactness oracles for the static-bounds fixpoints and their CFG.

``block_frequencies`` runs its Gauss–Seidel sweeps over inflow rows
built once per call, and the cache-bound solver runs the must and the
may problem on two worklists of one shared reverse-postorder
numbering.  ``interprocedural_cfg`` builds the graph both walk in one
pass over each block's ops.  Each is compared here against the
implementation it replaced, copied verbatim below as an oracle:
frequencies must be ``float.hex``-equal with equal keys in equal order,
the solver's ``(in_must, in_may)`` states equal, and the CFGs equal
with equal key and successor order.
"""

from __future__ import annotations

import random
from heapq import heappop, heappush
from typing import Dict, List, Optional, Sequence, Tuple
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.cachebound import (
    BOUND_SCHEMES,
    Access,
    State,
    _graph,
    _join,
    _line_accesses,
    _solve,
    _transfer,
)
from repro.analysis.dataflow import predecessors, reverse_postorder
from repro.analysis.freq import (
    EPSILON,
    FREQUENCY_CLAMP,
    MAX_ITERATIONS,
    block_frequencies,
    branch_probabilities,
)
from repro.analysis.imagecfg import (
    image_cfg,
    interprocedural_cfg,
    return_continuations,
)
from repro.analysis.loops import irreducible_edges
from repro.analysis.verifier import corrupt_branch_target
from repro.core.study import study_for
from repro.fetch.config import FetchConfig, fetch_image_key
from repro.fetch.sweep import block_costs, block_span_pairs
from repro.isa.image import BasicBlockImage, ProgramImage
from repro.isa.multiop import MultiOp
from repro.isa.opcodes import Opcode
from repro.isa.operation import Operation
from repro.isa.registers import gpr
from repro.programs.suite import BENCHMARK_NAMES

Cfg = Dict[int, Sequence[int]]
Edge = Tuple[int, int]


# ---------------------------------------------------------------- oracles
def oracle_block_frequencies(
    cfg: Cfg,
    entry: int,
    probabilities: Optional[Dict[Edge, float]] = None,
) -> Dict[int, float]:
    if probabilities is None:
        probabilities = branch_probabilities(cfg, entry)
    order = reverse_postorder(cfg, entry)
    preds = predecessors(cfg)
    freq = {block: 0.0 for block in order}
    freq[entry] = 1.0
    for _ in range(MAX_ITERATIONS):
        delta = 0.0
        for block in order:
            inflow = 1.0 if block == entry else 0.0
            for pred in preds.get(block, ()):
                prob = probabilities.get((pred, block))
                if prob is not None and pred in freq:
                    inflow += freq[pred] * prob
            inflow = min(inflow, FREQUENCY_CLAMP)
            delta = max(delta, abs(inflow - freq[block]))
            freq[block] = inflow
        if delta <= EPSILON:
            break
    return freq


def oracle_solve(
    cfg: Dict[int, Sequence[int]],
    entry: int,
    accesses: Sequence[Tuple[Access, ...]],
    skippable: Sequence[bool],
    ways: int,
) -> Tuple[Dict[int, State], Dict[int, State]]:
    order = reverse_postorder(cfg, entry)
    rank = {node: index for index, node in enumerate(order)}
    preds = predecessors(cfg)
    cold: State = (0,) * ways
    out_must: Dict[int, State] = {}
    out_may: Dict[int, State] = {}
    in_must: Dict[int, State] = {}
    in_may: Dict[int, State] = {}
    work = [0]
    queued = {0}
    while work:
        index = heappop(work)
        queued.discard(index)
        node = order[index]
        must = may = cold if node == entry else None
        for pred in preds[node]:
            if pred in out_must:
                if must is None:
                    must, may = out_must[pred], out_may[pred]
                else:
                    must = _join(must, out_must[pred], True)
                    may = _join(may, out_may[pred], False)
        in_must[node] = must
        in_may[node] = may
        new_must = _transfer(must, accesses[node], skippable[node], True)
        new_may = _transfer(may, accesses[node], skippable[node], False)
        if out_must.get(node) != new_must or out_may.get(node) != new_may:
            out_must[node] = new_must
            out_may[node] = new_may
            for succ in cfg[node]:
                succ_index = rank[succ]
                if succ_index not in queued:
                    queued.add(succ_index)
                    heappush(work, succ_index)
    return in_must, in_may


def oracle_interprocedural_cfg(image: ProgramImage) -> Dict[int, List[int]]:
    cfg = image_cfg(image)
    for ret_block, conts in return_continuations(image).items():
        succs = cfg[ret_block]
        for cont in conts:
            if cont not in succs:
                succs.append(cont)
    return cfg


# ---------------------------------------------------------------- helpers
#: The oracles' module namespace, where a test can move their constants.
ORACLE_GLOBALS = oracle_block_frequencies.__globals__


def hexed(frequencies: Dict[int, float]):
    return [(block, value.hex()) for block, value in frequencies.items()]


def assert_frequencies_exact(cfg, entry, probabilities=None):
    expected = oracle_block_frequencies(cfg, entry, probabilities)
    assert hexed(block_frequencies(cfg, entry, probabilities)) == hexed(
        expected
    )
    return expected


@pytest.fixture(scope="module")
def suite_cfgs():
    return {
        name: (
            interprocedural_cfg(study_for(name, 1).compiled.image),
            study_for(name, 1).compiled.image.entry_block,
        )
        for name in BENCHMARK_NAMES
    }


@st.composite
def digraphs(draw, max_nodes=9):
    """Random CFGs with entry 0: loops, irreducible regions and blocks
    unreachable from the entry (whose edges into reachable blocks make
    unreachable predecessors) all occur."""
    n = draw(st.integers(min_value=1, max_value=max_nodes))
    return {
        node: draw(
            st.lists(
                st.integers(min_value=0, max_value=n - 1),
                max_size=3,
                unique=True,
            )
        )
        for node in range(n)
    }


# --------------------------------------------------------- frequencies
@pytest.mark.parametrize("name", BENCHMARK_NAMES)
def test_suite_frequencies_are_bit_identical(suite_cfgs, name):
    cfg, entry = suite_cfgs[name]
    expected = assert_frequencies_exact(cfg, entry)
    assert len(expected) > 10


def test_self_loop_reaching_the_clamp():
    # 1 -> 1 at probability 1.0 plus a 1 <-> 2 cycle: each sweep adds
    # more than it did the sweep before, so 1 and 2 hit the clamp.
    cfg = {0: [1], 1: [1, 2], 2: [1, 3], 3: []}
    probabilities = {(0, 1): 1.0, (1, 1): 1.0, (1, 2): 1.0, (2, 1): 1.0,
                     (2, 3): 0.5}
    expected = assert_frequencies_exact(cfg, 0, probabilities)
    assert expected[1] == expected[2] == FREQUENCY_CLAMP


def test_dag_converges_before_the_iteration_cap():
    cfg = {0: [1, 2], 1: [3], 2: [3, 4], 3: [4], 4: []}
    expected = assert_frequencies_exact(cfg, 0)
    # In reverse postorder one sweep settles a DAG, so the second
    # sweep's delta is 0 and the loop breaks there.
    with mock.patch.dict(ORACLE_GLOBALS, MAX_ITERATIONS=2):
        assert hexed(oracle_block_frequencies(cfg, 0)) == hexed(expected)
    assert expected[4] == 1.0


def test_loop_converging_early_stops_on_the_same_sweep():
    # The 0.5-probability loop meets EPSILON after a few dozen sweeps;
    # running all MAX_ITERATIONS would end on different floats, so
    # equality here pins the stopping sweep too.
    cfg = {0: [1], 1: [2], 2: [1, 3], 3: []}
    probabilities = {(0, 1): 1.0, (1, 2): 1.0, (2, 1): 0.5, (2, 3): 0.5}
    expected = assert_frequencies_exact(cfg, 0, probabilities)
    with mock.patch.dict(ORACLE_GLOBALS, EPSILON=-1.0):
        exhausted = oracle_block_frequencies(cfg, 0, probabilities)
    assert hexed(exhausted) != hexed(expected)


def test_unreachable_predecessors_are_skipped():
    # 3 is unreachable but feeds 1 and 2; its edge probabilities exist.
    cfg = {0: [1], 1: [2], 2: [1, 4], 3: [1, 2], 4: []}
    probabilities = branch_probabilities(cfg, 0)
    probabilities.update({(3, 1): 0.5, (3, 2): 0.5})
    expected = assert_frequencies_exact(cfg, 0, probabilities)
    assert 3 not in expected


def test_irreducible_loop():
    cfg = {0: [1, 2], 1: [2, 3], 2: [1, 3], 3: []}
    assert irreducible_edges(cfg, 0)
    assert_frequencies_exact(cfg, 0)


@settings(max_examples=200, deadline=None)
@given(
    cfg=digraphs(),
    data=st.data(),
)
def test_random_graphs_are_bit_identical(cfg, data):
    probabilities = None
    if data.draw(st.booleans()):
        # Missing edges, probability-1.0 loops and masses above one.
        probabilities = {}
        for u, succs in cfg.items():
            for v in succs:
                prob = data.draw(
                    st.sampled_from([None, 0.1, 0.3, 0.5, 0.9, 1.0, 1.5])
                )
                if prob is not None:
                    probabilities[(u, v)] = prob
    assert_frequencies_exact(cfg, 0, probabilities)


# ----------------------------------------------------------------- solver
def assert_solve_exact(cfg, entry, accesses, skippable, ways):
    expected = oracle_solve(cfg, entry, accesses, skippable, ways)
    assert _solve(_graph(cfg, entry), accesses, skippable, ways) == expected


@pytest.mark.parametrize("name", BENCHMARK_NAMES)
def test_suite_standard_configs_solve_exactly(suite_cfgs, name):
    """Both structures of every bounded organization, standard config."""
    cfg, entry = suite_cfgs[name]
    study = study_for(name, 1)
    nblocks = len(study.compiled.image)
    for scheme in BOUND_SCHEMES:
        compressed = study.compressed(fetch_image_key(scheme))
        config = FetchConfig.for_scheme(scheme, scaled=True)
        span_pairs = block_span_pairs(compressed, config.cache)
        l0_fits = block_costs(compressed, config, span_pairs).l0_fits
        assert_solve_exact(
            cfg, entry, _line_accesses(span_pairs), l0_fits,
            config.cache.ways,
        )
        atb_mask = config.atb_entries // config.atb_ways - 1
        assert_solve_exact(
            cfg,
            entry,
            _line_accesses(
                [((bid & atb_mask, bid),) for bid in range(nblocks)]
            ),
            [False] * nblocks,
            config.atb_ways,
        )


@pytest.mark.parametrize("ways", [1, 2, 4])
@pytest.mark.parametrize("name", BENCHMARK_NAMES)
def test_suite_spans_with_random_skippable_flags(suite_cfgs, name, ways):
    cfg, entry = suite_cfgs[name]
    study = study_for(name, 1)
    config = FetchConfig.for_scheme("compressed", scaled=True)
    span_pairs = block_span_pairs(
        study.compressed(fetch_image_key("compressed")), config.cache
    )
    rng = random.Random(f"{name}/{ways}")
    skippable = [rng.random() < 0.4 for _ in span_pairs]
    assert_solve_exact(
        cfg, entry, _line_accesses(span_pairs), skippable, ways
    )


@settings(max_examples=200, deadline=None)
@given(cfg=digraphs(), ways=st.sampled_from([1, 2, 4]), data=st.data())
def test_random_graphs_solve_exactly(cfg, ways, data):
    n = len(cfg)
    sets = data.draw(st.sampled_from([1, 2]))
    pairs = [
        [
            (line % sets, line)
            for line in data.draw(
                st.lists(st.integers(0, 7), max_size=3, unique=True)
            )
        ]
        for _ in range(n)
    ]
    skippable = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
    assert_solve_exact(cfg, 0, _line_accesses(pairs), skippable, ways)


# -------------------------------------------------------------------- CFG
def assert_cfg_exact(image):
    cfg = interprocedural_cfg(image)
    expected = oracle_interprocedural_cfg(image)
    assert list(cfg.items()) == list(expected.items())


@pytest.mark.parametrize("name", BENCHMARK_NAMES)
def test_suite_cfgs_match_the_old_composition(name):
    image = study_for(name, 1).compiled.image
    assert_cfg_exact(image)
    assert_cfg_exact(corrupt_branch_target(image))


@st.composite
def images(draw, max_blocks=8):
    """Small images of branches, calls, returns and plain ops over three
    functions.  After construction some targets and fallthroughs are
    moved off the map, as ``corrupt_branch_target`` does."""
    n = draw(st.integers(1, max_blocks))
    target = st.integers(0, n - 1)
    op = st.one_of(
        st.builds(lambda t: Operation(Opcode.BR, target_block=t), target),
        st.builds(lambda t: Operation(Opcode.CALL, target_block=t), target),
        st.just(Operation(Opcode.RET)),
        st.just(Operation(Opcode.MOV, dest=gpr(1), src1=gpr(2))),
    )
    blocks = []
    for block_id in range(n):
        mops = draw(
            st.lists(
                st.lists(op, min_size=1, max_size=3).map(MultiOp.of),
                min_size=1,
                max_size=3,
            )
        )
        blocks.append(
            BasicBlockImage(
                block_id,
                f"b{block_id}",
                tuple(mops),
                fallthrough=draw(st.one_of(st.none(), target)),
                function=draw(st.sampled_from("fgh")),
            )
        )
    image = ProgramImage("random", blocks)
    off_map = st.sampled_from([n, n + 3, -1])
    for block in image:
        if draw(st.integers(0, 5)) == 0:
            block.fallthrough = draw(off_map)
        for mop in block.mops:
            for branch in mop.ops:
                if branch.target_block is not None and not draw(
                    st.integers(0, 5)
                ):
                    branch.target_block = draw(st.one_of(st.none(), off_map))
    return image


@settings(max_examples=300, deadline=None)
@given(image=images())
def test_random_images_match_the_old_composition(image):
    assert_cfg_exact(image)
