"""Exactness oracles for the static-bounds fixpoints and their CFG.

``block_frequencies`` runs its Gauss–Seidel sweeps over inflow rows
built from the graph's rank-indexed predecessor rows, and the
cache-bound solver runs the must and the may problem on two worklists
of the same reverse-postorder numbering.  ``ImageGraph`` builds the
successors, the RET-continuation map, the function entries and the
closed CFG in one walk over each block's ops, and ``FlowGraph`` finds
natural loops and irreducible edges on its numbering.  Each is
compared here against the implementation it replaced, copied verbatim
below as an oracle: frequencies must be ``float.hex``-equal with equal
keys in equal order, the solver's ``(in_must, in_may)`` states equal,
the graphs equal with equal key and successor order, and the loops
and edges equal.
"""

from __future__ import annotations

import random
from heapq import heappop, heappush
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.cachebound import (
    BOUND_SCHEMES,
    Access,
    State,
    _join,
    _line_accesses,
    _solve,
    _transfer,
)
from repro.analysis.dataflow import (
    dominators,
    predecessors,
    reachable,
    reverse_postorder,
)
from repro.analysis.freq import (
    EPSILON,
    FREQUENCY_CLAMP,
    MAX_ITERATIONS,
    block_frequencies,
)
from repro.analysis.graph import FlowGraph, ImageGraph
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
        probabilities = FlowGraph(cfg, entry).probabilities
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


def block_successors(
    image: ProgramImage, block: BasicBlockImage
) -> List[int]:
    """Static successor block ids, in fetch-preference order.

    Branch/call targets first, the fallthrough continuation last;
    duplicates collapse (a conditional branch targeting its own
    fallthrough contributes one edge).  Out-of-range targets are
    dropped — the branch-target rule reports them; the graph stays
    well-formed for the other analyses either way.
    """
    n = len(image)
    succs: List[int] = []
    for op in block.ops:
        if op.target_block is None:
            continue
        if op.opcode in (Opcode.BR, Opcode.CALL):
            target = op.target_block
            if 0 <= target < n and target not in succs:
                succs.append(target)
    ft = block.fallthrough
    if ft is not None and 0 <= ft < n and ft not in succs:
        succs.append(ft)
    return succs


def image_cfg(image: ProgramImage) -> Dict[int, List[int]]:
    """``{block_id: [successor block ids]}`` over the whole image."""
    return {
        block.block_id: block_successors(image, block) for block in image
    }


def return_continuations(image: ProgramImage) -> Dict[int, List[int]]:
    """``{ret_block_id: [continuation block ids]}`` for every RET block.

    A RET in function ``f`` may resume at the fallthrough continuation
    of *any* call site whose target lies in ``f`` — the static
    over-approximation of the return stack.  Used to close the image CFG
    over procedure boundaries: a graph missing these edges under-counts
    paths, which would make must/may cache facts unsound.
    """
    n = len(image)
    # Function owning each possible callee-entry block.
    owner = {block.block_id: block.function for block in image}
    # function name -> continuation blocks of calls into it.
    continuations: Dict[str, List[int]] = {}
    for block in image:
        for op in block.ops:
            if op.opcode is not Opcode.CALL or op.target_block is None:
                continue
            target = op.target_block
            ft = block.fallthrough
            if not (0 <= target < n) or ft is None or not (0 <= ft < n):
                continue
            conts = continuations.setdefault(owner[target], [])
            if ft not in conts:
                conts.append(ft)
    result: Dict[int, List[int]] = {}
    for block in image:
        if any(op.opcode is Opcode.RET for op in block.ops):
            result[block.block_id] = list(
                continuations.get(block.function, ())
            )
    return result


def function_entries(image: ProgramImage) -> Dict[str, int]:
    """First (entry) block id of each function, in layout order."""
    entries: Dict[str, int] = {}
    for block in image:
        if block.function not in entries:
            entries[block.function] = block.block_id
    return entries


def oracle_interprocedural_cfg(image: ProgramImage) -> Dict[int, List[int]]:
    cfg = image_cfg(image)
    for ret_block, conts in return_continuations(image).items():
        succs = cfg[ret_block]
        for cont in conts:
            if cont not in succs:
                succs.append(cont)
    return cfg


def back_edges(cfg: Cfg, entry: int) -> List[Edge]:
    """Edges ``u -> v`` where ``v`` dominates ``u`` (loop back edges).

    Only edges between reachable blocks qualify; the result is sorted
    for determinism.
    """
    doms = dominators(cfg, entry)
    edges: List[Edge] = []
    for u, succs in cfg.items():
        if u not in doms:
            continue
        for v in succs:
            if v in doms.get(u, frozenset()):
                edges.append((u, v))
    edges.sort()
    return edges


def natural_loop(
    cfg: Cfg, tail: int, header: int, *, entry: Optional[int] = None
) -> FrozenSet[int]:
    """Body of the natural loop of back edge ``tail -> header``.

    The header plus every block that reaches ``tail`` without passing
    through the header (standard backward walk over predecessors).
    When ``entry`` is given, the walk stays inside the reachable
    subgraph — an unreachable block with an edge into the loop must
    not join the body (no execution ever runs it).
    """
    preds = predecessors(cfg)
    live = reachable(cfg, entry) if entry is not None else None
    body = {header, tail}
    stack = [tail] if tail != header else []
    while stack:
        block = stack.pop()
        for pred in preds.get(block, ()):
            if pred in body:
                continue
            if live is not None and pred not in live:
                continue
            body.add(pred)
            stack.append(pred)
    return frozenset(body)


def oracle_loops(cfg: Cfg, entry: int) -> List[Tuple[int, FrozenSet[int]]]:
    """``loops.loops`` as ``(header, body)`` pairs."""
    bodies: Dict[int, set] = {}
    for tail, header in back_edges(cfg, entry):
        bodies.setdefault(header, set()).update(
            natural_loop(cfg, tail, header, entry=entry)
        )
    return [
        (header, frozenset(body))
        for header, body in sorted(bodies.items())
    ]


def irreducible_edges(cfg: Cfg, entry: int) -> List[Edge]:
    """DFS retreating edges that are *not* dominator back edges.

    A non-empty result means some cycle has multiple entries
    (irreducible control flow): its blocks still appear in the
    frequency fixpoint, but loop-nest depths around it are heuristic.
    Deterministic: DFS visits successors in their stored order.
    """
    dom_backs = set(back_edges(cfg, entry))
    retreating: List[Edge] = []
    # Iterative DFS with colors: 0 unvisited, 1 on stack, 2 done.
    color = {block: 0 for block in cfg}
    if entry not in color:
        return []
    stack: List[Tuple[int, int]] = [(entry, 0)]
    color[entry] = 1
    while stack:
        node, index = stack[-1]
        succs = cfg.get(node, ())
        if index < len(succs):
            stack[-1] = (node, index + 1)
            succ = succs[index]
            state = color.get(succ)
            if state == 0:
                color[succ] = 1
                stack.append((succ, 0))
            elif state == 1 and (node, succ) not in dom_backs:
                retreating.append((node, succ))
        else:
            color[node] = 2
            stack.pop()
    retreating.sort()
    return retreating


# ---------------------------------------------------------------- helpers
#: The oracles' module namespace, where a test can move their constants.
ORACLE_GLOBALS = oracle_block_frequencies.__globals__


def hexed(frequencies: Dict[int, float]):
    return [(block, value.hex()) for block, value in frequencies.items()]


def assert_frequencies_exact(cfg, entry, probabilities=None):
    expected = oracle_block_frequencies(cfg, entry, probabilities)
    graph = FlowGraph(cfg, entry)
    if probabilities is None:
        actual = graph.frequencies
    else:
        actual = block_frequencies(graph, probabilities)
    assert hexed(actual) == hexed(expected)
    return expected


@pytest.fixture(scope="module")
def suite_cfgs():
    return {
        name: (
            ImageGraph(study_for(name, 1).compiled.image).cfg,
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
    probabilities = dict(FlowGraph(cfg, 0).probabilities)
    probabilities.update({(3, 1): 0.5, (3, 2): 0.5})
    expected = assert_frequencies_exact(cfg, 0, probabilities)
    assert 3 not in expected


def test_irreducible_loop():
    cfg = {0: [1, 2], 1: [2, 3], 2: [1, 3], 3: []}
    assert FlowGraph(cfg, 0).irreducible_edges
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
    assert _solve(FlowGraph(cfg, entry), accesses, skippable, ways) == expected


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


# ------------------------------------------------------------------ loops
def assert_loops_exact(cfg, entry):
    graph = FlowGraph(cfg, entry)
    assert graph.back_edges == back_edges(cfg, entry)
    assert [(loop.header, loop.body) for loop in graph.loops] == (
        oracle_loops(cfg, entry)
    )
    assert graph.irreducible_edges == irreducible_edges(cfg, entry)


@pytest.mark.parametrize("name", BENCHMARK_NAMES)
def test_suite_loops_match_the_old_walks(suite_cfgs, name):
    assert_loops_exact(*suite_cfgs[name])


@settings(max_examples=300, deadline=None)
@given(cfg=digraphs())
def test_random_graph_loops_match_the_old_walks(cfg):
    assert_loops_exact(cfg, 0)


# -------------------------------------------------------------------- CFG
def assert_cfg_exact(image):
    """The one walk against each moved oracle, in key and list order."""
    graph = ImageGraph(image)
    for actual, expected in (
        (graph.successors, image_cfg(image)),
        (graph.returns, return_continuations(image)),
        (graph.entries, function_entries(image)),
        (graph.cfg, oracle_interprocedural_cfg(image)),
    ):
        assert list(actual.items()) == list(expected.items())


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
