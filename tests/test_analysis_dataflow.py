"""The generic dataflow solver, against brute-force oracles.

The Hypothesis properties pit the worklist solver against independent
re-implementations on randomized digraphs — including graphs with
unreachable nodes, self loops and critical edges — so a solver bug
cannot hide behind the analyses' own assumptions:

* dominators vs the node-removal oracle (``d`` dominates ``n`` iff
  removing ``d`` disconnects ``n`` from the entry);
* liveness vs a naive round-robin fixed point (the pre-refactor
  algorithm of :mod:`repro.compiler.liveness`, kept inline here);
* every direction × meet, with boundary facts and a universe, vs a
  round-robin fixed point over ``frozenset``s — and the int-mask entry
  :func:`solve_masks` vs the ``frozenset`` :func:`solve` on the same
  problem;
* definite assignment vs an avoid-the-generators reachability oracle;
* reverse postorder vs a recursive depth-first search.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.dataflow import (
    definitely_assigned,
    dominators,
    live_variables,
    predecessors,
    reachable,
    reaching_definitions,
    reverse_postorder,
    solve,
    solve_masks,
)
from repro.errors import AnalysisError

# ------------------------------------------------------------ strategies
MAX_NODES = 7
FACTS = ("a", "b", "c")


@st.composite
def digraphs(draw):
    """A random ``{node: [succs]}`` digraph over ``0..n-1``."""
    n = draw(st.integers(min_value=1, max_value=MAX_NODES))
    cfg = {}
    for node in range(n):
        succs = draw(
            st.lists(
                st.integers(min_value=0, max_value=n - 1),
                max_size=3,
                unique=True,
            )
        )
        cfg[node] = succs
    return cfg


@st.composite
def digraphs_with_facts(draw):
    cfg = draw(digraphs())
    sets = {
        node: set(
            draw(st.lists(st.sampled_from(FACTS), max_size=2, unique=True))
        )
        for node in cfg
    }
    return cfg, sets


@st.composite
def problems(draw):
    """A digraph with gen/kill/boundary sets and a universe holding
    every gen and boundary fact (so a must solve starts at the top)."""
    cfg = draw(digraphs())

    def sets():
        return {
            node: frozenset(
                draw(st.lists(st.sampled_from(FACTS), max_size=2, unique=True))
            )
            for node in cfg
        }

    gen, kill, boundary = sets(), sets(), sets()
    extra = draw(st.sets(st.sampled_from(FACTS + ("d",))))
    universe = frozenset(extra).union(*gen.values(), *boundary.values())
    return cfg, gen, kill, boundary, universe


# ------------------------------------------------------------ the oracles
def _dominates_oracle(cfg, entry, d, n):
    """d dom n iff every entry->n path passes through d."""
    if d == n:
        return True
    if d == entry:
        return True
    # BFS from entry avoiding d; if n is still reachable, d does not
    # dominate it.
    seen = {entry}
    stack = [entry]
    while stack:
        node = stack.pop()
        if node == n:
            return False
        for succ in cfg[node]:
            if succ != d and succ not in seen:
                seen.add(succ)
                stack.append(succ)
    return True


def _liveness_oracle(cfg, use, deff):
    """The pre-refactor round-robin fixed point, kept independent."""
    live_in = {n: set() for n in cfg}
    live_out = {n: set() for n in cfg}
    changed = True
    while changed:
        changed = False
        for node in cfg:
            out = set()
            for succ in cfg[node]:
                out |= live_in[succ]
            new_in = use[node] | (out - deff[node])
            if out != live_out[node] or new_in != live_in[node]:
                live_out[node] = out
                live_in[node] = new_in
                changed = True
    return live_in, live_out


def _roundrobin_oracle(cfg, gen, kill, boundary, universe, forward, may):
    """Any direction and meet: sweep every node until nothing changes,
    returning ``(before, after)`` in program order."""
    preds = {node: [] for node in cfg}
    for node, succs in cfg.items():
        for succ in succs:
            preds[succ].append(node)
    feeders = preds if forward else cfg
    out = {node: frozenset() if may else universe for node in cfg}
    met = {}
    changed = True
    while changed:
        changed = False
        for node in cfg:
            ins = [out[other] for other in feeders[node]]
            if not ins:
                acc = frozenset()
            elif may:
                acc = frozenset().union(*ins)
            else:
                acc = ins[0].intersection(*ins[1:])
            acc |= boundary[node]
            new_out = gen[node] | (acc - kill[node])
            if met.get(node) != acc or out[node] != new_out:
                met[node], out[node] = acc, new_out
                changed = True
    return (met, out) if forward else (out, met)


def _assigned_oracle(cfg, entry, gen, seed, fact):
    """Nodes whose entry is *missing* ``fact``: reachable from the
    entry along paths whose earlier nodes never generate it."""
    missing = set()
    if fact not in seed:
        missing.add(entry)
        stack = [entry]
        while stack:
            node = stack.pop()
            if fact in gen[node]:
                continue  # paths through this node acquire the fact
            for succ in cfg[node]:
                if succ not in missing:
                    missing.add(succ)
                    stack.append(succ)
    return missing


def _retreating_edges_oracle(cfg, entry):
    """Edges into a node still on the stack of a recursive DFS that
    explores successors in list order."""
    on_stack, seen, retreating = set(), {entry}, set()

    def visit(node):
        on_stack.add(node)
        for succ in cfg[node]:
            if succ in on_stack:
                retreating.add((node, succ))
            elif succ not in seen:
                seen.add(succ)
                visit(succ)
        on_stack.discard(node)

    visit(entry)
    return retreating


# ------------------------------------------------------------- properties
@settings(max_examples=80, deadline=None)
@given(digraphs())
def test_reverse_postorder_orders_the_reachable_nodes(cfg):
    order = reverse_postorder(cfg, 0)
    assert order[0] == 0
    assert len(order) == len(set(order))
    assert set(order) == reachable(cfg, 0)
    rank = {node: index for index, node in enumerate(order)}
    retreating = _retreating_edges_oracle(cfg, 0)
    for node in order:
        for succ in cfg[node]:
            if (node, succ) not in retreating:
                assert rank[node] < rank[succ], (cfg, order, node, succ)


@settings(max_examples=40, deadline=None)
@given(digraphs())
def test_reverse_postorder_ignores_node_insertion_order(cfg):
    shuffled = {node: list(cfg[node]) for node in reversed(list(cfg))}
    assert reverse_postorder(shuffled, 0) == reverse_postorder(cfg, 0)


@settings(max_examples=80, deadline=None)
@given(digraphs())
def test_dominators_match_path_enumeration_oracle(cfg):
    entry = 0
    doms = dominators(cfg, entry)
    keep = reachable(cfg, entry)
    assert set(doms) == set(keep)
    for n in keep:
        for d in cfg:
            expected = d in keep and _dominates_oracle(cfg, entry, d, n)
            assert (d in doms[n]) == expected, (cfg, d, n)


@settings(max_examples=80, deadline=None)
@given(digraphs_with_facts(), digraphs_with_facts())
def test_liveness_matches_roundrobin_oracle(graph_use, graph_deff):
    cfg, use = graph_use
    _, deff_raw = graph_deff
    # Align the def sets onto the first graph's node set.
    deff = {n: deff_raw.get(n, set()) for n in cfg}
    result = live_variables(cfg, use, deff)
    live_in, live_out = _liveness_oracle(cfg, use, deff)
    for node in cfg:
        assert set(result.before[node]) == live_in[node]
        assert set(result.after[node]) == live_out[node]


@pytest.mark.parametrize(
    "forward,may",
    [(True, True), (True, False), (False, True), (False, False)],
    ids=["forward-may", "forward-must", "backward-may", "backward-must"],
)
@settings(max_examples=60, deadline=None)
@given(problems())
def test_solver_matches_roundrobin_oracle_in_every_mode(
    forward, may, problem
):
    cfg, gen, kill, boundary, universe = problem
    result = solve(
        cfg, gen=gen, kill=kill, forward=forward, may=may,
        boundary=boundary, universe=universe,
    )
    before, after = _roundrobin_oracle(
        cfg, gen, kill, boundary, universe, forward, may
    )
    assert result.before == before, (cfg, problem)
    assert result.after == after, (cfg, problem)

    # The mask entry on a numbering of the test's own agrees too.
    bits = {fact: 1 << i for i, fact in enumerate(sorted(universe | {
        fact for sets in (gen, kill) for facts in sets.values()
        for fact in facts
    }))}

    def encode(facts):
        return sum(bits[fact] for fact in facts)

    def decode(mask):
        return frozenset(fact for fact, bit in bits.items() if mask & bit)

    masks = solve_masks(
        cfg,
        gen={node: encode(facts) for node, facts in gen.items()},
        kill={node: encode(facts) for node, facts in kill.items()},
        forward=forward,
        may=may,
        boundary={node: encode(facts) for node, facts in boundary.items()},
        universe=encode(universe),
    )
    assert {n: decode(m) for n, m in masks.before.items()} == result.before
    assert {n: decode(m) for n, m in masks.after.items()} == result.after


@settings(max_examples=80, deadline=None)
@given(digraphs_with_facts(), st.sets(st.sampled_from(FACTS)))
def test_definite_assignment_matches_avoidance_oracle(graph, seed):
    cfg, gen = graph
    entry = 0
    result = definitely_assigned(cfg, entry, gen, seed=seed)
    keep = reachable(cfg, entry)
    assert set(result.before) == set(keep)
    for fact in FACTS:
        missing = _assigned_oracle(cfg, entry, gen, seed, fact)
        for node in keep:
            assert (fact not in result.before[node]) == (
                node in missing
            ), (cfg, gen, seed, fact, node)


@settings(max_examples=60, deadline=None)
@given(digraphs())
def test_dominance_is_reflexive_and_entry_dominates_all(cfg):
    doms = dominators(cfg, 0)
    for node, ds in doms.items():
        assert node in ds
        assert 0 in ds


# ------------------------------------------------------------------ units
def test_diamond_dominators():
    cfg = {0: [1, 2], 1: [3], 2: [3], 3: []}
    doms = dominators(cfg, 0)
    assert set(doms[3]) == {0, 3}  # neither arm dominates the join
    assert set(doms[1]) == {0, 1}


def test_unreachable_nodes_are_omitted_from_dominators():
    cfg = {0: [1], 1: [], 2: [1]}  # node 2 unreachable
    doms = dominators(cfg, 0)
    assert 2 not in doms
    assert set(doms[1]) == {0, 1}


def test_diamond_definite_assignment():
    cfg = {0: [1, 2], 1: [3], 2: [3], 3: []}
    one_arm = definitely_assigned(cfg, 0, {1: {"x"}})
    assert "x" not in one_arm.before[3]
    both_arms = definitely_assigned(cfg, 0, {1: {"x"}, 2: {"x"}})
    assert "x" in both_arms.before[3]


def test_seed_facts_hold_everywhere_reachable():
    cfg = {0: [1], 1: [0]}
    result = definitely_assigned(cfg, 0, {}, seed={"sp"})
    assert "sp" in result.before[0]
    assert "sp" in result.before[1]


def test_reaching_definitions_kill_earlier_sites():
    cfg = {0: [1], 1: [2], 2: []}
    defs = {0: [("x", "d0")], 1: [("x", "d1")], 2: []}
    result = reaching_definitions(cfg, defs)
    assert set(result.before[2]) == {("x", "d1")}
    assert set(result.before[1]) == {("x", "d0")}


def test_reaching_definitions_merge_at_joins():
    cfg = {0: [1, 2], 1: [3], 2: [3], 3: []}
    defs = {1: [("x", "d1")], 2: [("x", "d2")]}
    result = reaching_definitions(cfg, defs)
    assert set(result.before[3]) == {("x", "d1"), ("x", "d2")}


def test_predecessors_reject_dangling_edges():
    with pytest.raises(AnalysisError):
        predecessors({0: [7]})


def test_reachable_requires_a_known_entry():
    with pytest.raises(AnalysisError):
        reachable({0: []}, 9)


def test_reverse_postorder_follows_successor_order():
    diamond = {0: [1, 2], 1: [3], 2: [3], 3: []}
    assert reverse_postorder(diamond, 0) == [0, 2, 1, 3]
    swapped = {0: [2, 1], 1: [3], 2: [3], 3: []}
    assert reverse_postorder(swapped, 0) == [0, 1, 2, 3]
    # Node 4 is unreachable; the back edge 3 -> 1 is the only edge
    # pointing backward.
    loop = {0: [1], 1: [2], 2: [3], 3: [1, 5], 4: [2], 5: []}
    assert reverse_postorder(loop, 0) == [0, 1, 2, 3, 5]


def test_reverse_postorder_requires_a_known_entry():
    with pytest.raises(AnalysisError):
        reverse_postorder({0: []}, 9)


def test_must_analysis_requires_a_universe():
    with pytest.raises(AnalysisError):
        solve({0: []}, gen={}, may=False)


def test_backward_result_is_reported_in_program_order():
    # One block using 'x': live-in has it, live-out does not.
    result = live_variables({0: []}, {0: {"x"}}, {0: set()})
    assert set(result.before[0]) == {"x"}
    assert set(result.after[0]) == set()


def test_compiler_liveness_still_matches_on_a_real_function(tiny_program):
    """The refactored analyze_liveness agrees with the inline oracle."""
    from repro.compiler.cfg import build_cfg
    from repro.compiler.liveness import (
        analyze_liveness,
        instr_kills,
        instr_uses,
    )

    prog, _, _ = tiny_program
    func = next(iter(prog.module.functions.values()))
    cfg = build_cfg(func)
    use, deff = {}, {}
    for block in func.blocks:
        upward, killed = set(), set()
        for instr in block.all_instrs():
            for r in instr_uses(instr):
                if r not in killed:
                    upward.add(r)
            killed.update(instr_kills(instr))
        use[block.label] = upward
        deff[block.label] = killed
    live_in, live_out = _liveness_oracle(cfg, use, deff)
    result = analyze_liveness(func)
    assert result.live_in == live_in
    assert result.live_out == live_out
