"""Generic forward/backward dataflow solving over explicit digraphs.

The solver works on the same graph shape :mod:`repro.compiler.cfg`
produces — ``{node: [successor, ...]}`` — but is deliberately agnostic
about what the nodes are: IR block labels, image block ids, or the
synthetic graphs the property tests generate.  A problem is fully
described by its direction, its meet (may = union, must =
intersection) and per-node ``gen``/``kill`` sets, the classical
bit-vector framework.

There is one fixed-point loop, :func:`solve_masks`, and its facts are
Python-int bitmasks: bit ``i`` is the caller's fact number ``i``.
Callers that already number their facts (treegion hoisting numbers
physical registers) call it directly.  :func:`solve` is the
``frozenset`` front end: it numbers any hashable facts once per call,
runs the same loop and decodes the fixed point back to ``frozenset``s.

On top of the solver sit the analyses the verifier and the compiler
share: may-liveness (:func:`live_variables`, which
:mod:`repro.compiler.liveness` now delegates to), dominators
(:func:`dominators`), reaching definitions
(:func:`reaching_definitions`) and definite assignment
(:func:`definitely_assigned`, the engine behind the def-before-use
rules).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import (
    Dict,
    FrozenSet,
    Hashable,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.errors import AnalysisError

Node = Hashable
Fact = Hashable
Digraph = Mapping[Node, Sequence[Node]]


def predecessors(cfg: Digraph) -> Dict[Node, List[Node]]:
    """``{node: [predecessors]}``; every node gets an entry."""
    preds: Dict[Node, List[Node]] = {node: [] for node in cfg}
    for node, succs in cfg.items():
        for succ in succs:
            if succ not in preds:
                raise AnalysisError(
                    f"edge {node!r} -> {succ!r} leaves the graph"
                )
            preds[succ].append(node)
    return preds


def reachable(cfg: Digraph, entry: Node) -> FrozenSet[Node]:
    """Nodes reachable from ``entry`` (including it)."""
    if entry not in cfg:
        raise AnalysisError(f"entry {entry!r} is not a node of the graph")
    seen = {entry}
    stack = [entry]
    while stack:
        for succ in cfg[stack.pop()]:
            if succ not in seen:
                seen.add(succ)
                stack.append(succ)
    return frozenset(seen)


def reverse_postorder(cfg: Digraph, entry: Node) -> List[Node]:
    """Nodes reachable from ``entry`` in DFS reverse postorder.

    The entry comes first, and every edge except a DFS retreating edge
    points forward in the order, so a forward problem solved in this
    order sees most predecessors before their successors.  Successors
    are explored in list order, which makes the order deterministic;
    successors outside the graph are ignored.
    """
    if entry not in cfg:
        raise AnalysisError(f"entry {entry!r} is not a node of the graph")
    order: List[Node] = []
    seen = {entry}
    stack: List[Tuple[Node, int]] = [(entry, 0)]
    while stack:
        node, index = stack[-1]
        succs = cfg.get(node, ())
        if index < len(succs):
            stack[-1] = (node, index + 1)
            succ = succs[index]
            if succ in cfg and succ not in seen:
                seen.add(succ)
                stack.append((succ, 0))
        else:
            order.append(node)
            stack.pop()
    order.reverse()
    return order


@dataclass
class DataflowResult:
    """Fixed-point facts in *program order* regardless of direction.

    ``before[n]`` holds at the node's entry, ``after[n]`` at its exit —
    so a backward liveness solve reports ``live_in`` as ``before``.
    """

    before: Dict[Node, FrozenSet[Fact]]
    after: Dict[Node, FrozenSet[Fact]]


@dataclass
class MaskResult:
    """:class:`DataflowResult` with each fact set as an int bitmask."""

    before: Dict[Node, int]
    after: Dict[Node, int]


def solve_masks(
    cfg: Digraph,
    *,
    gen: Mapping[Node, int],
    kill: Optional[Mapping[Node, int]] = None,
    forward: bool = True,
    may: bool = True,
    boundary: Optional[Mapping[Node, int]] = None,
    universe: int = 0,
) -> MaskResult:
    """Iterate ``out = gen | (meet(in) & ~kill)`` to a fixed point.

    Bit ``i`` of every mask stands for the caller's fact number ``i``.
    ``may`` selects the meet: union (initialized empty) or, when
    False, intersection (initialized to ``universe``).  ``boundary``
    facts are forced into a node's meet input — the entry seed of a
    forward problem, or extra facts injected at join points (a
    must-analysis unions them in after the intersection).  The
    worklist converges for any monotone bit-vector problem; node order
    only affects speed, not the result.
    """
    nodes = list(cfg)
    preds = predecessors(cfg)
    feeders = preds if forward else cfg
    dependents = cfg if forward else preds
    kill = kill or {}
    boundary = boundary or {}
    out: Dict[Node, int] = dict.fromkeys(nodes, 0 if may else universe)
    met: Dict[Node, int] = {}
    work = deque(nodes if forward else reversed(nodes))
    queued = set(nodes)
    while work:
        node = work.popleft()
        queued.discard(node)
        ins = feeders[node]
        acc = out[ins[0]] if ins else 0
        for other in ins[1:]:
            if may:
                acc |= out[other]
            else:
                acc &= out[other]
        acc |= boundary.get(node, 0)
        met[node] = acc
        new_out = gen.get(node, 0) | (acc & ~kill.get(node, 0))
        if new_out != out[node]:
            out[node] = new_out
            for dep in dependents[node]:
                if dep not in queued:
                    queued.add(dep)
                    work.append(dep)
    if forward:
        return MaskResult(before=met, after=out)
    return MaskResult(before=out, after=met)


def solve(
    cfg: Digraph,
    *,
    gen: Mapping[Node, Iterable[Fact]],
    kill: Optional[Mapping[Node, Iterable[Fact]]] = None,
    forward: bool = True,
    may: bool = True,
    boundary: Optional[Mapping[Node, Iterable[Fact]]] = None,
    universe: Optional[Iterable[Fact]] = None,
) -> DataflowResult:
    """:func:`solve_masks` over ``frozenset``s of hashable facts.

    Facts are numbered in first-seen order, the masks are solved, and
    the fixed point is decoded back to ``frozenset``s.  A must
    (``may=False``) analysis needs a ``universe``.
    """
    if not may and universe is None:
        raise AnalysisError(
            "a must (intersection) analysis needs a universe"
        )
    bits: Dict[Fact, int] = {}

    def encode(facts: Iterable[Fact]) -> int:
        mask = 0
        for fact in facts:
            bit = bits.get(fact)
            if bit is None:
                bit = bits[fact] = 1 << len(bits)
            mask |= bit
        return mask

    def encode_all(
        sets: Optional[Mapping[Node, Iterable[Fact]]],
    ) -> Dict[Node, int]:
        sets = sets or {}
        return {n: encode(sets[n]) for n in cfg if n in sets}

    result = solve_masks(
        cfg,
        gen=encode_all(gen),
        kill=encode_all(kill),
        forward=forward,
        may=may,
        boundary=encode_all(boundary),
        universe=encode(universe or ()),
    )
    facts = list(bits)
    decoded: Dict[int, FrozenSet[Fact]] = {}

    def decode(mask: int) -> FrozenSet[Fact]:
        found = decoded.get(mask)
        if found is None:
            digits = bin(mask)[:1:-1]  # bit 0 first
            found = decoded[mask] = frozenset(
                facts[i] for i, digit in enumerate(digits) if digit == "1"
            )
        return found

    return DataflowResult(
        before={n: decode(m) for n, m in result.before.items()},
        after={n: decode(m) for n, m in result.after.items()},
    )


# ------------------------------------------------------------- analyses
def live_variables(
    cfg: Digraph,
    use: Mapping[Node, Iterable[Fact]],
    deff: Mapping[Node, Iterable[Fact]],
) -> DataflowResult:
    """Backward may-liveness: ``before`` = live-in, ``after`` = live-out."""
    return solve(cfg, gen=use, kill=deff, forward=False, may=True)


def dominators(cfg: Digraph, entry: Node) -> Dict[Node, FrozenSet[Node]]:
    """``{node: blocks dominating it}`` for nodes reachable from entry.

    Unreachable nodes are omitted (every set would vacuously contain
    them); the entry dominates itself only.  Expressed as a forward
    must-problem: ``dom(n) = {n} ∪ ⋂ dom(preds)``, with edges into the
    entry dropped so its meet stays empty.
    """
    keep = reachable(cfg, entry)
    sub: Dict[Node, List[Node]] = {
        n: [s for s in cfg[n] if s != entry] for n in keep
    }
    result = solve(
        sub,
        gen={n: (n,) for n in sub},
        forward=True,
        may=False,
        universe=keep,
    )
    return dict(result.after)


def reaching_definitions(
    cfg: Digraph,
    defs: Mapping[Node, Sequence[Tuple[Fact, Hashable]]],
    *,
    boundary: Optional[Mapping[Node, Iterable[Fact]]] = None,
) -> DataflowResult:
    """Forward may-analysis over ``(var, def_id)`` definition sites.

    ``defs[n]`` lists the node's definitions in program order; facts
    are ``(var, def_id)`` pairs, and a node kills every *other*
    definition of the variables it defines.
    """
    all_defs: Dict[Fact, set] = {}
    for node, sites in defs.items():
        for var, def_id in sites:
            all_defs.setdefault(var, set()).add((var, def_id))
    gen: Dict[Node, set] = {}
    kill: Dict[Node, set] = {}
    for node in cfg:
        last: Dict[Fact, Hashable] = {}
        for var, def_id in defs.get(node, ()):
            last[var] = def_id
        gen[node] = {(var, def_id) for var, def_id in last.items()}
        kill[node] = set()
        for var in last:
            kill[node] |= all_defs[var] - gen[node]
    return solve(
        cfg, gen=gen, kill=kill, forward=True, may=True, boundary=boundary
    )


def definitely_assigned(
    cfg: Digraph,
    entry: Node,
    assigns: Mapping[Node, Iterable[Fact]],
    *,
    seed: Iterable[Fact] = (),
    universe: Optional[Iterable[Fact]] = None,
) -> DataflowResult:
    """Forward must-analysis: facts assigned on *every* path to a node.

    ``seed`` holds at program entry (e.g. hardware-initialized
    registers).  The default universe is everything ever assigned plus
    the seed.  Only nodes reachable from ``entry`` appear in the
    result; unreachable nodes have no paths, so "assigned on every
    path" is vacuous there.  Edges into the entry are dropped the same
    way :func:`dominators` drops them: the analysis has no kills, so a
    back edge can never remove a seed fact, and the entry's meet must
    be exactly the seed (the virtual program-start edge).
    """
    keep = reachable(cfg, entry)
    sub: Dict[Node, List[Node]] = {
        n: [s for s in cfg[n] if s != entry] for n in keep
    }
    if universe is None:
        everything = set(seed)
        for node in keep:
            everything.update(assigns.get(node, ()))
        universe = everything
    return solve(
        sub,
        gen={n: assigns.get(n, ()) for n in keep},
        forward=True,
        may=False,
        boundary={entry: seed},
        universe=universe,
    )


__all__ = [
    "DataflowResult",
    "MaskResult",
    "definitely_assigned",
    "dominators",
    "live_variables",
    "predecessors",
    "reachable",
    "reaching_definitions",
    "reverse_postorder",
    "solve",
    "solve_masks",
]
