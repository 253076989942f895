"""Static (profile-free) block-frequency estimation.

Ball–Larus-style heuristics assign each CFG edge a branch probability —
loop back edges are strongly taken, everything else splits the residual
mass — and an iterative flow fixpoint propagates an entry frequency of
1.0 through the graph: ``f(b) = [b = entry] + sum over preds p of
f(p) * prob(p -> b)``.  On a reducible graph this converges to the
closed-form loop-nest weights (a depth-d block under 0.9 back-edge
probability sits near ``10^d``); irreducible regions and structurally
infinite loops are handled by an iteration cap plus a clamp, which
costs accuracy but never termination.

:func:`static_heat_profile` packages the result in the exact shape
:func:`repro.compression.adaptive.heat_profile` produces from a trace —
a per-block tuple of non-negative *integers* (quantized at 1e6 per
entry visit), so hot-set selection, ``HybridImage`` digests and the
store all work unchanged with zero trace runs.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.analysis.graph import Edge, FlowGraph, ImageGraph

#: Probability mass a conditional's loop back edges share (Ball–Larus
#: "loop branch heuristic": backward branches are usually taken).
BACK_EDGE_MASS = 0.9

#: Fixpoint iteration cap.  Reducible nests of realistic depth converge
#: far sooner; the cap only bites on irreducible or infinite loops.
MAX_ITERATIONS = 120

#: Convergence tolerance (max absolute per-block delta).
EPSILON = 1e-9

#: Frequency ceiling — keeps structurally infinite loops finite.
FREQUENCY_CLAMP = 1e12

#: Quantization step for the integer heat profile.
HEAT_QUANTUM = 1_000_000


def branch_probabilities(graph: FlowGraph) -> Dict[Edge, float]:
    """``{(u, v): probability}`` for every edge among reachable nodes.

    Back edges at a branch split :data:`BACK_EDGE_MASS` between them,
    the remaining successors split the residue; a branch whose
    successors are all back edges (or none are) splits uniformly.
    Parallel edges cannot occur (successor lists are deduplicated).
    :attr:`FlowGraph.probabilities` holds the result.
    """
    cfg = graph.cfg
    live = graph.reachable
    backs = set(graph.back_edges)
    probs: Dict[Edge, float] = {}
    for u in sorted(live):
        succs = [v for v in cfg.get(u, ()) if v in live]
        if not succs:
            continue
        if len(succs) == 1:
            probs[(u, succs[0])] = 1.0
            continue
        back = [v for v in succs if (u, v) in backs]
        other = [v for v in succs if (u, v) not in backs]
        if not back or not other:
            share = 1.0 / len(succs)
            for v in succs:
                probs[(u, v)] = share
            continue
        for v in back:
            probs[(u, v)] = BACK_EDGE_MASS / len(back)
        for v in other:
            probs[(u, v)] = (1.0 - BACK_EDGE_MASS) / len(other)
    return probs


def block_frequencies(
    graph: FlowGraph, probabilities: Dict[Edge, float]
) -> Dict[int, float]:
    """Expected visit count per reachable node (entry normalized to 1).

    Gauss–Seidel in reverse postorder: within one sweep a node reads
    the already-updated frequencies of its earlier predecessors, so a
    reducible loop nest converges geometrically.  Stops at
    :data:`EPSILON` stability or :data:`MAX_ITERATIONS`, clamping at
    :data:`FREQUENCY_CLAMP` so infinite loops stay finite.
    :attr:`FlowGraph.frequencies` holds the result under the graph's
    own :attr:`~FlowGraph.probabilities`.

    Each reachable node's inflow row — ``(rank of pred, probability)``
    over the graph's rank-indexed predecessor row, for every
    predecessor whose edge has a probability — is built once, and the
    sweeps run over a flat list of frequencies.  A node's update adds
    its inflows to its base value (1.0 at the entry) one at a time in
    that order, then clamps, so every frequency is the same float the
    per-edge dictionary lookups produced.
    """
    order = graph.order
    rows = []
    for block, preds in zip(order, graph.preds):
        row = []
        for pred in preds:
            prob = probabilities.get((order[pred], block))
            if prob is not None:
                row.append((pred, prob))
        rows.append((1.0 if block == graph.entry else 0.0, row))
    values = [0.0] * len(order)
    values[0] = 1.0  # the entry's rank
    for _ in range(MAX_ITERATIONS):
        delta = 0.0
        for index, (inflow, row) in enumerate(rows):
            for pred_index, prob in row:
                inflow += values[pred_index] * prob
            if inflow > FREQUENCY_CLAMP:
                inflow = FREQUENCY_CLAMP
            change = inflow - values[index]
            if change < 0.0:
                change = -change
            if change > delta:
                delta = change
            values[index] = inflow
        if delta <= EPSILON:
            break
    return dict(zip(order, values))


def static_heat_profile(
    image, graph: Optional[ImageGraph] = None
) -> Tuple[int, ...]:
    """Per-block integer heat estimate, shaped like a trace profile.

    Quantizes the frequency fixpoint over the interprocedural CFG (so
    callee bodies inherit their call sites' heat) at
    :data:`HEAT_QUANTUM` per entry visit.  Unreachable blocks get 0,
    exactly like blocks a trace never touched.  ``graph`` is the
    image's :class:`~repro.analysis.graph.ImageGraph` when the caller
    holds one (a study's :attr:`~repro.core.study.ProgramStudy.analysis`);
    without it the graph is built from the image.
    """
    if graph is None:
        graph = ImageGraph(image)
    profile = [0] * len(image)
    for block_id, value in graph.frequencies.items():
        profile[block_id] = int(round(value * HEAT_QUANTUM))
    return tuple(profile)


__all__ = [
    "BACK_EDGE_MASS",
    "HEAT_QUANTUM",
    "block_frequencies",
    "branch_probabilities",
    "static_heat_profile",
]
