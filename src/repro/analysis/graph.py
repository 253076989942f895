"""One control-flow graph object per program image, and every fact
derived over it.

:class:`FlowGraph` views a digraph ``{node: [successor, ...]}`` from
its entry node.  Each fact derived over the graph is an attribute
computed on first use and kept: the reverse-postorder numbering, with
rank-indexed predecessor and successor rows; reachability; dominators;
loop back edges, natural loops and irreducible edges; and the static
branch probabilities and block frequencies of
:mod:`repro.analysis.freq`.  Nothing is computed before something asks
for it, so a caller that needs only the numbering (the cache-bound
solver) pays for no dominator solve.

:class:`ImageGraph` is the :class:`FlowGraph` of one laid-out
:class:`ProgramImage`, built by one walk over its MultiOps.
:mod:`repro.compiler.cfg` works on IR functions before layout; this
graph is over the *assembled* image — block ids, resolved branch
targets, recorded fallthroughs, and interprocedural edges (a CALL
reaches both its callee's entry and its own fallthrough continuation;
a RET reaches the continuation of every call into its function).
Analyses treat the call and continuation edges as ordinary successors,
the same approximation :mod:`repro.compiler.cfg` documents for
intra-procedural liveness.  A
:class:`~repro.core.study.ProgramStudy` owns its image's graph
(:attr:`~repro.core.study.ProgramStudy.analysis`), so each fact is
derived once per study.

Loop facts: a back edge is an edge whose target dominates its source;
its natural loop is the set of blocks that can reach the edge's tail
without passing through the header.  Edges that retreat in a DFS
without being dominator back edges mark *irreducible* regions — the
frequency estimator still terminates there (damped, capped iteration),
but the ``loop-structure`` analyzer rule surfaces them because the
nesting around such regions is heuristic rather than structural.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, FrozenSet, Hashable, List, Sequence, Tuple

from repro.analysis import dataflow
from repro.isa.image import BasicBlockImage, ProgramImage
from repro.isa.opcodes import Opcode

Node = Hashable
Cfg = Dict[Node, Sequence[Node]]
Edge = Tuple[Node, Node]


@dataclass(frozen=True)
class Loop:
    """One natural loop: its header and its body (header included)."""

    header: Node
    body: FrozenSet[Node]


class FlowGraph:
    """A digraph seen from its entry; every derived fact is a lazily
    computed attribute (see the module docstring)."""

    def __init__(self, cfg: Cfg, entry: Node) -> None:
        self.cfg = cfg
        self.entry = entry

    # ------------------------------------------------------- numbering
    @cached_property
    def order(self) -> List[Node]:
        """Nodes reachable from the entry in DFS reverse postorder
        (:func:`~repro.analysis.dataflow.reverse_postorder`); the entry
        has rank 0."""
        return dataflow.reverse_postorder(self.cfg, self.entry)

    @cached_property
    def rank(self) -> Dict[Node, int]:
        """``{node: its index in order}``."""
        return {node: index for index, node in enumerate(self.order)}

    @cached_property
    def preds(self) -> List[List[int]]:
        """``preds[i]``: the ranks of rank ``i``'s reachable
        predecessors, in the CFG's own list order."""
        rank = self.rank
        preds = dataflow.predecessors(self.cfg)
        return [
            [rank[p] for p in preds[node] if p in rank]
            for node in self.order
        ]

    @cached_property
    def succs(self) -> List[List[int]]:
        """``succs[i]``: the ranks of rank ``i``'s successors, in list
        order."""
        rank = self.rank
        return [[rank[s] for s in self.cfg[node]] for node in self.order]

    @cached_property
    def reachable(self) -> FrozenSet[Node]:
        """Nodes reachable from the entry (including it)."""
        return frozenset(self.order)

    # ----------------------------------------------------------- loops
    @cached_property
    def dominators(self) -> Dict[Node, FrozenSet[Node]]:
        """``{node: nodes dominating it}`` for every reachable node."""
        return dataflow.dominators(self.cfg, self.entry)

    @cached_property
    def back_edges(self) -> List[Edge]:
        """Edges ``u -> v`` where ``v`` dominates ``u`` (loop back
        edges), between reachable nodes only; sorted."""
        doms = self.dominators
        return sorted(
            (u, v) for u in doms for v in self.cfg[u] if v in doms[u]
        )

    def natural_loop(self, tail: Node, header: Node) -> FrozenSet[Node]:
        """Body of the natural loop of back edge ``tail -> header``.

        The header plus every block that reaches ``tail`` without
        passing through the header (a backward walk over the
        predecessors).  The walk stays inside the reachable subgraph:
        an unreachable block with an edge into the loop must not join
        the body (no execution ever runs it).
        """
        rank, preds = self.rank, self.preds
        body = {rank[header], rank[tail]}
        stack = [rank[tail]] if tail != header else []
        while stack:
            for pred in preds[stack.pop()]:
                if pred not in body:
                    body.add(pred)
                    stack.append(pred)
        return frozenset(self.order[index] for index in body)

    @cached_property
    def loops(self) -> List[Loop]:
        """All natural loops, one per header, sorted by header.

        Back edges with the same header describe one loop with
        multiple latches; their bodies union, matching the usual
        loop-nest convention.
        """
        bodies: Dict[Node, set] = {}
        for tail, header in self.back_edges:
            bodies.setdefault(header, set()).update(
                self.natural_loop(tail, header)
            )
        return [
            Loop(header=header, body=frozenset(body))
            for header, body in sorted(bodies.items())
        ]

    @cached_property
    def irreducible_edges(self) -> List[Edge]:
        """DFS retreating edges that are *not* dominator back edges;
        sorted.

        A non-empty result means some cycle has multiple entries
        (irreducible control flow): its blocks still appear in the
        frequency fixpoint, but loop nesting around it is heuristic.
        The DFS is the one behind :attr:`order`, and one of its edges
        retreats exactly when it does not go forward in reverse
        postorder (a self loop included).
        """
        backs = set(self.back_edges)
        order = self.order
        return sorted(
            (order[u], order[v])
            for u, succs in enumerate(self.succs)
            for v in succs
            if v <= u and (order[u], order[v]) not in backs
        )

    # ----------------------------------------------------- frequencies
    @cached_property
    def probabilities(self) -> Dict[Edge, float]:
        """Static branch probabilities
        (:func:`repro.analysis.freq.branch_probabilities`)."""
        from repro.analysis.freq import branch_probabilities

        return branch_probabilities(self)

    @cached_property
    def frequencies(self) -> Dict[Node, float]:
        """Expected visit count per reachable node under
        :attr:`probabilities`
        (:func:`repro.analysis.freq.block_frequencies`)."""
        from repro.analysis.freq import block_frequencies

        return block_frequencies(self, self.probabilities)


class ImageGraph(FlowGraph):
    """The interprocedural :class:`FlowGraph` of one program image,
    from one walk over each block's MultiOps.

    The walk yields four facts:

    * ``successors`` — ``{block_id: [successor ids]}`` without RET
      edges, in fetch-preference order: branch and call targets first,
      the fallthrough continuation last.  Duplicates collapse (a
      conditional branch targeting its own fallthrough contributes one
      edge), and out-of-range targets and fallthroughs are dropped —
      the branch-target rule reports them, and the graph stays
      well-formed for the other analyses either way;
    * ``returns`` — ``{ret_block_id: [continuation ids]}`` for every
      RET block: a RET in function ``f`` may resume at the fallthrough
      continuation of *any* call site whose target lies in ``f``, the
      static over-approximation of the return stack;
    * ``entries`` — each function's first block id, in layout order
      (the legal CALL targets);
    * ``cfg`` — ``successors`` closed with the ``returns`` edges, the
      graph every derived fact is over.  A graph missing the RET edges
      under-counts paths, which would make must/may cache facts
      unsound; every dynamically feasible block transition is an edge
      of this one (machine-checked by the ``static-trace-edges``
      invariant).
    """

    def __init__(self, image: ProgramImage) -> None:
        # Enum members read as locals: ``Opcode.RET`` is a descriptor call.
        br, call, ret = Opcode.BR, Opcode.CALL, Opcode.RET
        n = len(image)
        successors: Dict[int, List[int]] = {}
        entries: Dict[str, int] = {}
        owner: Dict[int, str] = {}
        calls: List[Tuple[int, int]] = []  # (callee block, continuation)
        returning: List[BasicBlockImage] = []
        for block in image:
            owner[block.block_id] = block.function
            entries.setdefault(block.function, block.block_id)
            ft = block.fallthrough
            if ft is not None and not 0 <= ft < n:
                ft = None
            succs: List[int] = []
            returns_here = False
            for mop in block.mops:
                for op in mop.ops:
                    opcode = op.opcode
                    if opcode is ret:
                        returns_here = True
                    elif opcode is br or opcode is call:
                        target = op.target_block
                        if target is None or not 0 <= target < n:
                            continue
                        if target not in succs:
                            succs.append(target)
                        if opcode is call and ft is not None:
                            calls.append((target, ft))
            if ft is not None and ft not in succs:
                succs.append(ft)
            successors[block.block_id] = succs
            if returns_here:
                returning.append(block)
        continuations: Dict[str, List[int]] = {}
        for target, ft in calls:
            conts = continuations.setdefault(owner[target], [])
            if ft not in conts:
                conts.append(ft)
        returns = {
            block.block_id: list(continuations.get(block.function, ()))
            for block in returning
        }
        cfg = dict(successors)
        for block_id, conts in returns.items():
            succs = successors[block_id]
            cfg[block_id] = succs + [c for c in conts if c not in succs]
        super().__init__(cfg, image.entry_block)
        self.successors = successors
        self.returns = returns
        self.entries = entries

    @cached_property
    def reachable_without_returns(self) -> FrozenSet[int]:
        """Blocks reachable from the entry over ``successors`` alone,
        the reachability the machine-code lint rules use."""
        return dataflow.reachable(self.successors, self.entry)


__all__ = ["Edge", "FlowGraph", "ImageGraph", "Loop"]
