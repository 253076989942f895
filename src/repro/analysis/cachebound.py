"""Static I-cache/ATB classification and sound fetch-cycle bounds.

Ferdinand-style abstract interpretation over the interprocedural image
CFG: two abstract LRU domains per structure —

* **must** (ages are upper bounds): a line present in the must state is
  present in *every* concrete cache reaching this point, so a block
  whose lines are all in the must in-state is **always-hit**;
* **may** (ages are lower bounds): a line absent from the may state is
  absent from *every* concrete cache, so a block with any line outside
  the may in-state is **always-miss**.

Everything else is *unclassified* — both outcomes feasible.  The same
machinery classifies the ATB (set = ``block_id & mask``, one "line" per
block).  The L0 buffer is modeled conservatively: an L0-eligible block
may or may not reach the cache, so its cache transfer is the join of
"accessed" and "untouched" — sound without tracking the buffer's
op-count capacity.

An abstract state is a tuple ``le`` of ``ways`` ints, cumulative over
age: bit ``line`` of ``le[k]`` is set iff the line's age bound is at
most ``k``, so ``le[-1]`` holds the lines present and the cold state is
``(0,) * ways``.  Must-join (intersection, max age) is element-wise
``&``, may-join (union, min age) element-wise ``|``, and equality is
tuple equality.  An access ``(line_bit, set_mask)`` finds the line's
age ``a`` (``ways`` if absent) and ages every line of its set below a
threshold — ``a`` in the must domain, ``min(a + 1, ways)`` in the may
domain — by shifting ``le[k - 1]`` into ``le[k]`` within ``set_mask``
(eviction falls out at ``k = ways - 1``), then sets the line's bit at
every age.  Each domain's solver visits blocks in reverse postorder.

:func:`cycle_bounds` combines the classification with the fetch
machine's own per-block cost columns
(:func:`~repro.fetch.sweep.block_costs` over
:func:`~repro.fetch.sweep.block_span_pairs`, the very columns the sweep
charges — queried, not re-derived, so the bounds can never drift from
Table 1 or the L0 rules) into per-fetch
feasible-outcome sets, yielding ``lower <= simulated <= upper`` for any
trace with the given per-block visit counts.  The ``static`` check
scope enforces exactly that bracket against the simulator.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush
from operator import and_, or_
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.analysis.graph import FlowGraph, ImageGraph
from repro.errors import ConfigurationError
from repro.fetch.config import (
    CACHED_ORGANIZATIONS,
    FetchConfig,
    fetch_image_key,
)

#: One abstract cache: bit ``line`` of ``state[k]`` is set iff the
#: line's age bound is at most ``k``.
State = Tuple[int, ...]
#: One line access: ``(line_bit, set_mask)``, where ``set_mask`` covers
#: every accessed line that maps to the same set.
Access = Tuple[int, int]


# ------------------------------------------------------------------ domain
def _update(state: State, accesses: Sequence[Access], must: bool) -> State:
    """LRU update of a must (``must=True``) or may state.

    Must ages are upper bounds: only lines strictly younger than the
    accessed line's bound may have been behind it, so only they age.
    May ages are lower bounds: lines at most as old as the accessed
    line may age, and when the line is absent the access is a
    guaranteed miss and every line ages.
    """
    le = list(state)
    ways = len(le)
    for bit, set_mask in accesses:
        age = 0
        while age < ways and not le[age] & bit:
            age += 1
        threshold = age if must else min(age + 1, ways)
        # Below the threshold the set's lines move one age up (le[k]
        # takes le[k - 1]'s bits within set_mask, le[-1] being empty)
        # and the accessed line joins at age 0; at and above it every
        # age bound is unchanged and already includes the line.
        for k in range(threshold - 1, 0, -1):
            le[k] ^= (le[k] ^ le[k - 1]) & set_mask
            le[k] |= bit
        if threshold:
            le[0] = (le[0] & ~set_mask) | bit
    return tuple(le)


def _join(a: State, b: State, must: bool) -> State:
    """Must: intersection with maximal ages; may: union with minimal."""
    return tuple(map(and_ if must else or_, a, b))


def _transfer(
    state: State, accesses: Sequence[Access], skippable: bool, must: bool
) -> State:
    updated = _update(state, accesses, must)
    if skippable:  # the access may or may not reach the structure
        return _join(updated, state, must)
    return updated


def _line_accesses(
    pairs_by_block: Sequence[Sequence[Tuple[int, int]]],
) -> List[Tuple[Access, ...]]:
    """Per-block ``(line_bit, set_mask)`` accesses from ``(set, line)``."""
    set_masks: Dict[int, int] = {}
    for pairs in pairs_by_block:
        for set_index, line in pairs:
            set_masks[set_index] = set_masks.get(set_index, 0) | 1 << line
    return [
        tuple((1 << line, set_masks[set_index]) for set_index, line in pairs)
        for pairs in pairs_by_block
    ]


# ------------------------------------------------------------------ solver
def _fixpoint(
    graph: FlowGraph,
    accesses: Sequence[Tuple[Access, ...]],
    skippable: Sequence[bool],
    ways: int,
    must: bool,
) -> Dict[int, State]:
    """Fixpoint in-state per reachable block of one domain.

    The worklist is optimistic: a node joins only predecessors already
    computed; monotone transfers over the finite age lattice guarantee
    convergence.  It always pops the queued block earliest in reverse
    postorder, which changes how many transfers run, never the
    fixpoint.  A block is re-queued whenever a predecessor's out-state
    changes, so the in-state of its last visit is final.
    """
    order, preds, succs = graph.order, graph.preds, graph.succs
    out: List[Optional[State]] = [None] * len(order)
    in_states: List[Optional[State]] = [None] * len(order)
    queued = [False] * len(order)
    queued[0] = True
    work = [0]
    cold: State = (0,) * ways
    while work:
        index = heappop(work)
        queued[index] = False
        state = cold if index == 0 else None
        for pred in preds[index]:
            pred_out = out[pred]
            if pred_out is not None:
                state = (
                    pred_out
                    if state is None
                    else _join(state, pred_out, must)
                )
        in_states[index] = state
        node = order[index]
        new = _transfer(state, accesses[node], skippable[node], must)
        if new != out[index]:
            out[index] = new
            for succ in succs[index]:
                if not queued[succ]:
                    queued[succ] = True
                    heappush(work, succ)
    return dict(zip(order, in_states))


def _solve(
    graph: FlowGraph,
    accesses: Sequence[Tuple[Access, ...]],
    skippable: Sequence[bool],
    ways: int,
) -> Tuple[Dict[int, State], Dict[int, State]]:
    """Fixpoint in-states (must, may) per reachable block.

    The boundary at the entry is the cold cache — empty must (nothing
    guaranteed resident) *and* empty may (nothing possibly resident):
    the simulator builds its structures empty, so this is both sound
    and precise (first touches classify as compulsory misses).  The
    two domains share no state, so each runs on its own worklist
    (:func:`_fixpoint`) and re-queues successors only when its own
    out-state changes; any chaotic iteration of a monotone framework
    reaches the same fixpoint, so the in-states equal those of one
    joint worklist running both transfers per visit.
    """
    return (
        _fixpoint(graph, accesses, skippable, ways, True),
        _fixpoint(graph, accesses, skippable, ways, False),
    )


# ----------------------------------------------------------- classification
@dataclass(frozen=True)
class Classification:
    """Always-hit / always-miss block sets for one structure."""

    always_hit: FrozenSet[int]
    always_miss: FrozenSet[int]
    analyzed: FrozenSet[int]

    @property
    def unclassified(self) -> FrozenSet[int]:
        return self.analyzed - self.always_hit - self.always_miss


@dataclass(frozen=True)
class FetchClassification:
    """Joint I-cache + ATB classification for one (image, config)."""

    cache: Classification
    atb: Classification


def _classify_structure(
    graph: FlowGraph,
    pairs_by_block: Sequence[Sequence[Tuple[int, int]]],
    skippable: Sequence[bool],
    ways: int,
) -> Classification:
    """Classify each reachable block's ``(set, line)`` accesses."""
    accesses = _line_accesses(pairs_by_block)
    must_in, may_in = _solve(graph, accesses, skippable, ways)
    always_hit = set()
    always_miss = set()
    for bid, must in must_in.items():
        lines = 0
        for bit, _ in accesses[bid]:
            lines |= bit
        if must[-1] & lines == lines:
            always_hit.add(bid)
        if may_in[bid][-1] & lines != lines:
            always_miss.add(bid)
    return Classification(
        always_hit=frozenset(always_hit),
        always_miss=frozenset(always_miss),
        analyzed=frozenset(must_in),
    )


def _classify(
    compressed,
    config: FetchConfig,
    span_pairs: Sequence[Sequence[Tuple[int, int]]],
    l0_possible: Sequence[bool],
    graph: Optional[ImageGraph],
) -> FetchClassification:
    if graph is None:
        graph = ImageGraph(compressed.image)
    nblocks = len(compressed.image)
    atb_mask = config.atb_entries // config.atb_ways - 1
    return FetchClassification(
        cache=_classify_structure(
            graph, span_pairs, l0_possible, config.cache.ways
        ),
        atb=_classify_structure(
            graph,
            [((bid & atb_mask, bid),) for bid in range(nblocks)],
            [False] * nblocks,
            config.atb_ways,
        ),
    )


def classify_fetch(
    compressed, config: FetchConfig, graph: Optional[ImageGraph] = None
) -> FetchClassification:
    """Must/may classification of the I-cache and the ATB.

    Classification uses each block's *in*-state (the abstract cache
    before the block's own access), matching the simulator's
    probe-then-install order.  ``graph`` is the image's
    :class:`~repro.analysis.graph.ImageGraph` when the caller holds one;
    without it the graph is built from the image.
    """
    from repro.fetch.sweep import block_costs, block_span_pairs

    span_pairs = block_span_pairs(compressed, config.cache)
    return _classify(
        compressed,
        config,
        span_pairs,
        block_costs(compressed, config, span_pairs).l0_fits,
        graph,
    )


# ----------------------------------------------------------------- bounds
@dataclass(frozen=True)
class BoundsReport:
    """Sound fetch-cycle bracket for one (image, config, visit counts)."""

    scheme: str
    lower: int
    upper: int
    fetches: int
    classification: FetchClassification

    def bracket(self, simulated_cycles: int) -> bool:
        return self.lower <= simulated_cycles <= self.upper

    def to_json(self) -> dict:
        cache = self.classification.cache
        atb = self.classification.atb
        return {
            "scheme": self.scheme,
            "lower_cycles": self.lower,
            "upper_cycles": self.upper,
            "fetches": self.fetches,
            "cache_always_hit": len(cache.always_hit),
            "cache_always_miss": len(cache.always_miss),
            "cache_unclassified": len(cache.unclassified),
            "atb_always_hit": len(atb.always_hit),
            "atb_always_miss": len(atb.always_miss),
            "atb_unclassified": len(atb.unclassified),
        }


def cycle_bounds(
    compressed,
    counts: Sequence[int],
    config: FetchConfig,
    graph: Optional[ImageGraph] = None,
) -> BoundsReport:
    """``lower <= cycles(any trace with these visit counts) <= upper``.

    ``counts`` is a per-block fetch count (a trace heat profile).  Per
    fetch, the feasible outcome costs are enumerated from the
    classification — L0 hit (when possible), cache hit, cache miss,
    each under both prediction outcomes — and the per-block min/max is
    weighted by the count.  The ATB contribution is additive: the upper
    bound charges every non-always-hit fetch, the lower bound the
    larger of guaranteed always-miss fetches and compulsory first
    touches (one per distinct fetched block).  ``graph`` is as in
    :func:`classify_fetch`.
    """
    from repro.fetch.sweep import block_costs, block_span_pairs

    nblocks = len(compressed.image)
    if len(counts) != nblocks:
        raise ConfigurationError(
            f"counts length {len(counts)} != block count {nblocks}"
        )
    span_pairs = block_span_pairs(compressed, config.cache)
    costs = block_costs(compressed, config, span_pairs)
    classification = _classify(
        compressed, config, span_pairs, costs.l0_fits, graph
    )
    cache_cls = classification.cache
    atb_cls = classification.atb

    lower = upper = 0
    fetches = 0
    for bid in range(nblocks):
        count = counts[bid]
        if not count:
            continue
        fetches += count
        outcomes = []
        if costs.l0_fits[bid]:
            outcomes.append(costs.buffer[bid])
        hit_possible = bid not in cache_cls.always_miss
        miss_possible = bid not in cache_cls.always_hit
        if not hit_possible and not miss_possible:  # defensive: ⊥ block
            hit_possible = miss_possible = True
        if hit_possible:
            outcomes.append(costs.hit_t[bid])
            outcomes.append(costs.hit_f[bid])
        if miss_possible:
            outcomes.append(costs.miss_t[bid])
            outcomes.append(costs.miss_f[bid])
        lower += count * min(outcomes)
        upper += count * max(outcomes)

    atb_penalty = config.atb_miss_penalty
    upper_misses = sum(
        counts[b]
        for b in range(nblocks)
        if counts[b] and b not in atb_cls.always_hit
    )
    guaranteed_misses = sum(
        counts[b]
        for b in range(nblocks)
        if counts[b] and b in atb_cls.always_miss
    )
    distinct = sum(1 for b in range(nblocks) if counts[b])
    lower += atb_penalty * max(guaranteed_misses, distinct)
    upper += atb_penalty * upper_misses

    return BoundsReport(
        scheme=config.scheme,
        lower=lower,
        upper=upper,
        fetches=fetches,
        classification=classification,
    )


#: Fetch organizations whose bounds are checked against the simulator:
#: every cached organization, the hybrid under both profile sources.
BOUND_SCHEMES = CACHED_ORGANIZATIONS + ("hybrid:static",)


def standard_bounds(study):
    """Yield ``(scheme, compressed, report, simulated_cycles)`` for each
    :data:`BOUND_SCHEMES` entry on its standard scaled config.

    One config is both simulated and bounded, over the study's
    :attr:`~repro.core.study.ProgramStudy.trace_heat` and its one
    :attr:`~repro.core.study.ProgramStudy.analysis` graph.
    ``analyze --bounds`` and the ``static-cycle-bounds`` invariant both
    bracket these; the invariant goes on to randomized geometries with
    ``compressed``.
    """
    for scheme in BOUND_SCHEMES:
        config = FetchConfig.for_scheme(scheme, scaled=True)
        compressed = study.compressed(fetch_image_key(scheme))
        simulated = study.fetch_metrics(scheme, config).cycles
        report = cycle_bounds(
            compressed, study.trace_heat, config, study.analysis
        )
        yield scheme, compressed, report, simulated


__all__ = [
    "BOUND_SCHEMES",
    "BoundsReport",
    "Classification",
    "FetchClassification",
    "classify_fetch",
    "cycle_bounds",
    "standard_bounds",
]
