"""Static I-cache/ATB classification and sound fetch-cycle bounds.

Ferdinand-style abstract interpretation over the interprocedural image
CFG: two abstract LRU domains per cache set —

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

:func:`cycle_bounds` combines the classification with the fetch
machine's own per-block cost columns
(:func:`~repro.fetch.config.penalty_rows`,
:func:`~repro.fetch.sweep.block_span_pairs` — queried, not
re-derived, so the bounds can never drift from Table 1) into per-fetch
feasible-outcome sets, yielding ``lower <= simulated <= upper`` for any
trace with the given per-block visit counts.  The ``static`` check
scope enforces exactly that bracket against the simulator.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, List, Sequence, Tuple

from repro.analysis.dataflow import predecessors, reachable
from repro.analysis.imagecfg import interprocedural_cfg
from repro.compression.registry import fetch_scheme_base
from repro.errors import ConfigurationError
from repro.fetch.config import FetchConfig

#: One abstract cache: ``{set_index: {line: age}}`` (empty sets omitted
#: so structurally equal states compare equal).
State = Dict[int, Dict[int, int]]
Access = Tuple[int, int]


# ------------------------------------------------------------------ domain
def _touch_must(state: State, accesses: Sequence[Access], ways: int) -> State:
    """Must-domain LRU update for a sequence of line accesses.

    Ages are upper bounds: lines strictly younger than the accessed
    line's (upper-bound) age got reordered below it, so only they age.
    """
    out = {s: dict(d) for s, d in state.items()}
    for set_index, line in accesses:
        bucket = out.get(set_index, {})
        age = bucket.get(line, ways)
        new_bucket = {}
        for other, a in bucket.items():
            if other == line:
                continue
            na = a + 1 if a < age else a
            if na < ways:
                new_bucket[other] = na
        new_bucket[line] = 0
        out[set_index] = new_bucket
    return out


def _touch_may(state: State, accesses: Sequence[Access], ways: int) -> State:
    """May-domain LRU update (ages are lower bounds).

    A line at (lower-bound) age at most the accessed line's age may sit
    below it concretely and therefore may age; when the accessed line
    is not in the may state at all the access is a guaranteed concrete
    miss and *every* resident line ages.
    """
    out = {s: dict(d) for s, d in state.items()}
    for set_index, line in accesses:
        bucket = out.get(set_index, {})
        age = bucket.get(line)
        new_bucket = {}
        for other, a in bucket.items():
            if other == line:
                continue
            na = a + 1 if age is None or a <= age else a
            if na < ways:
                new_bucket[other] = na
        new_bucket[line] = 0
        out[set_index] = new_bucket
    return out


def _join_must(a: State, b: State) -> State:
    """Intersection with maximal ages (the weaker guarantee survives)."""
    out: State = {}
    for set_index, da in a.items():
        db = b.get(set_index)
        if not db:
            continue
        merged = {
            line: max(age, db[line])
            for line, age in da.items()
            if line in db
        }
        if merged:
            out[set_index] = merged
    return out


def _join_may(a: State, b: State) -> State:
    """Union with minimal ages (any possibility survives)."""
    out = {s: dict(d) for s, d in a.items()}
    for set_index, db in b.items():
        bucket = out.setdefault(set_index, {})
        for line, age in db.items():
            cur = bucket.get(line)
            bucket[line] = age if cur is None else min(cur, age)
    return out


def _holds(state: State, accesses: Sequence[Access]) -> bool:
    return all(
        line in state.get(set_index, ()) for set_index, line in accesses
    )


# ------------------------------------------------------------------ solver
def _solve(
    cfg: Dict[int, Sequence[int]],
    entry: int,
    transfer_must: Callable[[int, State], State],
    transfer_may: Callable[[int, State], State],
) -> Tuple[Dict[int, State], Dict[int, State]]:
    """Fixpoint in-states (must, may) per reachable block.

    The boundary at ``entry`` is the cold cache — empty must (nothing
    guaranteed resident) *and* empty may (nothing possibly resident):
    the simulator builds its structures empty, so this is both sound
    and precise (first touches classify as compulsory misses).  The
    worklist is optimistic: a node joins only predecessors already
    computed; monotone transfers over the finite age lattice guarantee
    convergence.
    """
    live = reachable(cfg, entry)
    preds = predecessors(cfg)

    def in_states(node: int, out_must, out_may) -> Tuple[State, State]:
        musts: List[State] = []
        mays: List[State] = []
        if node == entry:
            musts.append({})
            mays.append({})
        for pred in preds.get(node, ()):
            if pred in out_must:
                musts.append(out_must[pred])
                mays.append(out_may[pred])
        must = musts[0]
        for state in musts[1:]:
            must = _join_must(must, state)
        may = mays[0]
        for state in mays[1:]:
            may = _join_may(may, state)
        return must, may

    out_must: Dict[int, State] = {}
    out_may: Dict[int, State] = {}
    work = deque([entry])
    queued = {entry}
    while work:
        node = work.popleft()
        queued.discard(node)
        must, may = in_states(node, out_must, out_may)
        new_must = transfer_must(node, must)
        new_may = transfer_may(node, may)
        if (
            node not in out_must
            or out_must[node] != new_must
            or out_may[node] != new_may
        ):
            out_must[node] = new_must
            out_may[node] = new_may
            for succ in cfg.get(node, ()):
                if succ in live and succ not in queued:
                    work.append(succ)
                    queued.add(succ)
    in_must: Dict[int, State] = {}
    in_may: Dict[int, State] = {}
    for node in live:
        in_must[node], in_may[node] = in_states(node, out_must, out_may)
    return in_must, in_may


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


def _l0_possible(compressed, config: FetchConfig) -> List[bool]:
    """Can each block's fetch be served by the L0 buffer?

    Mirrors the simulator: the buffer exists for compressed/hybrid, serves
    Huffman-tagged blocks, and never holds a block wider than its
    capacity (an oversized block is probed but can never be resident).
    """
    base_scheme = fetch_scheme_base(config.scheme)
    nblocks = len(compressed.image)
    has_buffer = base_scheme in ("compressed", "hybrid")
    if not has_buffer:
        return [False] * nblocks
    if base_scheme == "hybrid":
        tags = compressed.block_scheme_tags()
        if tags is None:
            raise ConfigurationError(
                "hybrid fetch needs an image with per-block scheme tags"
            )
        eligible = [tag == "compressed" for tag in tags]
    else:
        eligible = [True] * nblocks
    cap = config.l0_capacity_ops
    return [
        eligible[bid] and compressed.image.block(bid).op_count <= cap
        for bid in range(nblocks)
    ]


def classify_fetch(compressed, config: FetchConfig) -> FetchClassification:
    """Must/may classification of the I-cache and the ATB.

    Classification uses each block's *in*-state (the abstract cache
    before the block's own access), matching the simulator's
    probe-then-install order.
    """
    from repro.fetch.sweep import block_span_pairs

    image = compressed.image
    cfg = interprocedural_cfg(image)
    span_pairs = block_span_pairs(compressed, config.cache)
    cache_ways = config.cache.ways
    l0_possible = _l0_possible(compressed, config)

    def cache_must(bid: int, state: State) -> State:
        updated = _touch_must(state, span_pairs[bid], cache_ways)
        if l0_possible[bid]:
            return _join_must(updated, state)
        return updated

    def cache_may(bid: int, state: State) -> State:
        updated = _touch_may(state, span_pairs[bid], cache_ways)
        if l0_possible[bid]:
            return _join_may(updated, state)
        return updated

    entry = image.entry_block
    must_in, may_in = _solve(cfg, entry, cache_must, cache_may)
    live = frozenset(must_in)
    cache_cls = Classification(
        always_hit=frozenset(
            b for b in live if _holds(must_in[b], span_pairs[b])
        ),
        always_miss=frozenset(
            b for b in live if not _holds(may_in[b], span_pairs[b])
        ),
        analyzed=live,
    )

    atb_ways = config.atb_ways
    if config.atb_entries % atb_ways:
        raise ConfigurationError(
            f"ATB entries {config.atb_entries} not divisible by ways "
            f"{atb_ways}"
        )
    num_atb_sets = config.atb_entries // atb_ways
    if num_atb_sets & (num_atb_sets - 1):
        raise ConfigurationError(
            f"ATB set count {num_atb_sets} is not a power of two"
        )
    atb_mask = num_atb_sets - 1
    atb_access = [((bid & atb_mask, bid),) for bid in range(len(image))]

    def atb_must(bid: int, state: State) -> State:
        return _touch_must(state, atb_access[bid], atb_ways)

    def atb_may(bid: int, state: State) -> State:
        return _touch_may(state, atb_access[bid], atb_ways)

    atb_must_in, atb_may_in = _solve(cfg, entry, atb_must, atb_may)
    atb_cls = Classification(
        always_hit=frozenset(
            b for b in live if _holds(atb_must_in[b], atb_access[b])
        ),
        always_miss=frozenset(
            b for b in live if not _holds(atb_may_in[b], atb_access[b])
        ),
        analyzed=live,
    )
    return FetchClassification(cache=cache_cls, atb=atb_cls)


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
) -> BoundsReport:
    """``lower <= cycles(any trace with these visit counts) <= upper``.

    ``counts`` is a per-block fetch count (a trace heat profile).  Per
    fetch, the feasible outcome costs are enumerated from the
    classification — L0 hit (when possible), cache hit, cache miss,
    each under both prediction outcomes — and the per-block min/max is
    weighted by the count.  The ATB contribution is additive: the upper
    bound charges every non-always-hit fetch, the lower bound the
    larger of guaranteed always-miss fetches and compulsory first
    touches (one per distinct fetched block).
    """
    from repro.fetch.config import penalty_rows
    from repro.fetch.sweep import block_span_pairs

    image = compressed.image
    nblocks = len(image)
    if len(counts) != nblocks:
        raise ConfigurationError(
            f"counts length {len(counts)} != block count {nblocks}"
        )
    scheme = config.scheme
    base_scheme = fetch_scheme_base(scheme)
    if base_scheme not in ("base", "tailored", "compressed", "hybrid"):
        raise ConfigurationError(f"unknown fetch scheme {scheme!r}")
    is_hybrid = base_scheme == "hybrid"
    block_tags = compressed.block_scheme_tags() if is_hybrid else None
    if is_hybrid and block_tags is None:
        raise ConfigurationError(
            "hybrid fetch needs an image with per-block scheme tags"
        )

    classification = classify_fetch(compressed, config)
    cache_cls = classification.cache
    atb_cls = classification.atb

    span_pairs = block_span_pairs(compressed, config.cache)
    rows = penalty_rows()
    l0_possible = _l0_possible(compressed, config)

    lower = upper = 0
    fetches = 0
    for bid in range(nblocks):
        count = counts[bid]
        if not count:
            continue
        fetches += count
        block = image.block(bid)
        tail = block.mop_count - 1
        extra = len(span_pairs[bid]) - 1
        hit_t, hit_f, miss_t, miss_f = rows.by_family[
            block_tags[bid] if is_hybrid else base_scheme
        ]
        outcomes = []
        if l0_possible[bid]:
            outcomes.append(rows.buffer_hit_cycles + tail)
        hit_possible = bid not in cache_cls.always_miss
        miss_possible = bid not in cache_cls.always_hit
        if not hit_possible and not miss_possible:  # defensive: ⊥ block
            hit_possible = miss_possible = True
        if hit_possible:
            outcomes.append(hit_t[0] + hit_t[1] * extra + tail)
            outcomes.append(hit_f[0] + hit_f[1] * extra + tail)
        if miss_possible:
            outcomes.append(miss_t[0] + miss_t[1] * extra + tail)
            outcomes.append(miss_f[0] + miss_f[1] * extra + tail)
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
        scheme=scheme,
        lower=lower,
        upper=upper,
        fetches=fetches,
        classification=classification,
    )


__all__ = [
    "BoundsReport",
    "Classification",
    "FetchClassification",
    "classify_fetch",
    "cycle_bounds",
]
