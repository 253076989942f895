"""The fetch machine: a columnar, multi-configuration trace replay.

:func:`~repro.fetch.engine.simulate_fetch_reference` is the readable,
object-per-structure model of Table 1.  This module states the same
machine once more, factored so that a whole grid of
:class:`~repro.fetch.config.FetchConfig` points shares one trace pass
per independent component; :func:`~repro.fetch.engine.simulate_fetch`
is a one-point call of :func:`simulate_fetch_sweep`.

* **Trace state** — a :class:`TraceReplay` holds what every replay of
  one trace shares: each block's occurrence count and first position
  (one entry per distinct block, filled at C speed), and per program
  image its block columns, delivered totals and predictor components.
  Every call builds its own unless handed one; a
  :class:`~repro.core.study.ProgramStudy` hands over the one it keeps
  for its trace, so its organizations and sweeps share them.
* **Program facts** — block kinds/targets/fallthroughs and MultiOp/op
  counts come from :func:`block_meta_columns`, and the
  delivered-ops/MultiOps totals of the trace follow from the counts:
  :meth:`TraceReplay.program` derives both once per program image.
* **Predictor components** — the ATB and its resident predictor state
  never observe the cache, so their entire evolution depends only on
  ``(atb_entries, atb_ways, predictor, gshare_history_bits)``.  One
  trace pass per *distinct* tuple and program yields the ATB hit/miss
  counts, the prediction-accuracy counters, and a per-position "was
  the prediction correct" bitmap, memoized on the trace state.
* **Cache components** — the L0 buffer, banked L1, and bus never
  observe the predictor, so their evolution depends only on
  ``(geometry, scheme, l0 capacity, bus width)``.  Each distinct tuple
  yields the hit/miss/bus counters, per-position buffer-hit and
  cache-miss bitmaps, and the mispredicted-path cycle total
  ``cycles_f`` (every position charged at its pred-incorrect Table 1
  row).  It is computed in two passes:

  - The **L0 pass** walks the buffer, which never observes the L1
    either, so it depends only on ``(image, scheme family, l0
    capacity)``: a grid's geometries share one walk per buffer size.
  - The **L1 + bus pass** first splits the sets.  A set whose distinct
    lines, over the blocks present in the trace, number at most
    ``ways`` never evicts, so each of its lines misses exactly once, at
    the first access that touches it.  Only the blocks touching an
    *evicting* set are replayed, at their positions minus the L0's
    buffer hits (a C-speed filter over the trace), and against those
    sets alone; a block whose replayed lines lie in distinct sets
    probes and installs each in one step.  Hits and cycles follow
    from each block's occurrence count times its per-block costs plus
    one correction per miss event, and the bus walks the miss events
    in trace order.

  This is exact: LRU sets evolve independently; probe-all-then-install
  (``BankedCache.access_block``) couples only lines of one block that
  fall in one set, and the replay keeps it; a set with at most ``ways``
  distinct lines never evicts; and every block's first occurrence
  misses the L0, because the buffer starts empty, so a line's first
  touch is the first occurrence of the earliest block holding it with
  or without a buffer.
* **Combine** — Table 1 rows for one (scheme, outcome) differ between
  correct and incorrect prediction by a *constant* (their per-extra-line
  slopes are equal, which :func:`~repro.fetch.config.penalty_rows`
  checks when it resolves the table), so each configuration's exact
  cycle count is recovered from its two components with two bitmap
  intersections (an L0 buffer hit costs 1 cycle either way, so
  correctly-predicted cache *hits* are the remainder)::

      pm = |pred_ok & cache_miss|
      pb = |pred_ok & buffer_hit|
      cycles = cycles_f
               - dh * (pred_correct - pm - pb)
               - dm * pm
               + atb_miss_penalty * atb_misses

  The bitmaps are Python big-ints (one bit per trace position), so the
  intersections run at C speed via
  :func:`~repro.utils.arith.popcount`.

:func:`simulate_fetch_sweep_multi` extends the sharing across schemes:
the predictor machine never observes the compressed image (only the
block metadata of the underlying program), so one grid that mixes
``base``/``tailored``/``compressed``/``hybrid`` points over the same
program computes each distinct predictor component once, not once per
scheme.  Hybrid keys carry their profile source (``hybrid@T`` vs
``hybrid@T:static``) into the image key, so trace-profiled and
static-profiled points in one grid sweep different images under the
same machinery.  Hybrid points charge each block at its ATT scheme tag
("tailored" hot rows, "compressed" cold rows) and probe the L0 only for
cold blocks; the single ``dh``/``dm`` discount stays exact because
Table 1 uses the same discounts in every family.

Every per-config result is **bit-identical** to
:func:`~repro.fetch.engine.simulate_fetch_reference` — enforced by the
``fetch`` and ``sweep`` check scopes, ``tests/test_kernel_differential.py``
and ``tests/test_fetch_sweep.py``.
"""

from __future__ import annotations

from collections import Counter
from functools import cached_property
from itertools import compress
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.compression.schemes import CompressedImage
from repro.errors import ConfigurationError
from repro.fetch.atb import att_bytes
from repro.fetch.branch_predict import (
    KIND_CALL,
    KIND_COND_BRANCH,
    KIND_FALLTHROUGH,
    KIND_HALT,
    KIND_JUMP,
    KIND_RET,
    STRONG_TAKEN,
    WEAK_TAKEN,
    BlockMeta,
)
from repro.fetch.config import (
    CacheGeometry,
    FetchConfig,
    block_families,
    organization,
    penalty_rows,
)
from repro.fetch.engine import FetchMetrics
from repro.isa.image import ProgramImage
from repro.utils.arith import popcount

__all__ = [
    "BlockCosts",
    "ProgramFacts",
    "TraceReplay",
    "block_bus_beats",
    "block_costs",
    "block_meta_columns",
    "block_span_pairs",
    "config_to_json",
    "simulate_fetch_sweep",
    "simulate_fetch_sweep_multi",
]


# ------------------------------------------------------- block columns
def block_meta_columns(image) -> tuple:
    """``(kinds, targets, falls, mop_counts, op_counts)`` flat columns.

    One pass over :class:`BlockMeta` per block; ``-1`` encodes "no
    target"/"no fallthrough".
    """
    nblocks = len(image)
    kinds = [0] * nblocks
    targets = [-1] * nblocks
    falls = [-1] * nblocks
    mop_counts = [0] * nblocks
    op_counts = [0] * nblocks
    for block in image:
        meta = BlockMeta.from_block(block)
        bid = meta.block_id
        kinds[bid] = meta.kind
        targets[bid] = -1 if meta.target is None else meta.target
        falls[bid] = -1 if meta.fallthrough is None else meta.fallthrough
        mop_counts[bid] = meta.mop_count
        op_counts[bid] = meta.op_count
    return kinds, targets, falls, mop_counts, op_counts


def block_span_pairs(compressed: CompressedImage, geometry) -> list:
    """Per-block ``((set_index, line), ...)`` tuples for one geometry.

    Mirrors ``BankedCache``'s odd/even banking: line parity selects the
    bank, the halved line number selects the set within it.
    """
    line_bytes = geometry.line_bytes
    half_sets = geometry.num_sets >> 1
    span_pairs = []
    for bid in range(len(compressed.image)):
        start = compressed.block_offset(bid)
        size = max(1, compressed.block_size(bid))
        first = start // line_bytes
        last = (start + size - 1) // line_bytes
        span_pairs.append(tuple(
            ((((line >> 1) % half_sets) << 1) | (line & 1), line)
            for line in range(first, last + 1)
        ))
    return span_pairs


def block_bus_beats(
    compressed: CompressedImage, bus_width: int
) -> tuple[list, list]:
    """``(beats_by_block, payload_lens)`` for one bus width.

    Beats are big-endian words zero-padded like ``BusModel``'s, but
    only to the longest payload's length when the bus is wider: the
    zero tail past every payload byte never flips, so shortening it
    shifts every beat alike and leaves each flip count unchanged.
    """
    payloads = [
        bytes(compressed.block_payloads[bid])
        for bid in range(len(compressed.image))
    ]
    width = min(bus_width, max(map(len, payloads), default=0))
    beats_by_block: list[list[int]] = []
    for payload in payloads:
        beats = []
        for i in range(0, len(payload), bus_width):
            chunk = payload[i : i + bus_width]
            beats.append(
                int.from_bytes(chunk, "big") << 8 * (width - len(chunk))
            )
        beats_by_block.append(beats)
    return beats_by_block, [len(payload) for payload in payloads]


class BlockCosts(NamedTuple):
    """Per-block fetch costs of one image under one configuration.

    Each block is charged at its own Table 1 penalty family (a hybrid
    block at its ATT scheme tag), as initiation cycles plus its
    streaming tail of one cycle per further MultiOp.  ``hit_t`` and
    ``hit_f`` are an L1 hit with the prediction correct and incorrect,
    ``miss_t`` and ``miss_f`` an L1 miss, ``buffer`` an L0 hit.
    ``l0_probe`` says whether a fetch of the block probes the L0 buffer
    (every block under Compressed, the tagged-cold ones under a hybrid,
    none without a buffer); ``l0_fits`` whether it can also be resident
    there, which takes no more ops than the buffer's capacity.
    """

    l0_probe: List[bool]
    l0_fits: List[bool]
    hit_t: List[int]
    hit_f: List[int]
    miss_t: List[int]
    miss_f: List[int]
    buffer: List[int]


def block_costs(
    compressed: CompressedImage,
    config: FetchConfig,
    span_pairs: Sequence[tuple],
) -> BlockCosts:
    """:class:`BlockCosts` for ``compressed`` under ``config``.

    ``span_pairs`` is :func:`block_span_pairs` for the config's cache
    (a block spanning ``n`` lines pays the per-line slope ``n - 1``
    times).  Raises :class:`ConfigurationError` where
    :func:`~repro.fetch.config.block_families` does.
    """
    image = compressed.image
    families, l0_probe = block_families(compressed, config.scheme)
    rows = penalty_rows()
    capacity = config.l0_capacity_ops
    l0_fits = []
    columns: Tuple[List[int], ...] = ([], [], [], [])
    buffer = []
    for bid, family in enumerate(families):
        block = image.block(bid)
        l0_fits.append(l0_probe[bid] and block.op_count <= capacity)
        extra = len(span_pairs[bid]) - 1
        tail = block.mop_count - 1
        for column, (cycles, per_line) in zip(
            columns, rows.by_family[family]
        ):
            column.append(cycles + per_line * extra + tail)
        buffer.append(rows.buffer_hit_cycles + tail)
    return BlockCosts(l0_probe, l0_fits, *columns, buffer)


# ------------------------------------------------------------ JSON form
def config_to_json(config: FetchConfig) -> dict:
    """A JSON-serializable dict capturing one :class:`FetchConfig`."""
    return {
        "scheme": config.scheme,
        "cache": {
            "name": config.cache.name,
            "capacity_bytes": config.cache.capacity_bytes,
            "ways": config.cache.ways,
            "line_bytes": config.cache.line_bytes,
        },
        "atb_entries": config.atb_entries,
        "atb_ways": config.atb_ways,
        "atb_miss_penalty": config.atb_miss_penalty,
        "l0_capacity_ops": config.l0_capacity_ops,
        "bus_bytes": config.bus_bytes,
        "predictor": config.predictor,
        "gshare_history_bits": config.gshare_history_bits,
    }


# --------------------------------------------------- predictor component
def _predictor_component(
    kinds: Sequence[int],
    targets: Sequence[int],
    falls: Sequence[int],
    trace: Sequence[int],
    atb_entries: int,
    atb_ways: int,
    predictor: str,
    history_bits: int,
) -> Tuple[int, int, int, int]:
    """One trace pass of the ATB + predictor machine.

    Returns ``(pred_ok_mask, pred_correct, atb_hits, atb_misses)``
    where ``pred_ok_mask`` holds one bit per trace position (the i-th
    position's bit is set iff fetch predicted that block).  The ATB is
    set-associative with LRU replacement, and each entry hosts its
    block's predictor state as a two-slot ``[counter, last_target]``
    list.  Training is deferred by one iteration: the successor a block
    trains on *is* the next trace entry, so training block i at the top
    of iteration i+1 needs no lookahead indexing.  State-wise this is
    identical to the reference (prediction for a block always happens
    before that block's own training, in both orderings).
    """
    num_atb_sets = atb_entries // atb_ways
    atb_mask = num_atb_sets - 1
    atb_sets: List[Dict[int, list]] = [{} for _ in range(num_atb_sets)]
    atb_bucket_of = [atb_sets[bid & atb_mask] for bid in range(len(kinds))]

    use_gshare = predictor == "gshare"
    if use_gshare:
        g_mask = (1 << history_bits) - 1
        g_history = 0
        g_counters = [WEAK_TAKEN] * (1 << history_bits)

    atb_misses = 0
    # One byte per position; 0x01 bytes survive int conversion as the
    # position bitmap the combine step intersects at C speed.
    pred_bits = bytearray(len(trace))

    # Cold start counts as a correct prediction (reference semantics),
    # expressed by seeding ``predicted`` with the first trace entry.
    predicted = trace[0] if len(trace) else -1
    prev_kind = -1  # sentinel: nothing to train yet
    prev_block = -1
    prev_entry = [0, -1]

    for position, block_id in enumerate(trace):
        if prev_kind == KIND_COND_BRANCH:
            if use_gshare:
                index = (prev_block ^ g_history) & g_mask
                if block_id == targets[prev_block]:
                    if g_counters[index] < STRONG_TAKEN:
                        g_counters[index] += 1
                    g_history = ((g_history << 1) | 1) & g_mask
                else:
                    if g_counters[index] > 0:
                        g_counters[index] -= 1
                    g_history = (g_history << 1) & g_mask
            elif block_id == targets[prev_block]:
                if prev_entry[0] < STRONG_TAKEN:
                    prev_entry[0] += 1
                prev_entry[1] = block_id
            else:
                if prev_entry[0] > 0:
                    prev_entry[0] -= 1
        elif prev_kind == KIND_RET or prev_kind == KIND_CALL:
            prev_entry[1] = block_id

        if predicted == block_id:
            pred_bits[position] = 1

        bucket = atb_bucket_of[block_id]
        entry = bucket.pop(block_id, None)
        if entry is not None:
            bucket[block_id] = entry
        else:
            atb_misses += 1
            if len(bucket) >= atb_ways:
                del bucket[next(iter(bucket))]
            entry = [WEAK_TAKEN, -1]
            bucket[block_id] = entry

        kind = kinds[block_id]
        if kind == KIND_FALLTHROUGH:
            predicted = falls[block_id]
        elif kind == KIND_HALT:
            predicted = -1
        elif kind == KIND_RET:
            predicted = entry[1]
        elif kind == KIND_JUMP or kind == KIND_CALL:
            predicted = targets[block_id]
        elif use_gshare:
            predicted = (
                targets[block_id]
                if g_counters[(block_id ^ g_history) & g_mask]
                >= WEAK_TAKEN
                else falls[block_id]
            )
        else:
            predicted = (
                targets[block_id]
                if entry[0] >= WEAK_TAKEN
                else falls[block_id]
            )
        prev_kind = kind
        prev_block = block_id
        prev_entry = entry

    return (
        int.from_bytes(pred_bits, "big"),
        pred_bits.count(1),
        len(trace) - atb_misses,
        atb_misses,
    )


# ---------------------------------------------------------- trace state
def _per_position(trace: Sequence[int], flags: Sequence[bool]) -> bytes:
    """``flags[block]`` at every position of ``trace``, one byte each.

    A ``'B'`` array (the emulators' trace of any image of at most 256
    blocks) is translated at C speed; any other sequence is mapped.
    """
    if getattr(trace, "typecode", None) == "B":
        table = bytes(flags[:256]).ljust(256, b"\0")
        return bytes(trace).translate(table)
    return bytes(map(bytes(flags).__getitem__, trace))


class ProgramFacts(NamedTuple):
    """One program image's :func:`block_meta_columns` and the ops and
    MultiOps its trace delivers."""

    kinds: List[int]
    targets: List[int]
    falls: List[int]
    mop_counts: List[int]
    op_counts: List[int]
    delivered_mops: int
    delivered_ops: int


class TraceReplay:
    """What every fetch replay of one block trace shares.

    ``counts`` maps each block in the trace to its occurrence count and
    ``first_at`` to its first position, keys in order of first
    occurrence; both are filled at C speed on first use and hold one
    entry per distinct block, never one per position.  ``programs``
    maps each :class:`~repro.isa.image.ProgramImage` object to its
    :class:`ProgramFacts`, and ``predictions`` memoizes predictor
    components by ``(image, ATB entries, ATB ways, predictor, gshare
    bits)``: the ATB and predictor never observe the cache or the
    payload, so every organization of one program shares them.  A
    :class:`~repro.core.study.ProgramStudy` holds one for its trace and
    binds every compressed image to its one program image, so it
    derives each program fact and runs each predictor pass once.
    """

    def __init__(self, trace: Sequence[int]) -> None:
        self.trace = trace
        self.programs: Dict[ProgramImage, ProgramFacts] = {}
        self.predictions: Dict[tuple, tuple] = {}

    def program(self, image: ProgramImage) -> ProgramFacts:
        """``image``'s :class:`ProgramFacts` over this trace (memoized)."""
        facts = self.programs.get(image)
        if facts is None:
            kinds, targets, falls, mops, ops = block_meta_columns(image)
            counts = self.counts.items()
            facts = self.programs[image] = ProgramFacts(
                kinds, targets, falls, mops, ops,
                sum(count * mops[block] for block, count in counts),
                sum(count * ops[block] for block, count in counts),
            )
        return facts

    @cached_property
    def counts(self) -> Counter:
        return Counter(self.trace)

    @cached_property
    def first_at(self) -> Dict[int, int]:
        trace = self.trace
        # array.index takes no start before Python 3.10; these do.
        if getattr(trace, "typecode", None) == "B":
            trace = bytes(trace)
        else:
            trace = list(trace)
        # Blocks run in order of first occurrence, so each search starts
        # where the previous one stopped: one scan of the trace in all.
        first_at = {}
        position = 0
        for block_id in self.counts:
            position = trace.index(block_id, position)
            first_at[block_id] = position
        return first_at


def _replay_of(trace: Sequence[int], replay) -> TraceReplay:
    """``replay`` checked against ``trace``, or a fresh state for it."""
    if replay is None:
        return TraceReplay(trace)
    if replay.trace is not trace:
        raise ValueError("the replay state belongs to another trace")
    return replay


# ------------------------------------------------------- cache component
class _L0Pass(NamedTuple):
    """What the L0 buffer did over one trace.

    ``hit_bits`` holds one byte per position, 1 at a buffer hit (empty
    without a buffer), and ``hit_mask`` is the same bitmap as a big-int
    for the combine step.  ``cycles`` is the buffer hits' Table 1 cost
    and ``hits_by_block`` counts each block's buffer hits.
    """

    hit_bits: bytes
    hit_mask: int
    hits: int
    misses: int
    cycles: int
    hits_by_block: Counter


#: The L0 pass of an organization without a buffer.
_NO_L0 = _L0Pass(b"", 0, 0, 0, 0, Counter())


def _l0_pass(
    replay: TraceReplay,
    costs: BlockCosts,
    op_counts: Sequence[int],
    capacity: int,
) -> _L0Pass:
    """One walk of the L0 buffer (fully associative by block, LRU).

    The buffer never observes the L1, so its walk depends only on the
    image, the scheme family (which blocks probe it) and its capacity,
    and a grid's geometries share it.  Only blocks that fit are walked:
    a probing block larger than the buffer always misses and never
    changes the buffer's contents.
    """
    trace = replay.trace
    hit_bits = bytearray(len(trace))
    l0: Dict[int, int] = {}
    used = 0
    for position, block_id in compress(
        enumerate(trace), _per_position(trace, costs.l0_fits)
    ):
        resident = l0.pop(block_id, None)
        if resident is not None:
            l0[block_id] = resident
            hit_bits[position] = 1
        else:
            op_count = op_counts[block_id]
            while used + op_count > capacity:
                used -= l0.pop(next(iter(l0)))
            l0[block_id] = op_count
            used += op_count
    hits_by_block = Counter(compress(trace, hit_bits))
    hits = sum(hits_by_block.values())
    l0_probe = costs.l0_probe
    probes = sum(
        count
        for block_id, count in replay.counts.items()
        if l0_probe[block_id]
    )
    buffer = costs.buffer
    cycles = sum(
        count * buffer[block_id]
        for block_id, count in hits_by_block.items()
    )
    return _L0Pass(
        bytes(hit_bits), int.from_bytes(hit_bits, "big"),
        hits, probes - hits, cycles, hits_by_block,
    )


class _CacheComponent(NamedTuple):
    """Everything one (geometry, scheme, L0, bus) tuple produced.

    Only the miss and buffer-hit bitmaps are kept — a position that is
    in neither is a cache hit, so the combine step never needs a hit
    bitmap (``ph = pred_correct - pm - pb``).
    """

    miss_mask: int
    buf_mask: int
    cycles_f: int
    cache_hits: int
    cache_misses: int
    lines_fetched: int
    buffer_hits: int
    buffer_misses: int
    bus_bytes: int
    bus_beats: int
    bus_flips: int


def _cache_component(
    replay: TraceReplay,
    span_pairs: Sequence[tuple],
    ways: int,
    costs: BlockCosts,
    l0: _L0Pass,
    beats_by_block: Sequence[list],
    payload_lens: Sequence[int],
) -> _CacheComponent:
    """The banked L1 + bus machine behind the L0 pass ``l0``.

    Charges every position at its pred-*incorrect* Table 1 cost (the
    combine step subtracts the constant correct-prediction discount per
    intersected position).  A line of a set that never evicts misses
    once, at the first occurrence of the earliest block holding it; only
    the blocks touching an evicting set are replayed, and only against
    those sets (the module docstring says why this is exact).
    """
    trace = replay.trace
    first_at = replay.first_at
    lines_of_set: Dict[int, set] = {}
    for block_id in first_at:
        for set_index, line in span_pairs[block_id]:
            lines_of_set.setdefault(set_index, set()).add(line)
    buckets: Dict[int, Dict[int, bool]] = {
        set_index: {}
        for set_index, lines in lines_of_set.items()
        if len(lines) > ways
    }

    # One byte per position, 1 where the access missed: the first
    # touches of lines in never-evicting sets, then the replay's misses.
    miss_bits = bytearray(len(trace))
    touched = set()
    replayed = [False] * len(span_pairs)
    # A block's replayed (bucket, line) pairs: in ``single`` when there
    # is one, in ``spread`` when each lies in its own set, in
    # ``coupled`` when two share one.
    single: List[tuple] = [None] * len(span_pairs)
    spread: List[tuple] = [None] * len(span_pairs)
    coupled: List[tuple] = [None] * len(span_pairs)
    for block_id, first in first_at.items():
        spans = []
        sets = set()
        for set_index, line in span_pairs[block_id]:
            bucket = buckets.get(set_index)
            if bucket is not None:
                spans.append((bucket, line))
                sets.add(set_index)
            elif line not in touched:
                touched.add(line)
                miss_bits[first] = 1
        if spans:
            replayed[block_id] = True
            if len(spans) == 1:
                single[block_id] = spans[0]
            elif len(sets) == len(spans):
                spread[block_id] = tuple(spans)
            else:
                coupled[block_id] = tuple(spans)

    lines_fetched = len(touched)
    order = ()
    if any(replayed):
        selected = _per_position(trace, replayed)
        if l0.hit_mask:
            selected = (
                int.from_bytes(selected, "big") & ~l0.hit_mask
            ).to_bytes(len(trace), "big")
        order = compress(enumerate(trace), selected)
    for position, block_id in order:
        one = single[block_id]
        if one is not None:
            bucket, line = one
            if bucket.pop(line, False):
                bucket[line] = True
                continue
            missing = 1
            if len(bucket) >= ways:
                del bucket[next(iter(bucket))]
            bucket[line] = True
        else:
            spans = spread[block_id]
            missing = 0
            if spans is not None:
                # Lines in distinct sets cannot evict one another, so
                # each is probed and installed in one step.
                for bucket, line in spans:
                    if bucket.pop(line, False):
                        bucket[line] = True
                        continue
                    missing += 1
                    if len(bucket) >= ways:
                        del bucket[next(iter(bucket))]
                    bucket[line] = True
            else:
                # Two phases, like BankedCache.access_block: probe every
                # line before touching any, so an install cannot evict
                # a sibling line that should have counted as resident.
                spans = coupled[block_id]
                for bucket, line in spans:
                    if line not in bucket:
                        missing += 1
                for bucket, line in spans:
                    if line in bucket:
                        del bucket[line]
                    elif len(bucket) >= ways:
                        del bucket[next(iter(bucket))]
                    bucket[line] = True
            if not missing:
                continue
        miss_bits[position] = 1
        lines_fetched += missing

    hit_cost_f = costs.hit_f
    miss_cost_f = costs.miss_f
    buffer_hits_of = l0.hits_by_block
    cycles_f = l0.cycles + sum(
        (count - buffer_hits_of[block_id]) * hit_cost_f[block_id]
        for block_id, count in replay.counts.items()
    )
    misses_of = Counter(compress(trace, miss_bits))
    bus_beats = bus_bytes = 0
    for block_id, count in misses_of.items():
        cycles_f += count * (miss_cost_f[block_id] - hit_cost_f[block_id])
        bus_beats += count * len(beats_by_block[block_id])
        bus_bytes += count * payload_lens[block_id]
    bus_state = bus_flips = 0
    count_ones = popcount
    for block_id in compress(trace, miss_bits):
        for beat in beats_by_block[block_id]:
            bus_flips += count_ones(beat ^ bus_state)
            bus_state = beat

    cache_misses = sum(misses_of.values())
    return _CacheComponent(
        miss_mask=int.from_bytes(miss_bits, "big"),
        buf_mask=l0.hit_mask,
        cycles_f=cycles_f,
        cache_hits=len(trace) - l0.hits - cache_misses,
        cache_misses=cache_misses,
        lines_fetched=lines_fetched,
        buffer_hits=l0.hits,
        buffer_misses=l0.misses,
        bus_bytes=bus_bytes,
        bus_beats=bus_beats,
        bus_flips=bus_flips,
    )


# -------------------------------------------------------------- the sweep
def _geometry_key(geometry: CacheGeometry) -> tuple:
    """Behavioral identity of a geometry (the name is presentation)."""
    return (geometry.capacity_bytes, geometry.ways, geometry.line_bytes)


def _sweep_engine(
    image_for,
    replay: TraceReplay,
    configs: Sequence[FetchConfig],
) -> List[FetchMetrics]:
    """Shared body of the two public sweep entry points.

    ``image_for(scheme)`` resolves the :class:`CompressedImage` a config
    of that scheme replays against.  What derives from the underlying
    *program* (block columns, delivered totals, predictor components)
    lives on ``replay``, keyed by the program image, so a mixed-scheme
    grid pays for each distinct predictor once and later calls handed
    the same replay pay nothing.  What derives from the compressed
    *payload* (spans, bus beats, L0 passes, cache components, joint
    counts, ATT bytes) is memoized per call, keyed by the compressed
    image.
    """
    rows = penalty_rows()
    results: List[FetchMetrics] = []
    trace = replay.trace
    blocks_fetched = len(trace)

    # ----------------------------------------------------- memo tables
    pred_comps = replay.predictions         # (image, pred key)
    cache_comps: Dict[tuple, _CacheComponent] = {}
    l0_memo: Dict[tuple, _L0Pass] = {}      # (compressed, family, L0)
    span_memo: Dict[tuple, list] = {}       # (compressed, line, sets)
    beats_memo: Dict[tuple, tuple] = {}     # (compressed, bus width)
    att_memo: Dict[tuple, int] = {}         # (compressed, geo key)
    joint_memo: Dict[tuple, tuple] = {}

    for config in configs:
        scheme = config.scheme
        org = organization(scheme)
        compressed = image_for(scheme)
        image = compressed.image
        program = replay.program(image)

        has_buffer = org.l0
        geometry = config.cache
        geo_key = _geometry_key(geometry)

        pred_key = (
            image,
            config.atb_entries,
            config.atb_ways,
            config.predictor,
            config.gshare_history_bits
            if config.predictor == "gshare"
            else None,
        )
        pred = pred_comps.get(pred_key)
        if pred is None:
            pred = _predictor_component(
                program.kinds, program.targets, program.falls, trace,
                config.atb_entries, config.atb_ways,
                config.predictor, config.gshare_history_bits,
            )
            pred_comps[pred_key] = pred
        pred_mask, pred_right, atb_hits, atb_misses = pred

        bus_width = config.bus_bytes
        cache_key = (
            compressed,
            geo_key,
            org.name,
            config.l0_capacity_ops if has_buffer else None,
            bus_width,
        )
        comp = cache_comps.get(cache_key)
        if comp is None:
            span_key = (compressed, geometry.line_bytes, geometry.num_sets)
            span_pairs = span_memo.get(span_key)
            if span_pairs is None:
                span_pairs = block_span_pairs(compressed, geometry)
                span_memo[span_key] = span_pairs

            beats_key = (compressed, bus_width)
            beats = beats_memo.get(beats_key)
            if beats is None:
                beats = block_bus_beats(compressed, bus_width)
                beats_memo[beats_key] = beats
            beats_by_block, payload_lens = beats

            costs = block_costs(compressed, config, span_pairs)
            l0 = _NO_L0
            if has_buffer:
                l0_key = (compressed, org.name, config.l0_capacity_ops)
                l0 = l0_memo.get(l0_key)
                if l0 is None:
                    l0 = _l0_pass(
                        replay, costs, program.op_counts,
                        config.l0_capacity_ops,
                    )
                    l0_memo[l0_key] = l0
            comp = _cache_component(
                replay, span_pairs, geometry.ways, costs, l0,
                beats_by_block, payload_lens,
            )
            cache_comps[cache_key] = comp

        joint_key = (pred_key, cache_key)
        joint = joint_memo.get(joint_key)
        if joint is None:
            joint = (
                popcount(pred_mask & comp.miss_mask),
                popcount(pred_mask & comp.buf_mask)
                if has_buffer
                else 0,
            )
            joint_memo[joint_key] = joint
        pred_ok_misses, pred_ok_bufs = joint
        pred_ok_hits = pred_right - pred_ok_misses - pred_ok_bufs

        att_key = (compressed, geo_key)
        att = att_memo.get(att_key)
        if att is None:
            att = att_bytes(compressed, geometry)
            att_memo[att_key] = att

        metrics = FetchMetrics(scheme=scheme)
        metrics.code_bytes = compressed.total_code_bytes
        metrics.att_bytes = att
        metrics.cycles = (
            comp.cycles_f
            - rows.dh * pred_ok_hits
            - rows.dm * pred_ok_misses
            + config.atb_miss_penalty * atb_misses
        )
        metrics.delivered_ops = program.delivered_ops
        metrics.delivered_mops = program.delivered_mops
        metrics.blocks_fetched = blocks_fetched
        metrics.cache_hits = comp.cache_hits
        metrics.cache_misses = comp.cache_misses
        metrics.lines_fetched = comp.lines_fetched
        metrics.buffer_hits = comp.buffer_hits
        metrics.buffer_misses = comp.buffer_misses
        metrics.pred_correct = pred_right
        metrics.pred_incorrect = blocks_fetched - pred_right
        metrics.atb_hits = atb_hits
        metrics.atb_misses = atb_misses
        metrics.bus_bytes = comp.bus_bytes
        metrics.bus_beats = comp.bus_beats
        metrics.bus_bit_flips = comp.bus_flips
        metrics.extra["line_bytes"] = geometry.line_bytes
        results.append(metrics)

    return results


def simulate_fetch_sweep(
    compressed: CompressedImage,
    trace: Sequence[int],
    configs: Sequence[FetchConfig],
    *,
    replay: Optional[TraceReplay] = None,
) -> List[FetchMetrics]:
    """Replay ``trace`` once for many configurations at once.

    Returns one :class:`~repro.fetch.engine.FetchMetrics` per entry of
    ``configs``, in order, each bit-identical to
    ``simulate_fetch_reference(compressed, trace, config)``.  ``replay``
    is a :class:`TraceReplay` of this same ``trace`` whose program
    facts and predictor outcomes the call reads and extends; without
    it the call builds its own.
    """
    return _sweep_engine(
        lambda scheme: compressed, _replay_of(trace, replay), configs
    )


def simulate_fetch_sweep_multi(
    images: Dict[str, CompressedImage],
    trace: Sequence[int],
    configs: Sequence[FetchConfig],
    *,
    replay: Optional[TraceReplay] = None,
) -> List[FetchMetrics]:
    """Sweep a mixed-scheme grid, one image per scheme.

    ``images`` maps each scheme appearing in ``configs`` to the
    compressed image its points replay against (typically the per-scheme
    images of one :class:`~repro.core.study.ProgramStudy`).  Equivalent
    to concatenating per-scheme :func:`simulate_fetch_sweep` calls,
    except predictor components — which depend only on the underlying
    program — are shared across schemes whose images wrap the same
    program image.  ``replay`` is as for :func:`simulate_fetch_sweep`.
    """

    def image_for(scheme: str) -> CompressedImage:
        try:
            return images[scheme]
        except KeyError:
            raise ConfigurationError(
                f"no compressed image supplied for scheme {scheme!r}"
            ) from None

    return _sweep_engine(image_for, _replay_of(trace, replay), configs)
