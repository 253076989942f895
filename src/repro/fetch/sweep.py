"""The fetch machine: a columnar, multi-configuration trace replay.

:func:`~repro.fetch.engine.simulate_fetch_reference` is the readable,
object-per-structure model of Table 1.  This module states the same
machine once more, factored so that a whole grid of
:class:`~repro.fetch.config.FetchConfig` points shares one trace pass
per independent component; :func:`~repro.fetch.engine.simulate_fetch`
is a one-point call of :func:`simulate_fetch_sweep`.

* **Shared columns** — block kinds/targets/fallthroughs and MultiOp/op
  counts come from :func:`block_meta_columns`, and the
  delivered-ops/MultiOps/blocks totals of a trace are computed once for
  every configuration.
* **Predictor components** — the ATB and its resident predictor state
  never observe the cache, so their entire evolution depends only on
  ``(atb_entries, atb_ways, predictor, gshare_history_bits)``.  One
  trace pass per *distinct* tuple yields the ATB hit/miss counts, the
  prediction-accuracy counters, and a per-position "was the prediction
  correct" bitmap.
* **Cache components** — the L0 buffer, banked L1, and bus never
  observe the predictor, so their evolution depends only on
  ``(geometry, scheme, l0 capacity, bus width)``.  One trace pass per
  distinct tuple yields the hit/miss/bus counters, per-position
  buffer-hit and cache-miss bitmaps, and the mispredicted-path cycle
  total ``cycles_f`` (every position charged at its pred-incorrect
  Table 1 row).
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
  intersections run at C speed via ``int.bit_count``.

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

from typing import Dict, List, NamedTuple, Sequence, Tuple

from repro.compression.registry import fetch_scheme_base
from repro.compression.schemes import CompressedImage
from repro.errors import ConfigurationError
from repro.fetch.atb import att_bytes
from repro.fetch.branch_predict import BlockMeta
from repro.fetch.config import CacheGeometry, FetchConfig, penalty_rows
from repro.fetch.engine import FetchMetrics

__all__ = [
    "BlockCosts",
    "block_bus_beats",
    "block_costs",
    "block_meta_columns",
    "block_span_pairs",
    "config_to_json",
    "simulate_fetch_sweep",
    "simulate_fetch_sweep_multi",
]

#: BlockMeta terminator kinds, mirrored locally (see branch_predict).
_FALLTHROUGH, _COND, _JUMP, _CALL, _RET, _HALT = range(6)

#: 2-bit counter thresholds (branch_predict.WEAK_TAKEN / STRONG_TAKEN).
_WEAK_TAKEN = 2
_STRONG_TAKEN = 3


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
    times).  Raises :class:`ConfigurationError` for a scheme outside
    the fetch families, or a hybrid image without scheme tags.
    """
    scheme = config.scheme
    base_scheme = fetch_scheme_base(scheme)
    if base_scheme not in ("base", "tailored", "compressed", "hybrid"):
        raise ConfigurationError(f"unknown fetch scheme {scheme!r}")
    image = compressed.image
    nblocks = len(image)
    if base_scheme == "hybrid":
        families = compressed.block_scheme_tags()
        if families is None:
            raise ConfigurationError(
                "hybrid fetch needs an image with per-block scheme tags"
            )
        l0_probe = [family == "compressed" for family in families]
    else:
        families = [base_scheme] * nblocks
        l0_probe = [base_scheme == "compressed"] * nblocks
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
    nblocks: int,
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
    atb_bucket_of = [atb_sets[bid & atb_mask] for bid in range(nblocks)]

    use_gshare = predictor == "gshare"
    if use_gshare:
        g_mask = (1 << history_bits) - 1
        g_history = 0
        g_counters = [_WEAK_TAKEN] * (1 << history_bits)

    pred_right = 0
    atb_hits = atb_misses = 0
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
        if prev_kind == _COND:
            if use_gshare:
                index = (prev_block ^ g_history) & g_mask
                if block_id == targets[prev_block]:
                    if g_counters[index] < _STRONG_TAKEN:
                        g_counters[index] += 1
                    g_history = ((g_history << 1) | 1) & g_mask
                else:
                    if g_counters[index] > 0:
                        g_counters[index] -= 1
                    g_history = (g_history << 1) & g_mask
            elif block_id == targets[prev_block]:
                if prev_entry[0] < _STRONG_TAKEN:
                    prev_entry[0] += 1
                prev_entry[1] = block_id
            else:
                if prev_entry[0] > 0:
                    prev_entry[0] -= 1
        elif prev_kind == _RET or prev_kind == _CALL:
            prev_entry[1] = block_id

        if predicted == block_id:
            pred_right += 1
            pred_bits[position] = 1

        bucket = atb_bucket_of[block_id]
        entry = bucket.pop(block_id, None)
        if entry is not None:
            bucket[block_id] = entry
            atb_hits += 1
        else:
            atb_misses += 1
            if len(bucket) >= atb_ways:
                del bucket[next(iter(bucket))]
            entry = [_WEAK_TAKEN, -1]
            bucket[block_id] = entry

        kind = kinds[block_id]
        if kind == _FALLTHROUGH:
            predicted = falls[block_id]
        elif kind == _HALT:
            predicted = -1
        elif kind == _RET:
            predicted = entry[1]
        elif kind == _JUMP or kind == _CALL:
            predicted = targets[block_id]
        elif use_gshare:
            predicted = (
                targets[block_id]
                if g_counters[(block_id ^ g_history) & g_mask]
                >= _WEAK_TAKEN
                else falls[block_id]
            )
        else:
            predicted = (
                targets[block_id]
                if entry[0] >= _WEAK_TAKEN
                else falls[block_id]
            )
        prev_kind = kind
        prev_block = block_id
        prev_entry = entry

    return (
        int.from_bytes(bytes(pred_bits), "big"),
        pred_right,
        atb_hits,
        atb_misses,
    )


# ------------------------------------------------------- cache component
class _CacheComponent:
    """Everything one (geometry, scheme, L0, bus) tuple produced.

    Only the miss and buffer-hit bitmaps are kept — a position that is
    in neither is a cache hit, so the combine step never needs a hit
    bitmap (``ph = pred_correct - pm - pb``).
    """

    __slots__ = (
        "miss_mask", "buf_mask", "cycles_f",
        "cache_hits", "cache_misses", "lines_fetched",
        "buffer_hits", "buffer_misses",
        "bus_bytes", "bus_beats", "bus_flips",
    )

    def __init__(self) -> None:
        self.miss_mask = 0
        self.buf_mask = 0
        self.cycles_f = 0
        self.cache_hits = self.cache_misses = self.lines_fetched = 0
        self.buffer_hits = self.buffer_misses = 0
        self.bus_bytes = self.bus_beats = self.bus_flips = 0


def _cache_component(
    trace: Sequence[int],
    span_pairs: Sequence[tuple],
    geometry: CacheGeometry,
    has_buffer: bool,
    costs: BlockCosts,
    l0_cap: int,
    op_counts: Sequence[int],
    beats_by_block: Sequence[list],
    payload_lens: Sequence[int],
) -> _CacheComponent:
    """One trace pass of the L0 + banked L1 + bus machine.

    Charges every position at its pred-*incorrect* Table 1 cost (the
    combine step subtracts the constant correct-prediction discount per
    intersected position).  Only ``costs.l0_probe`` blocks probe the
    L0, and only ``costs.l0_fits`` blocks are installed there.
    """
    l0_probe = costs.l0_probe
    l0_fits = costs.l0_fits
    hit_cost_f = costs.hit_f
    miss_cost_f = costs.miss_f
    buf_cost = costs.buffer
    cache_ways = geometry.ways
    cache_sets: List[Dict[int, bool]] = [
        {} for _ in range(geometry.num_sets)
    ]
    span_buckets = [
        tuple((cache_sets[set_index], line) for set_index, line in pairs)
        for pairs in span_pairs
    ]
    span_single_bucket = [
        (cache_sets[pairs[0][0]], pairs[0][1]) if len(pairs) == 1
        else None
        for pairs in span_pairs
    ]

    l0: Dict[int, int] = {}
    l0_used = 0

    out = _CacheComponent()
    cycles_f = 0
    cache_hits = cache_misses = lines_fetched = 0
    buffer_hits = buffer_misses = 0
    bus_state = 0
    bus_beats = bus_bytes = bus_flips = 0
    miss_bits = bytearray(len(trace))
    buf_bits = bytearray(len(trace)) if has_buffer else b""

    for position, block_id in enumerate(trace):
        buffer_hit = False
        if l0_probe[block_id]:
            resident = l0.pop(block_id, None)
            if resident is not None:
                l0[block_id] = resident
                buffer_hits += 1
                buffer_hit = True
            else:
                buffer_misses += 1
                if l0_fits[block_id]:
                    op_count = op_counts[block_id]
                    while l0_used + op_count > l0_cap:
                        l0_used -= l0.pop(next(iter(l0)))
                    l0[block_id] = op_count
                    l0_used += op_count

        if buffer_hit:
            cycles_f += buf_cost[block_id]
            buf_bits[position] = 1
        else:
            single = span_single_bucket[block_id]
            if single is not None:
                bucket, line = single
                if bucket.pop(line, False):
                    bucket[line] = True
                    missing = 0
                else:
                    missing = 1
                    if len(bucket) >= cache_ways:
                        del bucket[next(iter(bucket))]
                    bucket[line] = True
            else:
                # Two phases, like BankedCache.access_block: probe every
                # line before touching any, so an install cannot evict a
                # sibling line that should have counted as resident.
                spans = span_buckets[block_id]
                missing = 0
                for bucket, line in spans:
                    if line not in bucket:
                        missing += 1
                for bucket, line in spans:
                    if line in bucket:
                        del bucket[line]
                    elif len(bucket) >= cache_ways:
                        del bucket[next(iter(bucket))]
                    bucket[line] = True
            if missing:
                cache_misses += 1
                lines_fetched += missing
                beats = beats_by_block[block_id]
                for beat in beats:
                    bus_flips += (beat ^ bus_state).bit_count()
                    bus_state = beat
                bus_beats += len(beats)
                bus_bytes += payload_lens[block_id]
                cycles_f += miss_cost_f[block_id]
                miss_bits[position] = 1
            else:
                cache_hits += 1
                cycles_f += hit_cost_f[block_id]

    out.miss_mask = int.from_bytes(bytes(miss_bits), "big")
    out.buf_mask = (
        int.from_bytes(bytes(buf_bits), "big") if has_buffer else 0
    )
    out.cycles_f = cycles_f
    out.cache_hits = cache_hits
    out.cache_misses = cache_misses
    out.lines_fetched = lines_fetched
    out.buffer_hits = buffer_hits
    out.buffer_misses = buffer_misses
    out.bus_bytes = bus_bytes
    out.bus_beats = bus_beats
    out.bus_flips = bus_flips
    return out


# -------------------------------------------------------------- the sweep
def _geometry_key(geometry: CacheGeometry) -> tuple:
    """Behavioral identity of a geometry (the name is presentation)."""
    return (geometry.capacity_bytes, geometry.ways, geometry.line_bytes)


def _sweep_engine(
    image_for,
    trace: Sequence[int],
    configs: Sequence[FetchConfig],
) -> List[FetchMetrics]:
    """Shared body of the two public sweep entry points.

    ``image_for(scheme)`` resolves the :class:`CompressedImage` a config
    of that scheme replays against.  Memo tables are keyed so that
    anything derived from the compressed *payload* (spans, bus beats,
    cache components) is per-image while anything derived only from the
    underlying *program* (block metadata, predictor components,
    delivered-op totals) is shared across images of the same program —
    a mixed-scheme grid pays for each distinct predictor once.
    """
    rows = penalty_rows()
    results: List[FetchMetrics] = []
    blocks_fetched = len(trace)

    # ----------------------------------------------------- memo tables
    meta_memo: Dict[int, tuple] = {}        # id(program image)
    # Distinct ProgramImage objects with identical block metadata (the
    # per-scheme images of one study round-trip the store as separate
    # copies) share one predictor token, so mixed-scheme grids compute
    # each predictor component once, not once per scheme.
    pred_tokens: Dict[tuple, int] = {}      # meta columns -> token
    pred_comps: Dict[tuple, tuple] = {}     # (program token, pred key)
    cache_comps: Dict[tuple, _CacheComponent] = {}
    span_memo: Dict[tuple, list] = {}       # (id(image), line, sets)
    beats_memo: Dict[tuple, tuple] = {}     # (id(image), bus width)
    att_memo: Dict[tuple, int] = {}         # (id(image), geo key)
    joint_memo: Dict[tuple, tuple] = {}

    for config in configs:
        scheme = config.scheme
        base_scheme = fetch_scheme_base(scheme)
        compressed = image_for(scheme)

        image = compressed.image
        meta = meta_memo.get(id(image))
        if meta is None:
            kinds, targets, falls, mop_counts, op_counts = (
                block_meta_columns(image)
            )
            delivered_mops = delivered_ops = 0
            for block_id in trace:
                delivered_mops += mop_counts[block_id]
                delivered_ops += op_counts[block_id]
            columns = (tuple(kinds), tuple(targets), tuple(falls))
            program_token = pred_tokens.setdefault(
                columns, len(pred_tokens)
            )
            meta = (
                kinds, targets, falls, mop_counts, op_counts,
                delivered_mops, delivered_ops, len(image),
                program_token,
            )
            meta_memo[id(image)] = meta
        (
            kinds, targets, falls, mop_counts, op_counts,
            delivered_mops, delivered_ops, nblocks, program_token,
        ) = meta

        has_buffer = base_scheme in ("compressed", "hybrid")
        geometry = config.cache
        geo_key = _geometry_key(geometry)

        pred_key = (
            program_token,
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
                kinds, targets, falls, nblocks, trace,
                config.atb_entries, config.atb_ways,
                config.predictor, config.gshare_history_bits,
            )
            pred_comps[pred_key] = pred
        pred_mask, pred_right, atb_hits, atb_misses = pred

        bus_width = config.bus_bytes
        cache_key = (
            id(compressed),
            geo_key,
            base_scheme,
            config.l0_capacity_ops if has_buffer else None,
            bus_width,
        )
        comp = cache_comps.get(cache_key)
        if comp is None:
            span_key = (
                id(compressed), geometry.line_bytes, geometry.num_sets
            )
            span_pairs = span_memo.get(span_key)
            if span_pairs is None:
                span_pairs = block_span_pairs(compressed, geometry)
                span_memo[span_key] = span_pairs

            beats_key = (id(compressed), bus_width)
            beats = beats_memo.get(beats_key)
            if beats is None:
                beats = block_bus_beats(compressed, bus_width)
                beats_memo[beats_key] = beats
            beats_by_block, payload_lens = beats

            comp = _cache_component(
                trace, span_pairs, geometry, has_buffer,
                block_costs(compressed, config, span_pairs),
                config.l0_capacity_ops,
                op_counts, beats_by_block, payload_lens,
            )
            cache_comps[cache_key] = comp

        joint_key = (pred_key, cache_key)
        joint = joint_memo.get(joint_key)
        if joint is None:
            joint = (
                (pred_mask & comp.miss_mask).bit_count(),
                (pred_mask & comp.buf_mask).bit_count()
                if has_buffer
                else 0,
            )
            joint_memo[joint_key] = joint
        pred_ok_misses, pred_ok_bufs = joint
        pred_ok_hits = pred_right - pred_ok_misses - pred_ok_bufs

        att_key = (id(compressed), geo_key)
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
        metrics.delivered_ops = delivered_ops
        metrics.delivered_mops = delivered_mops
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
) -> List[FetchMetrics]:
    """Replay ``trace`` once for many configurations at once.

    Returns one :class:`~repro.fetch.engine.FetchMetrics` per entry of
    ``configs``, in order, each bit-identical to
    ``simulate_fetch_reference(compressed, trace, config)``.
    """
    return _sweep_engine(lambda scheme: compressed, trace, configs)


def simulate_fetch_sweep_multi(
    images: Dict[str, CompressedImage],
    trace: Sequence[int],
    configs: Sequence[FetchConfig],
) -> List[FetchMetrics]:
    """Sweep a mixed-scheme grid, one image per scheme.

    ``images`` maps each scheme appearing in ``configs`` to the
    compressed image its points replay against (typically the per-scheme
    images of one :class:`~repro.core.study.ProgramStudy`).  Equivalent
    to concatenating per-scheme :func:`simulate_fetch_sweep` calls,
    except predictor components — which depend only on the underlying
    program — are shared across schemes whose images wrap the same
    program.
    """

    def image_for(scheme: str) -> CompressedImage:
        try:
            return images[scheme]
        except KeyError:
            raise ConfigurationError(
                f"no compressed image supplied for scheme {scheme!r}"
            ) from None

    return _sweep_engine(image_for, trace, configs)
