"""Tests for the fetch path: caches, ATB, predictor, L0, penalties, bus."""

import pytest

from repro.errors import ConfigurationError
from repro.fetch import config as fetch_config
from repro.fetch.atb import ATB, att_bytes, att_entry_bits
from repro.fetch.banked_cache import BankedCache
from repro.fetch.branch_predict import (
    BlockMeta,
    BlockPredictor,
    KIND_COND_BRANCH,
    KIND_FALLTHROUGH,
    KIND_HALT,
    KIND_JUMP,
    KIND_RET,
    STRONG_NOT_TAKEN,
    STRONG_TAKEN,
)
from repro.fetch.config import (
    BASE_CACHE,
    CacheGeometry,
    COMPRESSED_CACHE,
    FetchConfig,
    TAILORED_CACHE,
    initiation_cycles,
    penalty_rows,
)
from repro.fetch.l0buffer import L0Buffer
from repro.power.busmodel import BusModel


class TestGeometry:
    def test_paper_geometries(self):
        assert BASE_CACHE.capacity_bytes == 20 * 1024
        assert BASE_CACHE.line_bytes == 40
        assert TAILORED_CACHE.capacity_bytes == 16 * 1024
        assert COMPRESSED_CACHE.line_bytes == 32
        # Paper pairing: same set count, 2-way.
        assert BASE_CACHE.num_sets == TAILORED_CACHE.num_sets == 256
        assert BASE_CACHE.ways == 2

    def test_lines_of(self):
        geo = CacheGeometry("t", 1024, 2, 32)
        assert list(geo.lines_of(0, 32)) == [0]
        assert list(geo.lines_of(31, 2)) == [0, 1]
        assert list(geo.lines_of(64, 100)) == [2, 3, 4, 5]

    def test_invalid_geometry_rejected(self):
        with pytest.raises(ConfigurationError):
            CacheGeometry("bad", 1000, 2, 32)  # not divisible
        with pytest.raises(ConfigurationError):
            CacheGeometry("bad", 192, 2, 32)  # 3 sets

    def test_zero_size_block_rejected(self):
        with pytest.raises(ConfigurationError):
            BASE_CACHE.lines_of(0, 0)


class TestPenaltyTable:
    """Table 1, all 24 cells, verbatim."""

    @pytest.mark.parametrize(
        "scheme,correct,hit,expected",
        [
            ("base", True, True, 1),
            ("tailored", True, True, 1),
            ("base", False, True, 2),
            ("tailored", False, True, 2),
        ],
    )
    def test_hit_rows_ignore_n(self, scheme, correct, hit, expected):
        for n in (1, 4):
            assert initiation_cycles(
                scheme, pred_correct=correct, cache_hit=hit,
                buffer_hit=False, n=n,
            ) == expected

    @pytest.mark.parametrize(
        "scheme,correct,base",
        [
            ("base", True, 1),
            ("tailored", True, 2),
            ("base", False, 8),
            ("tailored", False, 9),
        ],
    )
    def test_miss_rows_scale_with_n(self, scheme, correct, base):
        for n in (1, 3, 7):
            assert initiation_cycles(
                scheme, pred_correct=correct, cache_hit=False,
                buffer_hit=False, n=n,
            ) == base + (n - 1)

    def test_compressed_buffer_hit_always_one_cycle(self):
        for correct in (True, False):
            for hit in (True, False):
                assert initiation_cycles(
                    "compressed", pred_correct=correct, cache_hit=hit,
                    buffer_hit=True, n=5,
                ) == 1

    @pytest.mark.parametrize(
        "correct,hit,base",
        [(True, True, 1), (True, False, 3), (False, True, 2),
         (False, False, 10)],
    )
    def test_compressed_buffer_miss_rows(self, correct, hit, base):
        for n in (1, 2, 5):
            assert initiation_cycles(
                "compressed", pred_correct=correct, cache_hit=hit,
                buffer_hit=False, n=n,
            ) == base + (n - 1)

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ConfigurationError):
            initiation_cycles(
                "weird", pred_correct=True, cache_hit=True,
                buffer_hit=False, n=1,
            )

    def test_invalid_n_rejected(self):
        with pytest.raises(ConfigurationError):
            initiation_cycles(
                "base", pred_correct=True, cache_hit=True,
                buffer_hit=False, n=0,
            )

    def test_combine_precondition(self):
        """The sweep charges every fetch at its mispredicted row and
        subtracts one constant discount, which is exact only while each
        outcome pair shares its per-extra-line slope and every family
        has the same hit/miss discounts."""
        rows = penalty_rows()
        assert set(rows.by_family) == {"base", "tailored", "compressed"}
        for hit_t, hit_f, miss_t, miss_f in rows.by_family.values():
            assert hit_t[1] == hit_f[1]
            assert miss_t[1] == miss_f[1]
            assert hit_f[0] - hit_t[0] == rows.dh == 1
            assert miss_f[0] - miss_t[0] == rows.dm == 7
        assert rows.buffer_hit_cycles == 1

    def test_combine_precondition_violation_fails_loudly(
        self, monkeypatch
    ):
        skewed = dict(fetch_config.NO_BUFFER_ROWS)
        skewed[("tailored", False, False)] = (12, True)
        monkeypatch.setattr(fetch_config, "NO_BUFFER_ROWS", skewed)
        with pytest.raises(ConfigurationError, match="misprediction"):
            penalty_rows.__wrapped__()


class TestBankedCache:
    def _cache(self, sets=4, ways=2, line=32):
        return BankedCache(
            CacheGeometry("t", sets * ways * line, ways, line)
        )

    def test_miss_then_hit(self):
        cache = self._cache()
        hit, total, missing = cache.access_block(0, 64)
        assert not hit and total == 2 and missing == 2
        hit, total, missing = cache.access_block(0, 64)
        assert hit and missing == 0

    def test_partial_presence_counts_as_miss(self):
        cache = self._cache()
        cache.access_block(0, 32)  # line 0 only
        hit, total, missing = cache.access_block(0, 64)
        assert not hit and missing == 1  # only line 1 was absent

    def test_lru_eviction_within_set(self):
        cache = self._cache(sets=2, ways=2, line=32)
        geo = cache.geometry
        # Three blocks mapping to the same bucket evict the oldest.
        lines = []
        for line in range(0, 64):
            if len(lines) == 3:
                break
            probe = BankedCache(geo)
            if (line & 1) == 0 and ((line >> 1) % 1) == 0:
                lines.append(line)
        a, b, c = 0, 4, 8  # all even lines, same bank
        cache.access_block(a * 32, 1)
        cache.access_block(b * 32, 1)
        cache.access_block(c * 32, 1)
        assert not cache.probe_line(a) or not cache.probe_line(b)

    def test_atomic_block_refetch(self):
        """On any missing line, the whole block is (re)installed."""
        cache = self._cache()
        cache.access_block(0, 96)  # lines 0..2
        assert cache.lines_fetched == 3
        hit, _, _ = cache.access_block(0, 96)
        assert hit

    def test_counters(self):
        cache = self._cache()
        cache.access_block(0, 32)
        cache.access_block(0, 32)
        assert cache.accesses == 2
        assert cache.hit_rate == 0.5


class TestATB:
    def test_hit_and_miss_counting(self):
        atb = ATB(entries=8, ways=2)
        _, hit = atb.access(3)
        assert not hit
        _, hit = atb.access(3)
        assert hit
        assert atb.hits == 1 and atb.misses == 1
        assert atb.hit_rate == 0.5

    def test_eviction_loses_predictor_state(self):
        atb = ATB(entries=4, ways=1)  # 4 direct-mapped sets
        entry, _ = atb.access(0)
        entry.predictor.counter = STRONG_TAKEN
        atb.access(4)  # same set (4 % 4 == 0) evicts block 0
        entry2, hit = atb.access(0)
        assert not hit
        assert entry2.predictor.counter != STRONG_TAKEN or \
            entry2 is not entry

    def test_lru_within_set(self):
        atb = ATB(entries=8, ways=2)
        atb.access(0)
        atb.access(8)   # same set, fills both ways
        atb.access(0)   # touch 0 -> 8 becomes LRU
        atb.access(16)  # evicts 8
        _, hit = atb.access(0)
        assert hit
        _, hit = atb.access(8)
        assert not hit

    def test_invalid_shape_rejected(self):
        with pytest.raises(ConfigurationError):
            ATB(entries=10, ways=4)
        with pytest.raises(ConfigurationError):
            ATB(entries=24, ways=4)  # 6 sets, not a power of two

    def test_att_sizing(self, compress_study):
        compressed = compress_study.compressed("full")
        geo = FetchConfig.for_scheme("compressed").cache
        bits = att_entry_bits(compressed, geo)
        assert bits > 0
        assert att_bytes(compressed, geo) == (
            bits * len(compressed.image) + 7
        ) // 8


def _meta(kind, target=None, fallthrough=None):
    return BlockMeta(
        block_id=0, kind=kind, target=target, fallthrough=fallthrough,
        mop_count=1, op_count=1,
    )


class TestPredictor:
    def test_fallthrough_always_predicted(self):
        p = BlockPredictor()
        assert p.predict(_meta(KIND_FALLTHROUGH, fallthrough=7)) == 7

    def test_halt_predicts_nothing(self):
        assert BlockPredictor().predict(_meta(KIND_HALT)) is None

    def test_jump_uses_static_target(self):
        assert BlockPredictor().predict(_meta(KIND_JUMP, target=9)) == 9

    def test_two_bit_counter_hysteresis(self):
        p = BlockPredictor()
        meta = _meta(KIND_COND_BRANCH, target=5, fallthrough=6)
        # Initially weakly taken.
        assert p.predict(meta) == 5
        p.update(meta, 6)  # not taken -> weakly not-taken
        assert p.predict(meta) == 6
        p.update(meta, 5)  # taken -> weakly taken again
        assert p.predict(meta) == 5
        p.update(meta, 5)
        p.update(meta, 5)
        assert p.counter == STRONG_TAKEN
        p.update(meta, 6)  # one not-taken from strong stays taken
        assert p.predict(meta) == 5

    def test_counter_saturates(self):
        p = BlockPredictor()
        meta = _meta(KIND_COND_BRANCH, target=5, fallthrough=6)
        for _ in range(10):
            p.update(meta, 6)
        assert p.counter == STRONG_NOT_TAKEN
        for _ in range(10):
            p.update(meta, 5)
        assert p.counter == STRONG_TAKEN

    def test_ret_uses_last_target(self):
        p = BlockPredictor()
        meta = _meta(KIND_RET)
        assert p.predict(meta) is None  # no history yet
        p.update(meta, 42)
        assert p.predict(meta) == 42
        p.update(meta, 17)
        assert p.predict(meta) == 17


class TestL0Buffer:
    def test_miss_installs_then_hits(self):
        l0 = L0Buffer(capacity_ops=32)
        assert not l0.access(1, 10)
        assert l0.access(1, 10)
        assert l0.hit_rate == 0.5

    def test_lru_eviction_by_ops(self):
        l0 = L0Buffer(capacity_ops=32)
        l0.access(1, 16)
        l0.access(2, 16)  # full
        l0.access(1, 16)  # touch 1 -> 2 is LRU
        l0.access(3, 16)  # evicts 2
        assert l0.access(1, 16)
        assert not l0.access(2, 16)

    def test_oversized_block_never_resides(self):
        l0 = L0Buffer(capacity_ops=32)
        assert not l0.access(9, 40)
        assert not l0.access(9, 40)
        assert l0.resident_ops == 0

    def test_invalid_capacity(self):
        with pytest.raises(ConfigurationError):
            L0Buffer(capacity_ops=0)

    def test_paper_capacity_is_default(self):
        assert FetchConfig.for_scheme("compressed").l0_capacity_ops == 32


class TestBusModel:
    def test_flip_counting(self):
        bus = BusModel(bus_bytes=1)
        bus.transfer(bytes([0xFF]))  # 8 flips from 0
        assert bus.bit_flips == 8
        bus.transfer(bytes([0xFF]))  # identical beat: 0 flips
        assert bus.bit_flips == 8
        bus.transfer(bytes([0x0F]))  # 4 flips
        assert bus.bit_flips == 12

    def test_state_persists_across_transfers(self):
        bus = BusModel(bus_bytes=2)
        bus.transfer(bytes([0xFF, 0xFF]))
        first = bus.bit_flips
        bus.transfer(bytes([0xFF, 0xFF]))
        assert bus.bit_flips == first

    def test_partial_beat_padded(self):
        bus = BusModel(bus_bytes=4)
        bus.transfer(bytes([0xF0]))
        assert bus.beats == 1
        assert bus.bytes_transferred == 1

    def test_invalid_width(self):
        with pytest.raises(ConfigurationError):
            BusModel(bus_bytes=0)
