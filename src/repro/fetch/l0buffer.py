"""The L0 buffer of decompressed ops (paper Section 4).

"One block is decompressed at a time and is held in a buffer, which is
accessed in parallel with (but has priority over) the main cache.  This
buffer is organized as a small fully associative cache ...  The size of
the L0 buffer was set at 32 op entries (160 bytes)."

The buffer holds whole decompressed blocks (fully associative by block,
LRU).  Blocks larger than the capacity cannot reside and always miss:
every revisit charges a fresh miss and goes to the L1, exactly as the
hardware would re-decompress a block that cannot fit.  That rejection is
*accounted*, not silent — ``install`` reports whether the block was
placed and ``oversized_rejects`` counts the refusals — and the columnar
sweep (``repro.fetch.sweep``) charges identical hit/miss counts and
Table 1 costs for the oversized path (pinned by
``tests/test_l0_oversized.py``).
"""

from __future__ import annotations

from repro.errors import ConfigurationError


class L0Buffer:
    """Fully-associative decompressed-block buffer, sized in ops."""

    def __init__(self, capacity_ops: int = 32) -> None:
        if capacity_ops <= 0:
            raise ConfigurationError(
                f"L0 capacity must be positive, got {capacity_ops}"
            )
        self.capacity_ops = capacity_ops
        self._blocks: dict[int, int] = {}  # block_id -> op_count, LRU first
        self._used_ops = 0
        self.hits = 0
        self.misses = 0
        self.oversized_rejects = 0

    def access(self, block_id: int, op_count: int) -> bool:
        """Probe for a block; on miss, install it (evicting LRU blocks)."""
        if block_id in self._blocks:
            ops = self._blocks.pop(block_id)
            self._blocks[block_id] = ops  # move to MRU
            self.hits += 1
            return True
        self.misses += 1
        self.install(block_id, op_count)
        return False

    def install(self, block_id: int, op_count: int) -> bool:
        """Place a freshly decompressed block (evicting LRU blocks).

        Returns ``False`` — and counts the rejection — for a block
        larger than the whole buffer: it can never reside, so every
        revisit will miss again by design.
        """
        if op_count > self.capacity_ops:
            self.oversized_rejects += 1
            return False
        if block_id in self._blocks:
            self._used_ops -= self._blocks.pop(block_id)
        while self._used_ops + op_count > self.capacity_ops:
            lru = next(iter(self._blocks))
            self._used_ops -= self._blocks.pop(lru)
        self._blocks[block_id] = op_count
        self._used_ops += op_count
        return True

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0

    @property
    def resident_ops(self) -> int:
        return self._used_ops
