"""Bit-flip accounting on the code-ROM memory bus.

Every ICache miss transfers the block's bytes (in whatever encoding the
scheme stores in ROM) over a fixed-width bus.  Energy is dominated by
driving line transitions, so the model counts the Hamming distance
between consecutive bus beats; bus state persists across transactions —
exactly the paper's "number of transactions on the memory bus when bits
are flipped" metric.  Compression wins twice: fewer beats per block and
fewer misses (higher effective cache capacity).
"""

from __future__ import annotations

from repro.errors import ConfigurationError


class BusModel:
    """A ``bus_bytes``-wide data bus with transition counting."""

    def __init__(self, bus_bytes: int = 8) -> None:
        if bus_bytes <= 0:
            raise ConfigurationError(
                f"bus width must be positive, got {bus_bytes}"
            )
        self.bus_bytes = bus_bytes
        self._state = 0
        self._state_bytes = 0
        self.beats = 0
        self.bytes_transferred = 0
        self.bit_flips = 0

    def transfer(self, payload: bytes) -> int:
        """Send ``payload`` over the bus; returns flips for this transfer."""
        flips_before = self.bit_flips
        width = self.bus_bytes
        for i in range(0, len(payload), width):
            beat_bytes = payload[i : i + width]
            beat = int.from_bytes(beat_bytes, "big")
            # Each beat is zero-padded to the bus width.  The zero tail
            # past both beats' bytes never flips, so compare the two
            # padded only to the longer one.
            n, state_n = len(beat_bytes), self._state_bytes
            padded = max(n, state_n)
            self.bit_flips += (
                (beat << 8 * (padded - n))
                ^ (self._state << 8 * (padded - state_n))
            ).bit_count()
            self._state, self._state_bytes = beat, n
            self.beats += 1
        self.bytes_transferred += len(payload)
        return self.bit_flips - flips_before
