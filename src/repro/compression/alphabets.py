"""Huffman input alphabets: byte, stream, and whole-op views of the code.

The *stream* alphabet (paper Figure 3) cuts every 40-bit operation at fixed
bit positions into a small number of independent compression streams, so
that highly repetitive fields — the OpType/OpCode prefix, the almost-always
-true predicate — form their own low-entropy streams.  The paper considered
six stream configurations and reported the best two; the six configurations
below span the same design space (boundaries chosen at the Table 2 field
seams shared by most formats).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.isa.formats import OP_BITS


@dataclass(frozen=True)
class StreamConfig:
    """A stream alphabet: interior cut positions of the 40-bit word.

    ``boundaries = (9, 19, 34)`` means four streams covering bits
    [0,9), [9,19), [19,34), [34,40) — bit 0 being the leftmost (``T``) bit
    as drawn in Table 2.
    """

    name: str
    boundaries: tuple[int, ...]

    def __post_init__(self) -> None:
        previous = 0
        for b in self.boundaries:
            if not previous < b < OP_BITS:
                raise ValueError(
                    f"stream config {self.name!r}: bad boundary {b}"
                )
            previous = b
        edges = (0, *self.boundaries, OP_BITS)
        widths = tuple(b - a for a, b in zip(edges, edges[1:]))
        # ``(shift, mask)`` per stream, front first: the cuts ``split``
        # applies to every op word, computed once per configuration.
        cuts = tuple(
            (OP_BITS - end, (1 << width) - 1)
            for end, width in zip(edges[1:], widths)
        )
        object.__setattr__(self, "_widths", widths)
        object.__setattr__(self, "_cuts", cuts)

    @property
    def num_streams(self) -> int:
        return len(self.boundaries) + 1

    @property
    def widths(self) -> tuple[int, ...]:
        """Bit width of each stream."""
        return self._widths

    def split(self, word: int) -> tuple[int, ...]:
        """Cut a 40-bit op word into per-stream symbols (front first)."""
        return tuple([(word >> shift) & mask for shift, mask in self._cuts])

    def join(self, symbols: tuple[int, ...]) -> int:
        """Inverse of :meth:`split`."""
        if len(symbols) != self.num_streams:
            raise ValueError(
                f"expected {self.num_streams} symbols, got {len(symbols)}"
            )
        word = 0
        for symbol, width in zip(symbols, self._widths):
            word = (word << width) | symbol
        return word


#: The six stream configurations searched for Figure 5.  The first cut at
#: bit 9 isolates the fixed T/S/OPT/OPCODE prefix every format shares; the
#: cut at 34 isolates the L1+predicate tail; the others subdivide the
#: operand region at common field seams.
SIX_STREAM_CONFIGS: tuple[StreamConfig, ...] = (
    StreamConfig("streams_9_19_34", (9, 19, 34)),  # Figure 3 shape
    StreamConfig("streams_9_14_34", (9, 14, 34)),
    StreamConfig("streams_9_19_29", (9, 19, 29)),
    StreamConfig("streams_9_14_19_34", (9, 14, 19, 34)),
    StreamConfig("streams_4_9_34", (4, 9, 34)),
    StreamConfig("streams_9_29", (9, 29)),
)


def config_by_name(name: str) -> StreamConfig:
    for config in SIX_STREAM_CONFIGS:
        if config.name == name:
            return config
    raise KeyError(f"no stream configuration named {name!r}")
