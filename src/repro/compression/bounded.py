"""Length-limited Huffman codes via the package–merge algorithm.

Section 2.2 of the paper: "For some inputs, Huffman will produce very long
output codes that are incompatible with IFetch hardware.  The compiler
keeps track of such events and either alternates the compression process
(similar to the Bounded Huffman code described by Wolfe) or substitutes the
rare instruction...".  This module is that alternate process: it computes
*optimal* code lengths under a hard maximum-length constraint
(Larmore & Hirschberg's package–merge), which the canonical coder then
turns into code words.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Mapping

from repro.errors import CompressionError


def _merge_sorted(
    a: list[tuple[int, list[int]]], b: list[tuple[int, list[int]]]
) -> list[tuple[int, list[int]]]:
    """Merge two weight-sorted item lists (stable: ``a`` wins ties).

    Timsort finds the two sorted runs and merges them in C; its
    stability keeps every ``a`` item ahead of an equal-weight ``b`` item.
    """
    return sorted(a + b, key=itemgetter(0))


def _package(
    items: list[tuple[int, list[int]]]
) -> list[tuple[int, list[int]]]:
    """Pair up consecutive items; an odd trailing item is discarded."""
    packages = []
    for i in range(0, len(items) - 1, 2):
        w1, leaves1 = items[i]
        w2, leaves2 = items[i + 1]
        packages.append((w1 + w2, leaves1 + leaves2))
    return packages


def length_limited_code_lengths(
    frequencies: Mapping[int, int], max_length: int
) -> dict[int, int]:
    """Optimal prefix-code lengths with every length ≤ ``max_length``.

    Returns ``{symbol: length}``.  Raises :class:`CompressionError` when no
    prefix code of that depth can cover the alphabet (more than
    ``2**max_length`` symbols).
    """
    if max_length <= 0:
        raise CompressionError(f"max_length must be positive: {max_length}")
    symbols = sorted(frequencies)
    if not symbols:
        raise CompressionError("cannot build a Huffman code for no symbols")
    for symbol in symbols:
        if frequencies[symbol] <= 0:
            raise CompressionError(
                f"symbol {symbol} has non-positive frequency"
            )
    n = len(symbols)
    if n == 1:
        return {symbols[0]: 1}
    if n > (1 << max_length):
        raise CompressionError(
            f"{n} symbols cannot be coded with codes of at most "
            f"{max_length} bits"
        )
    # Leaves sorted by (weight, symbol); identity is the index into this
    # list so packages can carry plain ints.
    order = sorted(symbols, key=lambda s: (frequencies[s], s))
    leaves: list[tuple[int, list[int]]] = [
        (frequencies[s], [i]) for i, s in enumerate(order)
    ]
    current: list[tuple[int, list[int]]] = list(leaves)
    for _ in range(max_length - 1):
        current = _merge_sorted(leaves, _package(current))
    # Select the 2n-2 cheapest items of the final list; a symbol's code
    # length equals the number of selected items containing its leaf.
    selected = current[: 2 * n - 2]
    lengths = [0] * n
    for _, contained in selected:
        for leaf_index in contained:
            lengths[leaf_index] += 1
    result = {order[i]: lengths[i] for i in range(n)}
    if any(length < 1 or length > max_length for length in result.values()):
        raise CompressionError("package–merge produced invalid lengths")
    return result
