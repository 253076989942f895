"""Shared integer semantics.

The compiler's constant folder and the emulator must agree exactly on
arithmetic; both import from here.  Integers are 32-bit two's-complement
wrapping; shifts mask their amount to 5 bits; division truncates toward
zero (C semantics).  :func:`popcount` serves the fetch engines' bitmap
intersections and the bus model's bit-flip counts.
"""

from __future__ import annotations

if hasattr(int, "bit_count"):
    #: Number of one bits in ``abs(value)``, at C speed (Python 3.10+).
    popcount = int.bit_count
else:  # pragma: no cover - Python 3.9

    def popcount(value: int) -> int:
        """Number of one bits in ``abs(value)``."""
        return bin(value).count("1")


def wrap32(value: int) -> int:
    """Reduce to signed 32-bit two's complement."""
    return ((value + (1 << 31)) & 0xFFFFFFFF) - (1 << 31)


def unsigned32(value: int) -> int:
    return value & 0xFFFFFFFF


def shift_amount(value: int) -> int:
    return value & 31


def div_trunc(a: int, b: int) -> int:
    """C-style integer division (truncate toward zero)."""
    q = abs(a) // abs(b)
    return -q if (a < 0) != (b < 0) else q


def mod_trunc(a: int, b: int) -> int:
    """C-style remainder: ``a - div_trunc(a, b) * b``."""
    return a - div_trunc(a, b) * b
