"""Fetch-path configuration and the paper's Table 1 penalty matrix.

Cache geometry follows Section 5: "moderately sized caches on scale
suitable for an embedded system: 16KB, 2-way set associative.  The
baseline requires a block size that is a multiple of the TEPIC 40-bit op
size, so its effective size is slightly larger: 20KB, 2-way."  Both have
256 sets; Base uses 40-byte lines (8 ops), the others 32-byte lines.

``n`` in the penalty formulas is the number of storage lines the block
occupies at the level servicing the request: memory lines on a cache
miss, L1 lines for the Compressed scheme's hit-path decompression
(one line feeds the decompressor per cycle).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping, NamedTuple, Tuple

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class CacheGeometry:
    """One set-associative instruction-cache geometry."""

    name: str
    capacity_bytes: int
    ways: int
    line_bytes: int

    def __post_init__(self) -> None:
        if min(self.capacity_bytes, self.ways, self.line_bytes) < 1:
            raise ConfigurationError(
                f"cache {self.name!r}: capacity, ways and line size must "
                f"be positive, got {self.capacity_bytes}:{self.ways}:"
                f"{self.line_bytes}"
            )
        if self.capacity_bytes % (self.ways * self.line_bytes):
            raise ConfigurationError(
                f"cache {self.name!r}: capacity {self.capacity_bytes} not "
                f"divisible by ways*line ({self.ways}*{self.line_bytes})"
            )
        if self.num_sets & (self.num_sets - 1):
            raise ConfigurationError(
                f"cache {self.name!r}: {self.num_sets} sets is not a "
                "power of two"
            )

    @property
    def num_sets(self) -> int:
        return self.capacity_bytes // (self.ways * self.line_bytes)

    def lines_of(self, start_byte: int, size_bytes: int) -> range:
        """Line numbers a [start, start+size) block occupies."""
        if size_bytes <= 0:
            raise ConfigurationError(f"block of {size_bytes} bytes")
        first = start_byte // self.line_bytes
        last = (start_byte + size_bytes - 1) // self.line_bytes
        return range(first, last + 1)


#: Baseline banked cache: 2-way, 40-byte lines (8 ops) — 20KB effective.
BASE_CACHE = CacheGeometry("base", 20 * 1024, 2, 40)

#: Tailored/compressed caches: 16KB, 2-way, 32-byte lines.
TAILORED_CACHE = CacheGeometry("tailored", 16 * 1024, 2, 32)
COMPRESSED_CACHE = CacheGeometry("compressed", 16 * 1024, 2, 32)

#: Pressure-scaled pair for the cache study: the paper's 16KB holds only a
#: small fraction of a SPEC code image; these 64-set geometries hold a
#: comparable fraction of this repo's miniature benchmarks while keeping
#: the paper's exact 20:16 effective-size ratio and 2-way associativity.
BASE_CACHE_SCALED = CacheGeometry("base", 1280, 2, 40)
TAILORED_CACHE_SCALED = CacheGeometry("tailored", 1024, 2, 32)
COMPRESSED_CACHE_SCALED = CacheGeometry("compressed", 1024, 2, 32)


#: Table 1 rows without an L0 buffer (Base, Tailored):
#: (scheme, pred_correct, cache_hit) -> (base_cycles, uses_n).
NO_BUFFER_ROWS = {
    ("base", True, True): (1, False),
    ("base", True, False): (1, True),
    ("base", False, True): (2, False),
    ("base", False, False): (8, True),
    ("tailored", True, True): (1, False),
    ("tailored", True, False): (2, True),
    ("tailored", False, True): (2, False),
    ("tailored", False, False): (9, True),
}

#: Compressed, L0 buffer miss: (pred_correct, cache_hit) -> (base, uses_n).
COMPRESSED_BUFFER_MISS_ROWS = {
    (True, True): (1, True),
    (True, False): (3, True),
    (False, True): (2, True),
    (False, False): (10, True),
}

#: Every Compressed L0 buffer-hit row is one cycle.
BUFFER_HIT_CYCLES = 1

#: The penalty families Table 1 defines (hybrid charges each block at
#: its ATT tag, ``tailored`` or ``compressed``).
PENALTY_FAMILIES = ("base", "tailored", "compressed")


def initiation_cycles(
    scheme: str,
    *,
    pred_correct: bool,
    cache_hit: bool,
    buffer_hit: bool,
    n: int,
) -> int:
    """Table 1: cycles to deliver the first MultiOp of a block.

    Streaming then supplies one MultiOp per cycle.  Base and Tailored
    have no buffer, so their rows ignore ``buffer_hit``.
    """
    if n < 1:
        raise ConfigurationError(f"line count n={n} must be >= 1")
    if scheme == "compressed":
        if buffer_hit:
            return BUFFER_HIT_CYCLES
        base, uses_n = COMPRESSED_BUFFER_MISS_ROWS[(pred_correct, cache_hit)]
    else:
        try:
            base, uses_n = NO_BUFFER_ROWS[(scheme, pred_correct, cache_hit)]
        except KeyError:
            raise ConfigurationError(
                f"unknown fetch scheme {scheme!r}"
            ) from None
    return base + (n - 1 if uses_n else 0)


class PenaltyRows(NamedTuple):
    """Table 1 resolved for the columnar engines.

    ``by_family[family]`` holds four ``(base_cycles, per_extra_line)``
    pairs in the order (hit, pred correct), (hit, pred incorrect),
    (miss, pred correct), (miss, pred incorrect).  Correct and
    incorrect prediction differ by the constant ``dh`` on a hit and
    ``dm`` on a miss in every family, which is what lets the sweep
    charge every position at its incorrect-prediction row and subtract
    the discount afterwards.
    """

    by_family: Mapping[str, Tuple[Tuple[int, int], ...]]
    dh: int
    dm: int
    buffer_hit_cycles: int


@functools.lru_cache(maxsize=None)
def penalty_rows() -> PenaltyRows:
    """Resolve Table 1 into :class:`PenaltyRows`, checking the combine
    precondition once.

    Rows are derived by evaluating :func:`initiation_cycles` at n=1 and
    n=2, so the columnar engines charge exactly what the reference
    engine does.  Raises :class:`ConfigurationError` if, in any family,
    correct and incorrect prediction have different per-extra-line
    slopes, or if the families disagree on ``dh``/``dm``.
    """

    def pair(family: str, pred: bool, hit: bool) -> Tuple[int, int]:
        one, two = (
            initiation_cycles(
                family, pred_correct=pred, cache_hit=hit,
                buffer_hit=False, n=n,
            )
            for n in (1, 2)
        )
        return one, two - one

    by_family = {
        family: tuple(
            pair(family, pred, hit)
            for hit in (True, False)
            for pred in (True, False)
        )
        for family in PENALTY_FAMILIES
    }
    for family, (hit_t, hit_f, miss_t, miss_f) in by_family.items():
        if hit_t[1] != hit_f[1] or miss_t[1] != miss_f[1]:
            raise ConfigurationError(
                f"Table 1 {family!r} rows: correct and incorrect "
                "prediction have different per-line slopes"
            )
    dh = {rows[1][0] - rows[0][0] for rows in by_family.values()}
    dm = {rows[3][0] - rows[2][0] for rows in by_family.values()}
    if len(dh) != 1 or len(dm) != 1:
        raise ConfigurationError(
            "Table 1 families disagree on the misprediction cost "
            f"(hit {sorted(dh)}, miss {sorted(dm)})"
        )
    return PenaltyRows(
        MappingProxyType(by_family), dh.pop(), dm.pop(), BUFFER_HIT_CYCLES
    )


@dataclass(frozen=True)
class FetchConfig:
    """Everything one fetch simulation needs."""

    scheme: str  # "base" | "tailored" | "compressed" | "hybrid[@T]"
    cache: CacheGeometry
    atb_entries: int = 128
    atb_ways: int = 4
    #: Extra cycles to pull an ATT entry from memory on an ATB miss (the
    #: paper reports low contention but gives no number; 2 cycles is one
    #: memory-line fetch — the ablation bench sweeps it).
    atb_miss_penalty: int = 2
    l0_capacity_ops: int = 32
    bus_bytes: int = 8
    #: Next-block predictor: "block" = the paper's per-ATB-entry 2-bit
    #: counter + last target; "gshare" = the future-work global-history
    #: predictor (Section 3.4 mentions it as a candidate).
    predictor: str = "block"
    gshare_history_bits: int = 10

    def __post_init__(self) -> None:
        """Reject, once, any value the fetch engines cannot model."""
        if self.atb_ways <= 0 or self.atb_entries % self.atb_ways:
            raise ConfigurationError(
                f"ATB entries {self.atb_entries} not divisible by ways "
                f"{self.atb_ways}"
            )
        atb_sets = self.atb_entries // self.atb_ways
        if atb_sets <= 0 or atb_sets & (atb_sets - 1):
            raise ConfigurationError(
                f"ATB set count {atb_sets} is not a power of two"
            )
        if self.atb_miss_penalty < 0:
            raise ConfigurationError(
                f"ATB miss penalty must be >= 0, got {self.atb_miss_penalty}"
            )
        if self.predictor not in ("block", "gshare"):
            raise ConfigurationError(
                f"unknown predictor {self.predictor!r}"
            )
        if not 1 <= self.gshare_history_bits <= 24:
            raise ConfigurationError(
                "gshare history bits must lie in 1..24, got "
                f"{self.gshare_history_bits}"
            )
        if self.bus_bytes <= 0:
            raise ConfigurationError(
                f"bus width must be positive, got {self.bus_bytes}"
            )
        if self.l0_capacity_ops <= 0:
            raise ConfigurationError(
                f"L0 capacity must be positive, got {self.l0_capacity_ops}"
            )

    @staticmethod
    def for_scheme(
        scheme: str, *, scaled: bool = False, **overrides
    ) -> "FetchConfig":
        """Standard config for a scheme.

        ``scaled`` selects the pressure-scaled cache pair (see
        :data:`BASE_CACHE_SCALED`) used by the Figure 13/14 studies.
        Hybrid organizations (``hybrid``, ``hybrid@T``) run on the
        compressed geometry — their cold majority fetches exactly like
        the Compressed organization — and keep the full key in
        ``scheme`` so per-threshold configs stay distinct.
        """
        from repro.compression.registry import fetch_scheme_base

        table = {
            "base": BASE_CACHE_SCALED if scaled else BASE_CACHE,
            "tailored": (
                TAILORED_CACHE_SCALED if scaled else TAILORED_CACHE
            ),
            "compressed": (
                COMPRESSED_CACHE_SCALED if scaled else COMPRESSED_CACHE
            ),
            "hybrid": (
                COMPRESSED_CACHE_SCALED if scaled else COMPRESSED_CACHE
            ),
        }
        cache = table.get(fetch_scheme_base(scheme))
        if cache is None:
            raise ConfigurationError(f"unknown fetch scheme {scheme!r}")
        return FetchConfig(scheme=scheme, cache=cache, **overrides)
