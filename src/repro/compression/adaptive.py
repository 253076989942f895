"""Access-pattern-adaptive compression schemes.

Two scheme families that use more than a static, memoryless view of the
image:

* :class:`HybridScheme` — consumes a fetch-trace heat profile and
  assigns a per-block encoding: blocks above the hotness threshold stay
  in the tailored (fixed-width, dictionary-free) encoding so fetching
  them pays the cheap tailored penalties, while cold blocks take
  context-modeled full-op Huffman and keep the size win (Ozturk et al.,
  "Access Pattern-Based Code Compression").  The cold dictionaries are
  built from the cold blocks alone, so what the hot set gives up in
  size the sharper cold model buys back.  Both halves read the image's
  op words: the tailored ISA is derived from every block's words, and
  a hot block packs one ``(bits, width)`` pair per word.  The resulting
  :class:`HybridImage` carries per-block scheme tags that the ATT
  stores (one bit per entry) and the reference fetch engine and the
  sweep columns honor for decompression-penalty and L0-buffer accounting.
* :class:`ContextHuffmanScheme` — a fifth scheme family: full-op
  symbols whose codebook is conditioned on the class of the previous
  symbol (Hirvola's previous-symbol context modeling).  The class is
  the op's fixed ``(opt, opcode)`` prefix — the same bits that select
  the format, and hence the register/immediate layout — so runs of
  same-class ops (the register-reuse window) share a sharper
  conditional distribution than one memoryless dictionary.

Both schemes keep the paper's block addressability: every block is
byte aligned and decodes independently (context state resets at block
entry).
"""

from __future__ import annotations

from collections import Counter
from typing import Callable, Iterable, Optional, Sequence

from repro.compression.huffman import (
    HuffmanCode,
    pack_symbols,
    unknown_symbol,
)
from repro.compression.registry import HYBRID_DEFAULT_HOTNESS, hybrid_key
from repro.compression.schemes import (
    BlockWords,
    CompressedImage,
    CompressionScheme,
    DEFAULT_MAX_CODE_LENGTH,
    StreamTable,
)
from repro.errors import CompressionError, ConfigurationError
from repro.isa.formats import (
    OP_BITS,
    OPCODE_PREFIX_MASK,
    OPCODE_PREFIX_SHIFT,
)
from repro.isa.image import ProgramImage
from repro.utils.bitstream import pack_block

#: Per-block tag values: the fetch-penalty family the block is accounted
#: under.  Hot blocks are tailored-encoded (fixed width, no dictionary);
#: cold blocks are Huffman-encoded and fetch like the compressed
#: organization (serialized decode, L0-buffer eligible).
HOT_TAG = "tailored"
COLD_TAG = "compressed"


def heat_profile(
    block_trace: Sequence[int], num_blocks: int
) -> tuple[int, ...]:
    """Dynamic fetch count per block from one program trace."""
    counts = [0] * num_blocks
    for block_id in block_trace:
        counts[block_id] += 1
    return tuple(counts)


def hot_block_ids(
    profile: Sequence[int], hotness: float
) -> frozenset[int]:
    """The hot set: fewest blocks covering ``hotness`` of all fetches.

    Blocks are taken in descending dynamic-count order (block id breaks
    ties, so the set is deterministic) until the cumulative count
    reaches ``hotness`` × total.  Never-executed blocks are always
    cold; ``hotness == 0`` keeps the whole image Huffman-compressed.
    """
    total = sum(profile)
    if total == 0 or hotness <= 0.0:
        return frozenset()
    need = hotness * total
    order = sorted(
        range(len(profile)), key=lambda bid: (-profile[bid], bid)
    )
    hot = set()
    covered = 0
    for block_id in order:
        if covered >= need or profile[block_id] == 0:
            break
        hot.add(block_id)
        covered += profile[block_id]
    return frozenset(hot)


#: Context id for the first op of every block: decode starts with no
#: history, which keeps blocks independently addressable.
BLOCK_START_CONTEXT = -1

def context_of(word: int) -> int:
    """Symbol class a 40-bit op word contributes as left-context: its
    (opt, opcode) prefix, shared by every TEPIC format."""
    return (word >> OPCODE_PREFIX_SHIFT) & OPCODE_PREFIX_MASK


def _context_codes(
    all_words: Iterable[Sequence[int]],
    build_code: Callable[[Counter], HuffmanCode],
) -> dict[int, HuffmanCode]:
    """One code per left-context, built from the blocks' op words.

    Context state resets at every block entry, as it does in decode.
    """
    histograms: dict[int, Counter] = {}
    for words in all_words:
        ctx = BLOCK_START_CONTEXT
        for word in words:
            histogram = histograms.get(ctx)
            if histogram is None:
                histogram = histograms[ctx] = Counter()
            histogram[word] += 1
            ctx = (word >> OPCODE_PREFIX_SHIFT) & OPCODE_PREFIX_MASK
    return {ctx: build_code(h) for ctx, h in histograms.items()}


def _pack_in_context(
    tables: dict[int, dict[int, tuple[int, int]]], words: Sequence[int]
) -> tuple[bytes, int]:
    """Pack one block's words, each under its left-context's code table."""
    pairs = []
    ctx = BLOCK_START_CONTEXT
    try:
        for word in words:
            pairs.append(tables[ctx][word])
            ctx = (word >> OPCODE_PREFIX_SHIFT) & OPCODE_PREFIX_MASK
    except KeyError:
        raise unknown_symbol(word) from None
    return pack_block(pairs)


class HybridImage(CompressedImage):
    """A per-block hot/cold encoding with its spec, tags, and profile.

    Cold blocks share per-context codebooks; stream ``i`` holds the
    dictionary for context ``context_ids[i]``.
    """

    def __init__(
        self,
        spec,
        block_tags: Sequence[str],
        profile: Sequence[int],
        hotness: float,
        context_ids: Sequence[int],
        *args,
        **kwargs,
    ) -> None:
        super().__init__(*args, **kwargs)
        self.spec = spec
        self.block_tags = tuple(block_tags)
        self.profile = tuple(profile)
        self.hotness = hotness
        self.context_ids = tuple(context_ids)
        self.context_index = {
            ctx: i for i, ctx in enumerate(self.context_ids)
        }
        if len(self.block_tags) != len(self.image):
            raise CompressionError("tag count != block count")

    @property
    def scheme_tag_bits(self) -> int:
        # One ATT bit selects between the two block decoders.
        return 1

    def block_scheme_tags(self) -> Sequence[str]:
        return self.block_tags


class HybridScheme(CompressionScheme):
    """Hot blocks tailored, cold blocks full-op Huffman, per a profile.

    The scheme is constructed from a hotness threshold and a profile
    source alone (so scheme *keys* stay pure); the heat profile itself
    is attached with :meth:`with_profile` before :meth:`compress` —
    ``ProgramStudy.compressed("hybrid")`` does this from the study's own
    fetch trace, ``compressed("hybrid:static")`` from the compile-time
    estimate of :func:`repro.analysis.freq.static_heat_profile`.  The
    scheme itself is agnostic to where the counts came from; ``source``
    only selects the provider and keeps the key/name canonical.

    Hot and cold blocks alike are encoded from the op words, so a
    caller that attaches none pays one encode of every block.
    """

    def __init__(
        self,
        hotness: float = HYBRID_DEFAULT_HOTNESS,
        max_code_length: Optional[int] = DEFAULT_MAX_CODE_LENGTH,
        *,
        source: str = "trace",
    ) -> None:
        super().__init__(max_code_length)
        self.hotness = float(hotness)
        self.source = source
        self.name = hybrid_key(self.hotness, source)
        self._profile: Optional[tuple[int, ...]] = None

    def with_profile(self, profile: Sequence[int]) -> "HybridScheme":
        self._profile = tuple(profile)
        return self

    # ------------------------------------------------------------ encode
    def _hot_blocks(self, image: ProgramImage) -> frozenset[int]:
        if self._profile is None:
            raise ConfigurationError(
                "hybrid compression needs a heat profile; attach one "
                "with with_profile() or go through "
                "ProgramStudy.compressed('hybrid')"
            )
        if len(self._profile) != len(image):
            raise CompressionError(
                "heat profile length != block count"
            )
        return hot_block_ids(self._profile, self.hotness)

    def _compress(
        self, image: ProgramImage, words: BlockWords
    ) -> HybridImage:
        from repro.tailored.analysis import analyze_words
        from repro.tailored.encoding import word_codes

        hot = self._hot_blocks(image)
        tags = [
            HOT_TAG if block_id in hot else COLD_TAG
            for block_id in range(len(image))
        ]
        # Cold dictionaries are per-context and built from cold blocks
        # only: the hot set is out of the alphabet, so the sharper cold
        # model buys back what the hot blocks give up in size.
        codes = _context_codes(
            (words[bid] for bid, tag in enumerate(tags) if tag == COLD_TAG),
            self._build_code,
        )
        tables = {ctx: code.codes for ctx, code in codes.items()}
        # The tailored ISA fits every block's words, cold ones included.
        spec = analyze_words(words, image.name)
        hot_codes = word_codes(
            spec, set().union(*(words[block_id] for block_id in hot))
        )
        payloads = []
        bit_lengths = []
        for block, tag in zip(words, tags):
            if tag == HOT_TAG:
                payload, bits = pack_symbols(hot_codes, block)
            else:
                payload, bits = _pack_in_context(tables, block)
            payloads.append(payload)
            bit_lengths.append(bits)
        context_ids = tuple(sorted(codes))
        streams = tuple(
            StreamTable(codes[ctx], symbol_bits=OP_BITS)
            for ctx in context_ids
        )
        return HybridImage(
            spec, tags, self._profile, self.hotness, context_ids,
            self, image, payloads, bit_lengths, streams,
        )

    # ------------------------------------------------------------ decode
    def decode_block(
        self, compressed: CompressedImage, block_id: int
    ) -> list[int]:
        from repro.tailored.encoding import decode_ops
        from repro.utils.bitstream import BitReader

        if not isinstance(compressed, HybridImage):
            raise CompressionError("hybrid decode requires a HybridImage")
        reader = BitReader(compressed.block_bytes(block_id))
        op_count = compressed.image.block(block_id).op_count
        if compressed.block_tags[block_id] == HOT_TAG:
            return decode_ops(compressed.spec, reader, op_count)
        decoders = [s.code.make_decoder() for s in compressed.streams]
        words = []
        ctx = BLOCK_START_CONTEXT
        for _ in range(op_count):
            decoder = decoders[compressed.context_index[ctx]]
            word = decoder.decode_symbol(reader)
            words.append(word)
            ctx = context_of(word)
        return words


# ----------------------------------------------------------------------
class ContextImage(CompressedImage):
    """A context-coded image; stream ``i`` is context ``context_ids[i]``."""

    def __init__(
        self, context_ids: Sequence[int], *args, **kwargs
    ) -> None:
        super().__init__(*args, **kwargs)
        self.context_ids = tuple(context_ids)
        self.context_index = {
            ctx: i for i, ctx in enumerate(self.context_ids)
        }


class ContextHuffmanScheme(CompressionScheme):
    """Full-op Huffman conditioned on the previous symbol's class."""

    name = "context"

    def __init__(
        self, max_code_length: Optional[int] = DEFAULT_MAX_CODE_LENGTH
    ) -> None:
        super().__init__(max_code_length)

    def _compress(
        self, image: ProgramImage, words: BlockWords
    ) -> ContextImage:
        codes = _context_codes(words, self._build_code)
        tables = {ctx: code.codes for ctx, code in codes.items()}
        payloads = []
        bit_lengths = []
        for block in words:
            payload, bits = _pack_in_context(tables, block)
            payloads.append(payload)
            bit_lengths.append(bits)
        context_ids = tuple(sorted(codes))
        streams = tuple(
            StreamTable(codes[ctx], symbol_bits=OP_BITS)
            for ctx in context_ids
        )
        return ContextImage(
            context_ids, self, image, payloads, bit_lengths, streams
        )

    def decode_block(
        self, compressed: CompressedImage, block_id: int
    ) -> list[int]:
        from repro.utils.bitstream import BitReader

        if not isinstance(compressed, ContextImage):
            raise CompressionError(
                "context decode requires a ContextImage"
            )
        decoders = [s.code.make_decoder() for s in compressed.streams]
        reader = BitReader(compressed.block_bytes(block_id))
        words = []
        ctx = BLOCK_START_CONTEXT
        for _ in range(compressed.image.block(block_id).op_count):
            decoder = decoders[compressed.context_index[ctx]]
            word = decoder.decode_symbol(reader)
            words.append(word)
            ctx = context_of(word)
        return words
