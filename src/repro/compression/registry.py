"""Single authority for compression-scheme keys.

Every surface that accepts a scheme key — the CLI,
:meth:`ProgramStudy.compressed`, the sweep grid builder — routes through this module, so a new scheme family (or a
parameterized key like ``hybrid@0.75``) is accepted identically
everywhere.  Keys come in two shapes:

* plain names: ``base``, ``byte``, ``full``, ``tailored``, ``dict``,
  ``context``, the six stream-configuration names;
* parameterized hybrid keys: ``hybrid`` (the documented default hotness
  threshold) or ``hybrid@T`` with ``T`` in [0, 1] — the fraction of
  dynamic block fetches the hot (tailored-encoded) set must cover.  A
  ``:static`` suffix (``hybrid:static``, ``hybrid@T:static``) selects
  the compile-time heat estimator from :mod:`repro.analysis.freq`
  instead of the emulator trace, so compression needs zero trace runs.

Unknown or malformed keys raise :class:`UnknownSchemeError`, a
:class:`~repro.errors.ConfigurationError` subclass, so callers that
predate the registry keep working while new callers can distinguish
"bad key" from a genuine factory crash.

This module stays import-light (no scheme classes at module level) so
the fetch layer can use the key helpers without pulling the compressors
in.
"""

from __future__ import annotations

from typing import Optional

from repro.errors import ConfigurationError

#: The documented default hotness threshold: the hot set is the smallest
#: set of blocks covering this fraction of dynamic block fetches.
#: Chosen empirically (see DESIGN.md): at 0.3 the suite's hot sets are
#: 2–7 blocks, the hybrid organization fetches strictly fewer cycles
#: than Compressed on *every* suite program, and the suite-average image
#: is still ~4% smaller than full-op Huffman (the cold-side context
#: model more than pays for the tailored hot set), well within the
#: documented 10% band.
HYBRID_DEFAULT_HOTNESS = 0.3

_HYBRID_PREFIX = "hybrid@"

#: Profile-source suffix: ``hybrid[:@T]:static`` compresses from the
#: compile-time heat estimate instead of the emulator trace.
_STATIC_SUFFIX = ":static"

#: Recognized hybrid profile sources (``trace`` is the unsuffixed
#: default and never appears in a canonical key).
HYBRID_PROFILE_SOURCES = ("trace", "static")

#: Plain (non-parameterized) scheme keys, in presentation order.
_SIMPLE_KEYS = ("base", "byte", "full", "tailored", "dict", "context")


class UnknownSchemeError(ConfigurationError):
    """A scheme key names no registered compression scheme."""


def _stream_names() -> tuple:
    from repro.compression.alphabets import SIX_STREAM_CONFIGS

    return tuple(cfg.name for cfg in SIX_STREAM_CONFIGS)


def known_scheme_keys() -> tuple:
    """Every accepted plain key (hybrid additionally takes ``@T``)."""
    return _SIMPLE_KEYS + ("hybrid",) + _stream_names()


def parse_hybrid_key(key: str) -> Optional[float]:
    """The hotness threshold of a hybrid key, or ``None`` for other keys.

    Accepts the ``:static`` suffix — the threshold means the same thing
    under either profile source.  Raises :class:`UnknownSchemeError` for
    a malformed ``hybrid@...`` suffix — a key that *claims* to be hybrid
    must parse.
    """
    if not isinstance(key, str):
        return None
    if key.endswith(_STATIC_SUFFIX):
        stem = key[: -len(_STATIC_SUFFIX)]
        if stem == "hybrid" or stem.startswith(_HYBRID_PREFIX):
            key = stem
    if key == "hybrid":
        return HYBRID_DEFAULT_HOTNESS
    if not key.startswith(_HYBRID_PREFIX):
        return None
    text = key[len(_HYBRID_PREFIX):]
    try:
        hotness = float(text)
    except ValueError:
        raise UnknownSchemeError(
            f"malformed hybrid key {key!r}: {text!r} is not a number"
        ) from None
    if not 0.0 <= hotness <= 1.0:
        raise UnknownSchemeError(
            f"hybrid hotness threshold must be in [0, 1], got {hotness}"
        )
    return hotness


def hybrid_profile_source(key: str) -> Optional[str]:
    """``"trace"``/``"static"`` for a hybrid key, ``None`` otherwise.

    The source says where the heat profile feeding hot-set selection
    comes from: the emulator's block trace (default) or the static
    frequency estimate of :func:`repro.analysis.freq.static_heat_profile`.
    """
    if parse_hybrid_key(key) is None:
        return None
    return "static" if key.endswith(_STATIC_SUFFIX) else "trace"


def hybrid_key(hotness: float, source: str = "trace") -> str:
    """Canonical key for one (hotness, profile source) pair (default
    hotness folds to ``hybrid`` so equivalent requests share one store
    digest)."""
    hotness = float(hotness)
    if not 0.0 <= hotness <= 1.0:
        raise UnknownSchemeError(
            f"hybrid hotness threshold must be in [0, 1], got {hotness}"
        )
    if source not in HYBRID_PROFILE_SOURCES:
        raise UnknownSchemeError(
            f"unknown hybrid profile source {source!r} "
            f"(expected one of {HYBRID_PROFILE_SOURCES})"
        )
    key = (
        "hybrid"
        if hotness == HYBRID_DEFAULT_HOTNESS
        else f"hybrid@{hotness:g}"
    )
    if source == "static":
        key += _STATIC_SUFFIX
    return key


def fetch_scheme_base(scheme: str) -> str:
    """The penalty/geometry family of a fetch-scheme key
    (``hybrid@0.75`` → ``hybrid``; everything else unchanged)."""
    if parse_hybrid_key(scheme) is not None:
        return "hybrid"
    return scheme


def normalize_scheme_key(key: str) -> str:
    """Validate ``key`` and return its canonical form.

    Raises :class:`UnknownSchemeError` — and nothing else — for a key
    that names no scheme, so callers can catch exactly the lookup
    failure.
    """
    if not isinstance(key, str):
        raise UnknownSchemeError(
            f"scheme key must be a string, got {type(key).__name__}"
        )
    hotness = parse_hybrid_key(key)
    if hotness is not None:
        return hybrid_key(hotness, hybrid_profile_source(key) or "trace")
    if key in _SIMPLE_KEYS or key in _stream_names():
        return key
    message = (
        f"unknown scheme {key!r} "
        f"(known: {', '.join(known_scheme_keys())}; "
        "hybrid also accepts hybrid@T[:static] with T in [0, 1])"
    )
    suggestion = nearest_scheme_key(key)
    if suggestion is not None:
        message += f"; did you mean {suggestion!r}?"
    raise UnknownSchemeError(message)


def nearest_scheme_key(
    key: str, candidates: Optional[tuple] = None
) -> Optional[str]:
    """Closest known key to a typo, suffixes preserved when they parse.

    ``hybird@0.3`` matches the ``hybrid`` stem on its own stem, then
    gets the original ``@0.3``/``:static`` decoration re-attached so the
    suggestion is directly usable.  ``candidates`` restricts the search
    (the fetch layer passes its organization names).
    """
    import difflib

    stem, sep, rest = key.partition("@")
    if candidates is None:
        candidates = known_scheme_keys()
    matches = difflib.get_close_matches(stem, candidates, n=1, cutoff=0.6)
    if not matches:
        return None
    match = matches[0]
    if sep and match == "hybrid":
        try:
            parse_hybrid_key(match + sep + rest)
        except UnknownSchemeError:
            return match
        return match + sep + rest
    return match


def scheme_factory(key: str):
    """Instantiate the scheme a key names (the single factory).

    Scheme classes are imported lazily so key validation stays cheap
    for callers that only normalize.
    """
    key = normalize_scheme_key(key)
    from repro.compression.schemes import (
        BaselineScheme,
        ByteHuffmanScheme,
        FullOpHuffmanScheme,
        StreamHuffmanScheme,
    )

    if key == "base":
        return BaselineScheme()
    if key == "byte":
        return ByteHuffmanScheme()
    if key == "full":
        return FullOpHuffmanScheme()
    if key == "tailored":
        from repro.tailored.encoding import TailoredScheme

        return TailoredScheme()
    if key == "dict":
        from repro.compression.dictionary import DictionaryScheme

        return DictionaryScheme()
    if key == "context":
        from repro.compression.adaptive import ContextHuffmanScheme

        return ContextHuffmanScheme()
    hotness = parse_hybrid_key(key)
    if hotness is not None:
        from repro.compression.adaptive import HybridScheme

        return HybridScheme(
            hotness, source=hybrid_profile_source(key) or "trace"
        )
    from repro.compression.alphabets import SIX_STREAM_CONFIGS

    for config in SIX_STREAM_CONFIGS:
        if config.name == key:
            return StreamHuffmanScheme(config)
    raise UnknownSchemeError(f"unknown scheme {key!r}")  # pragma: no cover
