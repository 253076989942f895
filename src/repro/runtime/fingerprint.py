"""Deterministic cache keys for study artifacts.

An artifact digest commits to everything that can change the artifact:
the stage, the benchmark name and *effective* scale, the compression
scheme or fetch configuration, and a **source fingerprint** of the whole
``repro`` package — so editing any ``.py`` file invalidates every cached
artifact, exactly like a build system.  Digests are pure functions of
their inputs: two processes given the same tree and the same key parts
produce the same hex string, which is what lets a ``ProcessPoolExecutor``
worker warm the store for its parent.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import pathlib
from typing import Optional

#: Bump to invalidate every existing cache entry (envelope layout, pickle
#: strategy, or key-derivation changes).
DIGEST_VERSION = 1

_fingerprints: dict[str, str] = {}


def _package_root() -> pathlib.Path:
    import repro

    return pathlib.Path(repro.__file__).resolve().parent


def source_fingerprint(root: Optional[pathlib.Path] = None) -> str:
    """SHA-256 over every ``.py`` file under ``root`` (default: ``repro``).

    The walk is sorted by POSIX-style relative path so the fingerprint is
    independent of filesystem enumeration order; results are memoized
    per-process (and dropped by :func:`reset_fingerprint_cache`).
    """
    base = pathlib.Path(root) if root is not None else _package_root()
    cache_key = str(base)
    cached = _fingerprints.get(cache_key)
    if cached is not None:
        return cached
    digest = hashlib.sha256()
    for path in sorted(base.rglob("*.py"), key=lambda p: p.as_posix()):
        rel = path.relative_to(base).as_posix()
        digest.update(rel.encode())
        digest.update(b"\0")
        digest.update(hashlib.sha256(path.read_bytes()).digest())
    value = digest.hexdigest()
    _fingerprints[cache_key] = value
    return value


def reset_fingerprint_cache() -> None:
    """Drop memoized fingerprints (tests mutate source trees)."""
    _fingerprints.clear()


def _canonical(value):
    """A JSON-serializable, deterministic token for a key part.

    Frozen config dataclasses (``FetchConfig``, ``CacheGeometry``) are
    flattened field by field; any other object contributes its
    qualified class name — its behavior is already committed to by the
    source fingerprint.
    """
    if value is None or isinstance(value, (str, int, float, bool)):
        return value
    if isinstance(value, pathlib.Path):
        return str(value)
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _canonical(v) for k, v in sorted(value.items())}
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            f.name: _canonical(getattr(value, f.name))
            for f in dataclasses.fields(value)
        }
    return type(value).__qualname__


def fetch_config_token(config) -> Optional[str]:
    """Deterministic string for a :class:`~repro.fetch.config.FetchConfig`.

    ``None`` stays ``None`` (meaning "the scheme's default config", which
    the source fingerprint already pins down).  The token is canonical
    JSON, so equal configs always produce equal strings.
    """
    if config is None:
        return None
    return json.dumps(_canonical(config), sort_keys=True)


def artifact_digest(
    stage: str,
    *,
    benchmark: str,
    scale: int,
    scheme: Optional[str] = None,
    extra: Optional[dict] = None,
    fingerprint: Optional[str] = None,
) -> str:
    """The content address of one artifact.

    ``fingerprint`` overrides the package fingerprint (tests exercise
    invalidation with synthetic trees).
    """
    key = {
        "v": DIGEST_VERSION,
        "stage": stage,
        "benchmark": benchmark,
        "scale": scale,
        "scheme": scheme,
        "extra": _canonical(extra) if extra else None,
        "source": fingerprint
        if fingerprint is not None
        else source_fingerprint(),
    }
    blob = json.dumps(key, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()
