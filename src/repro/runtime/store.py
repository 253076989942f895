"""Disk-backed, content-addressed artifact store.

Entries live under ``<root>/objects/<aa>/<digest>.pkl`` where ``aa`` is
the first digest byte (keeps directories small).  Each file is a
versioned pickle *envelope* — ``{magic, version, digest, sha256,
payload}`` where ``payload`` is the separately-pickled artifact and
``sha256`` its checksum — so a reader can reject foreign files, stale
formats, entries filed under the wrong name, and payload bytes that were
damaged in place.  Guarantees:

* **atomic writes** — payloads are staged to a temp file in the same
  directory and ``os.replace``d into place, so readers never observe a
  half-written entry even with concurrent writers;
* **corruption tolerance** — any failure to read/unpickle/validate an
  entry is a cache *miss* (the bad file is unlinked best-effort), never
  an exception *or a wrong artifact*: a flipped bit inside the payload
  fails the checksum instead of silently unpickling to a different
  value, so a damaged cache can only ever cost a recompute;
* **concurrent-evictor safety** — every window in which another process
  can unlink or replace an entry (between open/read/validate/touch) is
  a clean miss, and a corrupt entry is only dropped if it is still the
  same file that was read (never a just-rewritten good entry);
* **LRU size cap** — entry mtimes are refreshed on hit, and writes evict
  least-recently-used entries until the store fits ``max_bytes``;
* **cross-process maintenance lock** — eviction and ``clear()`` take an
  exclusive ``flock`` on ``<root>/.lock`` while reads hold it shared, so
  one CLI invocation's evictor and a concurrent invocation cannot
  unlink an entry out from under an in-progress read (and two evictors
  cannot interleave their walks).  The lock is advisory and best-effort:
  on filesystems or platforms without ``flock`` the store falls back to
  the old single-owner behavior, whose failure mode is still only a
  clean miss.
"""

from __future__ import annotations

import hashlib
import os
import pathlib
import pickle
import tempfile
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Optional, Tuple

try:  # pragma: no cover - absent only on non-POSIX platforms
    import fcntl
except ImportError:  # pragma: no cover
    fcntl = None

from repro.runtime.config import runtime_config

ENVELOPE_MAGIC = "repro-artifact"
#: Version 2 added the payload checksum (``sha256`` over the pickled
#: payload bytes); version-1 entries read as misses and recompute.
ENVELOPE_VERSION = 2

#: Distinguishes "cached None" from "not cached".
MISS = object()


@dataclass(frozen=True)
class StoreStats:
    """Snapshot of a store's footprint."""

    root: str
    entries: int
    total_bytes: int
    max_bytes: int


class ArtifactStore:
    """Content-addressed pickle cache with an LRU byte cap."""

    def __init__(
        self,
        root: pathlib.Path,
        max_bytes: Optional[int] = None,
    ) -> None:
        self.root = pathlib.Path(root)
        self.max_bytes = max_bytes
        self._objects = self.root / "objects"

    # ------------------------------------------------------------ paths
    def path_for(self, digest: str) -> pathlib.Path:
        return self._objects / digest[:2] / f"{digest}.pkl"

    @contextmanager
    def _locked(self, *, exclusive: bool):
        """Advisory cross-process lock over store maintenance.

        Readers hold it shared; eviction and ``clear()`` hold it
        exclusive.  Yields whether the lock was actually taken — any
        failure to create or flock the lock file degrades to unlocked
        operation (the store's read path already tolerates races; the
        lock only removes them where the platform cooperates).
        """
        if fcntl is None:
            yield False
            return
        fd = None
        try:
            self.root.mkdir(parents=True, exist_ok=True)
            fd = os.open(
                self.root / ".lock", os.O_RDWR | os.O_CREAT, 0o644
            )
            fcntl.flock(
                fd, fcntl.LOCK_EX if exclusive else fcntl.LOCK_SH
            )
        except OSError:
            if fd is not None:
                os.close(fd)
            yield False
            return
        try:
            yield True
        finally:
            os.close(fd)  # closing the descriptor releases the flock

    def _iter_entries(self):
        # Every directory operation tolerates a concurrent evictor or
        # ``clear()`` racing with the walk: a vanished shard or entry is
        # simply skipped.
        try:
            shards = list(self._objects.iterdir())
        except OSError:
            return
        for shard in shards:
            try:
                if not shard.is_dir():
                    continue
                entries = list(shard.glob("*.pkl"))
            except OSError:
                continue
            for path in entries:
                yield path

    # -------------------------------------------------------- get / put
    def get(self, digest: str):
        """The payload for ``digest``, or :data:`MISS`.

        Never raises on a bad entry: unreadable, truncated, checksum-
        mismatched, or misfiled entries are dropped and reported as
        misses.  A concurrent evictor unlinking (or a writer replacing)
        the file at any point is also a clean miss.
        """
        path = self.path_for(digest)
        inode = None
        # The shared side of the maintenance lock: a concurrent evictor
        # or ``clear()`` (exclusive holders) waits until this read is
        # done instead of unlinking the entry mid-validation.
        with self._locked(exclusive=False):
            try:
                with open(path, "rb") as fh:
                    try:
                        inode = os.fstat(fh.fileno()).st_ino
                    except OSError:
                        inode = None
                    envelope = pickle.load(fh)
                if (
                    not isinstance(envelope, dict)
                    or envelope.get("magic") != ENVELOPE_MAGIC
                    or envelope.get("version") != ENVELOPE_VERSION
                    or envelope.get("digest") != digest
                ):
                    raise ValueError("bad envelope")
                blob = envelope["payload"]
                if not isinstance(blob, bytes):
                    raise ValueError("payload is not a byte string")
                if hashlib.sha256(blob).hexdigest() != envelope.get(
                    "sha256"
                ):
                    raise ValueError("payload checksum mismatch")
                payload = pickle.loads(blob)
            except FileNotFoundError:
                return MISS
            except Exception:
                self._discard_if_unchanged(path, inode)
                return MISS
            try:
                os.utime(path)  # refresh LRU recency (entry may be evicted)
            except OSError:
                pass
            return payload

    def size_of(self, digest: str) -> int:
        """On-disk byte size of an entry (0 if absent)."""
        try:
            return self.path_for(digest).stat().st_size
        except OSError:
            return 0

    def put(self, digest: str, payload) -> int:
        """Persist ``payload`` under ``digest`` atomically; bytes written."""
        path = self.path_for(digest)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload_blob = pickle.dumps(
            payload, protocol=pickle.HIGHEST_PROTOCOL
        )
        envelope = {
            "magic": ENVELOPE_MAGIC,
            "version": ENVELOPE_VERSION,
            "digest": digest,
            "sha256": hashlib.sha256(payload_blob).hexdigest(),
            "payload": payload_blob,
        }
        blob = pickle.dumps(envelope, protocol=pickle.HIGHEST_PROTOCOL)
        fd, tmp_name = tempfile.mkstemp(
            prefix=f".{digest[:8]}-", suffix=".tmp", dir=path.parent
        )
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(blob)
            os.replace(tmp_name, path)
        except BaseException:
            self._discard(pathlib.Path(tmp_name))
            raise
        self._evict_to_cap(keep=path)
        return len(blob)

    # ------------------------------------------------------ maintenance
    def _discard(self, path: pathlib.Path) -> None:
        try:
            path.unlink()
        except OSError:
            pass

    def _discard_if_unchanged(
        self, path: pathlib.Path, inode: Optional[int]
    ) -> None:
        """Drop a corrupt entry only if it is still the file we read.

        Between a failed read and the unlink, a concurrent writer may
        have replaced the entry with a good one (``put`` is an atomic
        ``os.replace``); unlinking then would destroy a valid artifact.
        The inode recorded at open time identifies the file actually
        read — if it no longer matches (or was never captured), leave
        the path alone.
        """
        if inode is None:
            return
        try:
            if os.stat(path).st_ino != inode:
                return
        except OSError:
            return  # already gone: nothing to drop
        self._discard(path)

    def _evict_to_cap(self, keep: Optional[pathlib.Path] = None) -> None:
        """Drop least-recently-used entries until under ``max_bytes``.

        The just-written entry (``keep``) is never evicted, so a single
        oversized artifact may leave the store temporarily above cap.
        Runs under the exclusive maintenance lock: in-progress readers
        (shared holders) finish before anything is unlinked, and two
        evicting processes serialize their walks.
        """
        if not self.max_bytes or self.max_bytes <= 0:
            return
        with self._locked(exclusive=True):
            entries = []
            total = 0
            for path in self._iter_entries():
                try:
                    stat = path.stat()
                except OSError:
                    continue
                entries.append((stat.st_mtime, stat.st_size, path))
                total += stat.st_size
            if total <= self.max_bytes:
                return
            for _, size, path in sorted(entries, key=lambda e: e[0]):
                if keep is not None and path == keep:
                    continue
                self._discard(path)
                total -= size
                if total <= self.max_bytes:
                    return

    def stats(self) -> StoreStats:
        entries = 0
        total = 0
        for path in self._iter_entries():
            try:
                total += path.stat().st_size
            except OSError:
                continue
            entries += 1
        return StoreStats(
            root=str(self.root),
            entries=entries,
            total_bytes=total,
            max_bytes=self.max_bytes or 0,
        )

    def clear(self) -> int:
        """Remove every entry; returns how many were dropped.

        Takes the exclusive maintenance lock so a ``repro cache clear``
        racing another invocation waits for in-progress reads instead
        of unlinking entries mid-validation.
        """
        dropped = 0
        with self._locked(exclusive=True):
            for path in list(self._iter_entries()):
                self._discard(path)
                dropped += 1
        return dropped


_default: Optional[Tuple[object, ArtifactStore]] = None


def default_store() -> ArtifactStore:
    """The store for the active :func:`runtime_config` (rebuilt on change)."""
    global _default
    config = runtime_config()
    if _default is None or _default[0] != config:
        _default = (
            config,
            ArtifactStore(config.cache_dir, config.max_bytes),
        )
    return _default[1]


def reset_default_store() -> None:
    global _default
    _default = None
